package assign

import (
	"fmt"
	"math"

	"fairassign/internal/geom"
	"fairassign/internal/metrics"
	"fairassign/internal/rtree"
	"fairassign/internal/skyline"
	"fairassign/internal/ta"
)

// Progressive is the dynamic variant sketched as future work in
// Section 8: stable pairs are emitted on demand (the SB loop runs just
// far enough to produce the next one), and new objects may arrive
// between pulls — a marketplace where supply is released over time.
//
// Semantics: every emitted pair was stable with respect to the functions
// and objects present at the moment it was discovered; a later arrival
// affects only pairs not yet discovered. Arrivals are folded into the
// maintained skyline directly (Maintainer.Insert) without touching the
// R-tree, so they cost no I/O.
//
// Ordering guarantee: between arrivals, pairs stream in non-increasing
// score order — the order of the definitional greedy. SB's loops can
// discover a lower-scored mutual pair before a higher-scored one of a
// later loop, so discovered pairs are held in a pending buffer and
// released only once their score is at least the ceiling on every
// not-yet-discovered pair. That ceiling is the maximum best-function
// score over the current skyline: the globally best remaining pair
// always involves a skyline object (a dominated object scores no better
// than its dominator under any non-negative weights). An AddObject call
// starts a new ordering epoch: pairs discovered before the arrival are
// flushed first, and the guarantee restarts after them.
type Progressive struct {
	dims     int
	st       *solveState
	maint    *skyline.Maintainer
	lists    *ta.Lists
	searches *taSearches
	step     pairStep
	funcCaps *capTable
	objCaps  *capTable
	objSeen  map[uint64]bool
	pending  []Pair // discovered, held for score ordering (sorted desc)
	ready    []Pair // cleared for emission, in final order
	// Cached step-1 results of the upcoming loop, produced while
	// computing the release ceiling so the next runLoop does not repeat
	// the searches.
	nextSky  []rtree.Item
	nextBest []bestFunc
	haveNext bool
	done     bool
	stats    metrics.Stats
	mem      metrics.MemTracker
	timer    metrics.Timer
}

// NewProgressive prepares a progressive matcher over the initial problem.
func NewProgressive(p *Problem, cfg Config) (*Progressive, error) {
	st, err := newSolveState(p, cfg)
	if err != nil {
		return nil, err
	}
	g := &Progressive{
		dims:     p.Dims,
		st:       st,
		funcCaps: newFuncCaps(p.Functions),
		objCaps:  newObjectCaps(p.Objects),
		objSeen:  make(map[uint64]bool, len(p.Objects)),
	}
	for _, o := range p.Objects {
		g.objSeen[o.ID] = true
	}
	g.timer.Start()
	g.maint, err = skyline.NewMaintainer(st.tree, &g.mem)
	if err != nil {
		return nil, err
	}
	g.lists, err = ta.NewLists(taFuncs(p.Functions), p.Dims)
	if err != nil {
		return nil, err
	}
	g.searches = newTASearches(g.lists, modeOptimized, len(p.Functions), cfg.omegaFor(len(p.Functions)))
	g.step = pairStep{lists: memLists{g.lists}, sky: g.maint, funcCaps: g.funcCaps, objCaps: g.objCaps, drop: g.searches.drop}
	g.timer.Stop()
	return g, nil
}

// AddObject introduces a newly released object. It becomes eligible for
// all pairs not yet discovered. Pairs discovered before the arrival are
// released for emission ahead of anything the arrival can influence.
func (g *Progressive) AddObject(o Object) error {
	if len(o.Point) != g.dims {
		return fmt.Errorf("assign: object %d has %d dims, want %d", o.ID, len(o.Point), g.dims)
	}
	if g.objSeen[o.ID] {
		return fmt.Errorf("assign: duplicate object id %d", o.ID)
	}
	g.timer.Start()
	defer g.timer.Stop()
	g.flushPending()
	g.haveNext = false // the skyline is about to change
	g.objSeen[o.ID] = true
	g.objCaps.remaining[o.ID] = o.capacity()
	g.objCaps.units += o.capacity()
	g.objCaps.live++
	g.done = false
	return g.maint.Insert(rtree.Item{ID: o.ID, Point: geom.Point(o.Point).Clone()})
}

// Next returns the next stable pair, running the SB loop as needed.
// ok is false when the matching is complete (either side exhausted);
// a subsequent AddObject can make more pairs available again.
func (g *Progressive) Next() (Pair, bool, error) {
	g.timer.Start()
	defer g.timer.Stop()
	for len(g.ready) == 0 {
		if g.done || g.funcCaps.units == 0 || g.objCaps.units == 0 || g.maint.Size() == 0 {
			g.done = true
			if len(g.pending) == 0 {
				return Pair{}, false, nil
			}
			g.flushPending()
			break
		}
		if err := g.runLoop(); err != nil {
			return Pair{}, false, err
		}
	}
	p := g.ready[0]
	g.ready = g.ready[1:]
	return p, true, nil
}

// flushPending releases every held pair in order.
func (g *Progressive) flushPending() {
	g.ready = append(g.ready, g.pending...)
	g.pending = g.pending[:0]
}

// stepOne runs the per-object best-function phase over the current
// skyline (Lines 9–11).
func (g *Progressive) stepOne() ([]rtree.Item, []bestFunc) {
	sky := g.maint.Skyline()
	sortItemsByID(sky)
	g.stats.TopKRuns += int64(len(sky))
	return sky, g.searches.bestFunctions(sky)
}

// Stats returns a snapshot of the work performed so far.
func (g *Progressive) Stats() metrics.Stats {
	s := g.stats
	s.CPUTime = g.timer.Total
	s.IO = *g.st.store.IO()
	if g.mem.Peak > s.PeakMem {
		s.PeakMem = g.mem.Peak
	}
	s.TASorted = g.lists.Counters.SortedAccesses
	s.TARandom = g.lists.Counters.RandomAccesses
	s.NodeReads = g.maint.NodeReads
	return s
}

// runLoop is one iteration of the optimized SB loop (Algorithm 3),
// adding every discovered mutual pair to the pending buffer and
// releasing the prefix that can no longer be outranked.
func (g *Progressive) runLoop() error {
	g.stats.Loops++
	var sky []rtree.Item
	var best []bestFunc
	if g.haveNext {
		sky, best, g.haveNext = g.nextSky, g.nextBest, false
	} else {
		sky, best = g.stepOne()
	}
	if !allFound(best) {
		g.done = true
		g.flushPending()
		return nil
	}
	held := len(g.pending)
	var err error
	if g.pending, err = g.step.pair(g.pending, sky, best); err != nil {
		return err
	}
	g.stats.Pairs += int64(len(g.pending) - held)
	// Keep the held pairs in the definitional greedy order.
	sortPairsDefinitional(g.pending)

	// Release gate: once a side is exhausted nothing more can be
	// discovered, so everything held is final. Otherwise run the next
	// loop's step 1 now — its maximum best-function score is the ceiling
	// on every future pair — and release the pending prefix at or above
	// it. The step-1 results are cached for the next runLoop.
	if g.funcCaps.units == 0 || g.objCaps.units == 0 || g.maint.Size() == 0 {
		g.flushPending()
	} else {
		sky2, best2 := g.stepOne()
		if !allFound(best2) {
			g.done = true
			g.flushPending()
		} else {
			ceiling := math.Inf(-1)
			for _, bf := range best2 {
				ceiling = max(ceiling, bf.score)
			}
			g.nextSky, g.nextBest, g.haveNext = sky2, best2, true
			// Strictly above the ceiling: a pair tied with it could also
			// tie with a future pair, and the tie must be broken by IDs
			// once both sit in pending together.
			n := 0
			for n < len(g.pending) && g.pending[n].Score > ceiling {
				n++
			}
			g.ready = append(g.ready, g.pending[:n]...)
			g.pending = append(g.pending[:0], g.pending[n:]...)
		}
	}

	if cur := g.mem.Current + g.searches.footprint(); cur > g.stats.PeakMem {
		g.stats.PeakMem = cur
	}
	return nil
}
