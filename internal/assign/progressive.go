package assign

import (
	"fmt"
	"math"

	"fairassign/internal/geom"
	"fairassign/internal/metrics"
	"fairassign/internal/rtree"
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
	st      *solveState
	loop    *sbLoop
	objSeen map[uint64]bool
	pending []Pair // discovered, held for score ordering (sorted desc)
	ready   []Pair // cleared for emission, in final order
	// Cached Lines 9–11 results of the upcoming loop, produced while
	// computing the release ceiling so the next runLoop does not repeat
	// the searches.
	nextSky  []rtree.Item
	nextBest []bestFunc
	haveNext bool
	done     bool
	timer    metrics.Timer
}

// NewProgressive prepares a progressive matcher over the initial problem.
func NewProgressive(p *Problem, cfg Config) (*Progressive, error) {
	st, err := newSolveState(p, cfg)
	if err != nil {
		return nil, err
	}
	g := &Progressive{
		st:      st,
		objSeen: make(map[uint64]bool, len(p.Objects)),
	}
	for _, o := range p.Objects {
		g.objSeen[o.ID] = true
	}
	g.timer.Start()
	defer g.timer.Stop()
	if g.loop, err = st.newLoop(sbOptimized); err != nil {
		return nil, err
	}
	return g, nil
}

// AddObject introduces a newly released object. It becomes eligible for
// all pairs not yet discovered. Pairs discovered before the arrival are
// released for emission ahead of anything the arrival can influence.
func (g *Progressive) AddObject(o Object) error {
	if err := validateObject(&o, g.st.p.Dims); err != nil {
		return err
	}
	if g.objSeen[o.ID] {
		return fmt.Errorf("%w: object %d", ErrDuplicateID, o.ID)
	}
	g.timer.Start()
	defer g.timer.Stop()
	g.flushPending()
	g.haveNext = false // the skyline is about to change
	g.objSeen[o.ID] = true
	g.st.objCaps.add(o.ID, o.capacity())
	g.done = false
	return g.st.maint.Insert(rtree.Item{ID: o.ID, Point: geom.Point(o.Point).Clone()})
}

// Next returns the next stable pair, running the SB loop as needed.
// ok is false when the matching is complete (either side exhausted);
// a subsequent AddObject can make more pairs available again.
func (g *Progressive) Next() (Pair, bool, error) {
	g.timer.Start()
	defer g.timer.Stop()
	for len(g.ready) == 0 {
		if g.done || !g.loop.live() {
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

// Stats returns a snapshot of the work performed so far.
func (g *Progressive) Stats() metrics.Stats {
	s := g.loop.result()
	s.CPUTime = g.timer.Total
	return s
}

// runLoop is one iteration of the optimized SB loop (Algorithm 3),
// adding every discovered mutual pair to the pending buffer and
// releasing the prefix that can no longer be outranked.
func (g *Progressive) runLoop() error {
	l := g.loop
	l.stats.Loops++
	sky, best := g.nextSky, g.nextBest
	if !g.haveNext {
		var err error
		if sky, best, err = l.next(); err != nil {
			return err
		}
	}
	g.haveNext = false
	if best == nil {
		g.done = true
		g.flushPending()
		return nil
	}
	var err error
	if g.pending, err = l.emit(g.pending, sky, best); err != nil {
		return err
	}
	// Keep the held pairs in the definitional greedy order.
	sortPairsDefinitional(g.pending)

	// Release gate: once a side is exhausted nothing more can be
	// discovered, so everything held is final. Otherwise run the next
	// loop's Lines 9–11 now — its maximum best-function score is the
	// ceiling on every future pair — and release the pending prefix at
	// or above it. The results are cached for the next runLoop.
	if !l.live() {
		g.flushPending()
	} else {
		sky2, best2, err := l.next()
		if err != nil {
			return err
		}
		if best2 == nil {
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
	l.notePeak(sky)
	return nil
}
