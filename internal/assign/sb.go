package assign

import (
	"fmt"

	"fairassign/internal/geom"
	"fairassign/internal/metrics"
	"fairassign/internal/rtree"
	"fairassign/internal/score"
	"fairassign/internal/skyline"
	"fairassign/internal/ta"
)

// skylineDriver abstracts the two maintenance strategies (UpdateSkyline
// and DeltaSky) behind the SB loop.
type skylineDriver interface {
	Skyline() []rtree.Item
	Remove(ids ...uint64) error
	Size() int
}

// bestSource answers Lines 9–11 of Algorithms 1 and 3, the one part in
// which the SB variants differ: the best live function of every
// skyline object.
type bestSource interface {
	// best returns the best live function of every object of sky, in
	// sky's order, or nil when some object has none: then no live
	// function is left and the loop ends.
	best(sky []rtree.Item) ([]bestFunc, error)
	// drop discards the search state of an exhausted object.
	drop(oid uint64)
	// memory is the search memory held beside the skyline structures in
	// a loop over sky, for the memory metric.
	memory(sky []rtree.Item) int64
	// count sets the source's search counters on s.
	count(s *metrics.Stats)
}

// sbVariant is what one SB variant supplies to the shared loop: its
// skyline maintenance, its pairs per loop, and its best-function source
// with the function side of its pairing step.
type sbVariant struct {
	deltaSky bool // DeltaSky maintenance instead of UpdateSkyline
	onePair  bool // Algorithm 1: one pair per loop
	source   func(st *solveState) (bestSource, pairLists, error)
}

var (
	// sbOptimized is Algorithm 3: UpdateSkyline, a resumable Ω-bounded
	// TA search per skyline object, every mutual best pair per loop.
	sbOptimized = sbVariant{source: memTA(true)}
	// sbBasic is Algorithm 1 with UpdateSkyline: a fresh TA search per
	// object and loop, one pair per loop.
	sbBasic = sbVariant{onePair: true, source: memTA(false)}
	// sbDeltaSky is sbBasic with DeltaSky maintenance.
	sbDeltaSky = sbVariant{deltaSky: true, onePair: true, source: memTA(false)}
	// sbBlocks is the Workspace build: Algorithm 3's loop with every
	// skyline object's best function from one FuncBlocks pass.
	sbBlocks = sbVariant{source: newBlockSource}
)

// SB runs the fully optimized skyline-based stable assignment
// (Algorithm 3): I/O-optimal incremental skyline maintenance, resumable
// Ω-bounded TA search per skyline object, and emission of every mutual
// best pair in each loop.
func SB(p *Problem, cfg Config) (*Result, error) {
	return solveSB(p, cfg, sbOptimized)
}

// SBBasic runs Algorithm 1 with the UpdateSkyline module but none of the
// Section 5.1/5.3 CPU optimizations ("SB-UpdateSkyline" in Figure 8).
func SBBasic(p *Problem, cfg Config) (*Result, error) {
	return solveSB(p, cfg, sbBasic)
}

// SBDeltaSky runs Algorithm 1 with DeltaSky skyline maintenance
// ("SB-DeltaSky" in Figure 8).
func SBDeltaSky(p *Problem, cfg Config) (*Result, error) {
	return solveSB(p, cfg, sbDeltaSky)
}

func solveSB(p *Problem, cfg Config, v sbVariant) (*Result, error) {
	st, err := newSolveState(p, cfg)
	if err != nil {
		return nil, err
	}
	defer st.release()
	return st.runSB(v)
}

// memTA sources Lines 9–11 from TA searches over in-memory lists:
// resumable Ω-bounded ones (Algorithm 3) or a fresh unbounded one per
// object and loop (Algorithm 1).
func memTA(resume bool) func(st *solveState) (bestSource, pairLists, error) {
	return func(st *solveState) (bestSource, pairLists, error) {
		lists, err := ta.NewLists(taFuncs(st.p.Functions), st.p.Dims)
		if err != nil {
			return nil, nil, err
		}
		open := func(o geom.Point, omega int) *ta.Search { return ta.NewSearch(lists, o, omega) }
		return newTASearches(st, open, &lists.Counters, resume), memLists{lists}, nil
	}
}

// runSB runs one SB variant to completion on the shared state: one of
// the one-shot solvers, or the Workspace build (sbBlocks). Inside the
// timed region it builds the skyline structure, the capacity tables and
// the variant's source, then iterates. On return the state reflects the
// completed matching: the capacity tables hold the remaining units, and
// the maintainer (UpdateSkyline variants) holds the skyline of the
// objects that still have capacity — which is exactly the availability
// frontier the incremental Workspace continues from.
func (st *solveState) runSB(v sbVariant) (*Result, error) {
	var timer metrics.Timer
	timer.Start()
	l, err := st.newLoop(v)
	if err != nil {
		return nil, err
	}
	// TA searches are pooled: recycle the ones still open at the end.
	if ts, ok := l.src.(*taSearches); ok {
		defer ts.releaseAll()
	}
	pairs, err := l.run()
	if err != nil {
		return nil, err
	}
	timer.Stop()
	res := &Result{Pairs: pairs, Stats: l.result()}
	res.Stats.CPUTime = timer.Total
	return res, nil
}

// sbLoop is the iteration of Algorithms 1 and 3 that every SB variant
// runs (SB, SBBasic, SBDeltaSky, SBDiskFuncs, SBAlt, SBTwoSkylines,
// Progressive and the Workspace build): take the skyline in ID order,
// find each skyline object's best live function from the variant's
// source (Lines 9–11), emit the mutual best pairs (Lines 12–17) and
// note the memory peak. The sources are TA searches (taSearches), one
// batch pass per loop over disk lists (batchSource), a scan of the
// function skyline (funcSkyline) and one FuncBlocks pass per object
// (blockSource).
type sbLoop struct {
	pairStep
	st        *solveState
	src       bestSource
	nodeReads *int64        // the skyline structure's node reads
	stats     metrics.Stats // loops, pairs and search-memory peak so far
}

// newLoop builds the variant's skyline structure, the capacity tables
// and its source over the state.
func (st *solveState) newLoop(v sbVariant) (*sbLoop, error) {
	l := &sbLoop{st: st}
	if v.deltaSky {
		d, err := skyline.NewDeltaSky(st.tree, &st.mem)
		if err != nil {
			return nil, err
		}
		l.sky, l.nodeReads = d, &d.NodeReads
	} else {
		m, err := skyline.NewMaintainer(st.tree, &st.mem)
		if err != nil {
			return nil, err
		}
		st.maint = m
		l.sky, l.nodeReads = m, &m.NodeReads
	}
	st.buildCaps()
	src, lists, err := v.source(st)
	if err != nil {
		return nil, err
	}
	l.src = src
	l.lists, l.funcCaps, l.objCaps = lists, st.funcCaps, st.objCaps
	l.onePair, l.drop = v.onePair, src.drop
	return l, nil
}

// live reports whether another loop can pair anything.
func (l *sbLoop) live() bool {
	return l.funcCaps.units > 0 && l.objCaps.units > 0 && l.sky.Size() > 0
}

// next answers Lines 9–11 over the current skyline, taken in ID order.
// best is nil when no live function is left.
func (l *sbLoop) next() (sky []rtree.Item, best []bestFunc, err error) {
	sky = l.sky.Skyline()
	sortItemsByID(sky)
	best, err = l.src.best(sky)
	return sky, best, err
}

// emit runs Lines 12–17 on one loop's answers, appending the pairs to
// out.
func (l *sbLoop) emit(out []Pair, sky []rtree.Item, best []bestFunc) ([]Pair, error) {
	n := len(out)
	out, err := l.pair(out, sky, best)
	l.stats.Pairs += int64(len(out) - n)
	return out, err
}

// notePeak records the memory held after a loop over sky: the skyline
// structures plus the source's search state.
func (l *sbLoop) notePeak(sky []rtree.Item) {
	if cur := l.st.mem.Current + l.src.memory(sky); cur > l.stats.PeakMem {
		l.stats.PeakMem = cur
	}
}

// run iterates until a side is exhausted or no live function is left,
// and returns the pairs in emission order.
func (l *sbLoop) run() ([]Pair, error) {
	var out []Pair
	for l.live() {
		l.stats.Loops++
		sky, best, err := l.next()
		if err != nil || best == nil {
			return out, err
		}
		if out, err = l.emit(out, sky, best); err != nil {
			return out, err
		}
		l.notePeak(sky)
	}
	return out, nil
}

// result returns the run's cost counters so far, CPU time aside. I/O
// counts the object index and, in the disk-resident setting, the
// function lists.
func (l *sbLoop) result() metrics.Stats {
	s := l.stats
	s.IO = *l.st.store.IO()
	if l.st.fstore != nil {
		s.IO.Add(*l.st.fstore.IO())
	}
	s.NodeReads = *l.nodeReads
	s.PeakMem = max(s.PeakMem, l.st.mem.Peak)
	l.src.count(&s)
	return s
}

// taSearches answers Lines 9–11 with TA over in-memory or disk-resident
// lists. With resume every skyline object keeps a resumable Ω-bounded
// search across loops (Algorithm 3); otherwise each loop runs a fresh
// unbounded search per object (Algorithm 1).
type taSearches struct {
	open     func(o geom.Point, omega int) *ta.Search
	counters *ta.Counters
	searches map[uint64]*ta.Search
	omega    int
	resume   bool
	runs     int64
}

func newTASearches(st *solveState, open func(o geom.Point, omega int) *ta.Search, counters *ta.Counters, resume bool) *taSearches {
	omega := len(st.p.Functions)
	if resume {
		omega = st.cfg.omegaFor(omega)
	}
	return &taSearches{
		open:     open,
		counters: counters,
		searches: make(map[uint64]*ta.Search),
		omega:    omega,
		resume:   resume,
	}
}

func (c *taSearches) best(sky []rtree.Item) ([]bestFunc, error) {
	out := make([]bestFunc, len(sky))
	for i, o := range sky {
		s := c.searches[o.ID]
		if s == nil {
			s = c.open(o.Point, c.omega)
			if c.resume {
				c.searches[o.ID] = s
			}
		}
		fid, score, ok := s.Best()
		err := s.Err()
		if !c.resume {
			// A fresh search's buffers go straight back to the pool, so
			// the per-loop cost is near allocation-free.
			s.Release()
		}
		c.runs++
		if !ok {
			return nil, err
		}
		out[i] = bestFunc{fid: fid, score: score}
	}
	return out, nil
}

// drop discards the resumable search of an exhausted object.
func (c *taSearches) drop(oid uint64) {
	if s := c.searches[oid]; s != nil {
		s.Release()
	}
	delete(c.searches, oid)
}

// releaseAll recycles every remaining search at the end of a run.
func (c *taSearches) releaseAll() {
	for oid := range c.searches {
		c.drop(oid)
	}
}

// memory sums the live resumable searches.
func (c *taSearches) memory([]rtree.Item) int64 {
	var n int64
	for _, s := range c.searches {
		n += s.Footprint()
	}
	return n
}

func (c *taSearches) count(s *metrics.Stats) {
	s.TopKRuns = c.runs
	s.TASorted = c.counters.SortedAccesses
	s.TARandom = c.counters.RandomAccesses
}

// blockSource answers Lines 9–11 of the Workspace build with one
// score.FuncBlocks pass per skyline object over every live function's
// effective weights, with no floors: the reverse search that repair
// runs, so the build breaks exact ties by (score, function ID) as
// repair does. It serves the pairing step too: scorer reads a
// function's effective weights, and Remove swap-deletes an exhausted
// function from the blocks.
type blockSource struct {
	dims   int
	blocks *score.FuncBlocks
	eff    map[uint64]score.Scorer
	runs   int64
}

func newBlockSource(st *solveState) (bestSource, pairLists, error) {
	b := &blockSource{
		dims:   st.p.Dims,
		blocks: score.NewFuncBlocks(st.p.Dims),
		eff:    make(map[uint64]score.Scorer, len(st.p.Functions)),
	}
	for _, f := range st.p.Functions {
		w := f.Effective()
		b.eff[f.ID] = score.Scorer{Fam: f.Fam, W: w}
		b.blocks.Add(f.ID, f.Fam, w)
	}
	return b, b, nil
}

func (b *blockSource) best(sky []rtree.Item) ([]bestFunc, error) {
	out := make([]bestFunc, len(sky))
	for i, o := range sky {
		fid, s, ok := b.blocks.Best(o.Point, o.ID)
		b.runs++
		if !ok {
			return nil, nil
		}
		out[i] = bestFunc{fid: fid, score: s}
	}
	return out, nil
}

func (b *blockSource) scorer(fid uint64) (score.Scorer, error) {
	sc, ok := b.eff[fid]
	if !ok {
		return sc, fmt.Errorf("assign: internal error: best function %d is not live", fid)
	}
	return sc, nil
}

// Remove takes an exhausted function out of the blocks.
func (b *blockSource) Remove(fid uint64) error {
	b.blocks.Remove(fid)
	delete(b.eff, fid)
	return nil
}

// drop is a no-op: the pass keeps no per-object state.
func (b *blockSource) drop(uint64) {}

// memory charges the live functions' weights and IDs.
func (b *blockSource) memory([]rtree.Item) int64 {
	return int64(b.blocks.Len()*(b.dims+1)) * 8
}

// count sets the searches: one pass per skyline object and loop.
func (b *blockSource) count(s *metrics.Stats) { s.TopKRuns = b.runs }
