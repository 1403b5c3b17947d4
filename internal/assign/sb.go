package assign

import (
	"fairassign/internal/metrics"
	"fairassign/internal/rtree"
	"fairassign/internal/ta"
)

// skylineDriver abstracts the two maintenance strategies (UpdateSkyline
// and DeltaSky) behind the SB loop.
type skylineDriver interface {
	Skyline() []rtree.Item
	Remove(ids ...uint64) error
	Size() int
}

// sbMode selects the SB variant of Figure 8.
type sbMode int

const (
	modeOptimized sbMode = iota // Algorithm 3: resume + multi-pair + UpdateSkyline
	modeBasic                   // Algorithm 1 + UpdateSkyline, fresh TA, one pair/loop
	modeDeltaSky                // Algorithm 1 + DeltaSky, fresh TA, one pair/loop
)

// SB runs the fully optimized skyline-based stable assignment
// (Algorithm 3): I/O-optimal incremental skyline maintenance, resumable
// Ω-bounded TA search per skyline object, and emission of every mutual
// best pair in each loop.
func SB(p *Problem, cfg Config) (*Result, error) {
	return runSkylineBased(p, cfg, modeOptimized)
}

// SBBasic runs Algorithm 1 with the UpdateSkyline module but none of the
// Section 5.1/5.3 CPU optimizations ("SB-UpdateSkyline" in Figure 8).
func SBBasic(p *Problem, cfg Config) (*Result, error) {
	return runSkylineBased(p, cfg, modeBasic)
}

// SBDeltaSky runs Algorithm 1 with DeltaSky skyline maintenance
// ("SB-DeltaSky" in Figure 8).
func SBDeltaSky(p *Problem, cfg Config) (*Result, error) {
	return runSkylineBased(p, cfg, modeDeltaSky)
}

func runSkylineBased(p *Problem, cfg Config, mode sbMode) (*Result, error) {
	st, err := newSolveState(p, cfg)
	if err != nil {
		return nil, err
	}
	defer st.release()
	return st.runSB(mode)
}

// runSB executes the skyline-based loop on the shared state. On return
// the state reflects the completed matching: the capacity tables hold
// the remaining units, the TA lists have assigned functions tombstoned,
// and the maintainer (non-DeltaSky modes) holds the skyline of the
// objects that still have capacity — which is exactly the availability
// frontier the incremental Workspace continues from.
func (st *solveState) runSB(mode sbMode) (*Result, error) {
	p, cfg := st.p, st.cfg
	res := &Result{}
	var timer metrics.Timer
	timer.Start()

	if err := st.ensureLists(); err != nil {
		return nil, err
	}
	lists := st.lists
	var driver skylineDriver
	var maintReads *int64
	switch mode {
	case modeDeltaSky:
		d, err := st.buildDeltaSky()
		if err != nil {
			return nil, err
		}
		driver, maintReads = d, &d.NodeReads
	default:
		m, err := st.buildMaintainer()
		if err != nil {
			return nil, err
		}
		driver, maintReads = m, &m.NodeReads
	}

	st.buildCaps()
	searches := newTASearches(lists, mode, len(p.Functions), cfg.omegaFor(len(p.Functions)))
	defer searches.releaseAll()
	step := pairStep{lists: memLists{lists}, sky: driver, funcCaps: st.funcCaps, objCaps: st.objCaps,
		onePair: mode != modeOptimized, drop: searches.drop}

	for st.funcCaps.units > 0 && st.objCaps.units > 0 && driver.Size() > 0 {
		res.Stats.Loops++
		sky := driver.Skyline()
		sortItemsByID(sky)
		// Lines 9–11: the best live function of every skyline object.
		best := searches.bestFunctions(sky)
		res.Stats.TopKRuns += int64(len(sky))
		if !allFound(best) {
			break
		}
		// Lines 12–17: emit the mutual best pairs.
		var err error
		if res.Pairs, err = step.pair(res.Pairs, sky, best); err != nil {
			return nil, err
		}

		// Memory metric: maintainer structures plus live TA states.
		if cur := st.mem.Current + searches.footprint(); cur > res.Stats.PeakMem {
			res.Stats.PeakMem = cur
		}
	}

	timer.Stop()
	res.Stats.CPUTime = timer.Total
	res.Stats.IO = *st.store.IO()
	res.Stats.Pairs = int64(len(res.Pairs))
	res.Stats.TASorted = lists.Counters.SortedAccesses
	res.Stats.TARandom = lists.Counters.RandomAccesses
	res.Stats.NodeReads = *maintReads
	if st.mem.Peak > res.Stats.PeakMem {
		res.Stats.PeakMem = st.mem.Peak
	}
	return res, nil
}

// taSearches answers Lines 9–11 with in-memory TA for SB, SBBasic,
// SBDeltaSky and Progressive. In optimized mode every skyline object
// keeps a resumable Ω-bounded search across loops; otherwise each loop
// runs a fresh unbounded search per object (Algorithm 1).
type taSearches struct {
	lists    *ta.Lists
	searches map[uint64]*ta.Search
	omega    int
	numFuncs int
	resume   bool
}

func newTASearches(lists *ta.Lists, mode sbMode, numFuncs, omega int) *taSearches {
	return &taSearches{
		lists:    lists,
		searches: make(map[uint64]*ta.Search),
		omega:    omega,
		numFuncs: numFuncs,
		resume:   mode == modeOptimized,
	}
}

// bestFunctions returns the best live function of every skyline object,
// in skyline order.
func (c *taSearches) bestFunctions(sky []rtree.Item) []bestFunc {
	out := make([]bestFunc, len(sky))
	for i, o := range sky {
		var fid uint64
		var score float64
		var ok bool
		if c.resume {
			s := c.searches[o.ID]
			if s == nil {
				s = ta.NewSearch(c.lists, o.Point, c.omega)
				c.searches[o.ID] = s
			}
			fid, score, ok = s.Best()
		} else {
			// A fresh search whose buffers go straight back to the pool,
			// so the per-loop cost is near allocation-free.
			s := ta.NewSearch(c.lists, o.Point, c.numFuncs)
			fid, score, ok = s.Best()
			s.Release()
		}
		out[i] = bestFunc{fid: fid, score: score, ok: ok}
	}
	return out
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

// footprint sums the live resumable searches for the memory metric.
func (c *taSearches) footprint() int64 {
	var n int64
	for _, s := range c.searches {
		n += s.Footprint()
	}
	return n
}
