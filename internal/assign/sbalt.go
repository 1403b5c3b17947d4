package assign

import (
	"fairassign/internal/metrics"
	"fairassign/internal/pagestore"
	"fairassign/internal/ta"
)

// SBAlt is the Section 7.6 variant for the setting where F does not fit
// in memory: the D coefficient lists are materialized on disk and, at
// every loop, the best functions for all current skyline objects are
// found in a single block-wise batch pass over the lists. No per-object
// TA state is kept (searches are not resumed), trading a little CPU for
// reading each list page at most once per loop regardless of |Osky| —
// the large I/O saving of Figure 17.
func SBAlt(p *Problem, cfg Config) (*Result, error) {
	st, err := newSolveState(p, cfg)
	if err != nil {
		return nil, err
	}
	defer st.release()

	// Materialize the coefficient lists on their own simulated disk; the
	// build is setup cost (like index construction) and is not charged.
	fstore, fpool, err := cfg.newFuncStore()
	if err != nil {
		return nil, err
	}
	defer fstore.Close()
	dl, err := ta.BuildDiskLists(fpool, taFuncs(p.Functions), p.Dims)
	if err != nil {
		return nil, err
	}
	if err := fpool.Resize(pagestore.CapacityFromFraction(dl.NumPages(), cfg.funcBufferFrac())); err != nil {
		return nil, err
	}
	if err := fpool.Clear(); err != nil {
		return nil, err
	}
	fstore.IO().Reset()

	res := &Result{}
	var timer metrics.Timer
	timer.Start()

	maint, err := st.buildMaintainer()
	if err != nil {
		return nil, err
	}
	st.buildCaps()

	// An object's cached best function stays valid until that function is
	// assigned away (only removals ever happen), so each loop batch-
	// searches only the objects whose cache was invalidated — the paper's
	// "skip this object in the following iterations".
	bestCache := make(map[uint64]ta.BatchResult)
	step := pairStep{lists: diskLists{dl}, sky: maint, funcCaps: st.funcCaps, objCaps: st.objCaps,
		drop: func(oid uint64) { delete(bestCache, oid) }}

	for st.funcCaps.units > 0 && st.objCaps.units > 0 && maint.Size() > 0 {
		res.Stats.Loops++
		sky := maint.Skyline()
		sortItemsByID(sky)

		var batch []ta.BatchObject
		for _, o := range sky {
			if r, ok := bestCache[o.ID]; ok && r.OK && !dl.Removed(r.FuncID) {
				continue
			}
			batch = append(batch, ta.BatchObject{ID: o.ID, Point: o.Point})
		}
		if len(batch) > 0 {
			found, err := dl.BatchSearch(batch)
			if err != nil {
				return nil, err
			}
			res.Stats.TopKRuns++
			for id, r := range found {
				bestCache[id] = r
			}
		}

		best := make([]bestFunc, len(sky))
		for i, o := range sky {
			r := bestCache[o.ID]
			best[i] = bestFunc{fid: r.FuncID, score: r.Score, ok: r.OK}
		}
		if !allFound(best) {
			break
		}
		if res.Pairs, err = step.pair(res.Pairs, sky, best); err != nil {
			return nil, err
		}
		if cur := st.mem.Current + int64(len(sky))*48; cur > res.Stats.PeakMem {
			res.Stats.PeakMem = cur
		}
	}

	timer.Stop()
	res.Stats.CPUTime = timer.Total
	res.Stats.IO = *st.store.IO()
	res.Stats.IO.Add(*fstore.IO())
	res.Stats.Pairs = int64(len(res.Pairs))
	res.Stats.TASorted = dl.Counters.SortedAccesses
	res.Stats.TARandom = dl.Counters.RandomAccesses
	res.Stats.NodeReads = maint.NodeReads
	if st.mem.Peak > res.Stats.PeakMem {
		res.Stats.PeakMem = st.mem.Peak
	}
	return res, nil
}
