package assign

import (
	"fairassign/internal/metrics"
	"fairassign/internal/rtree"
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
	dl, err := st.buildDiskLists()
	if err != nil {
		return nil, err
	}
	return st.runSB(sbVariant{source: func(*solveState) (bestSource, pairLists, error) {
		return &batchSource{dl: dl, cache: make(map[uint64]ta.BatchResult)}, diskLists{dl}, nil
	}})
}

// batchSource answers Lines 9–11 of SBAlt with one batch pass per loop
// over the disk-resident lists. An object's cached best function stays
// valid until that function is assigned away (only removals ever
// happen), so each pass searches only the objects whose cache was
// invalidated — the paper's "skip this object in the following
// iterations".
type batchSource struct {
	dl     *ta.DiskLists
	cache  map[uint64]ta.BatchResult
	passes int64
}

func (b *batchSource) best(sky []rtree.Item) ([]bestFunc, error) {
	var batch []ta.BatchObject
	for _, o := range sky {
		if r, ok := b.cache[o.ID]; ok && r.OK && !b.dl.Removed(r.FuncID) {
			continue
		}
		batch = append(batch, ta.BatchObject{ID: o.ID, Point: o.Point})
	}
	if len(batch) > 0 {
		found, err := b.dl.BatchSearch(batch)
		if err != nil {
			return nil, err
		}
		b.passes++
		for id, r := range found {
			b.cache[id] = r
		}
	}
	best := make([]bestFunc, len(sky))
	for i, o := range sky {
		r := b.cache[o.ID]
		if !r.OK {
			return nil, nil
		}
		best[i] = bestFunc{fid: r.FuncID, score: r.Score}
	}
	return best, nil
}

func (b *batchSource) drop(oid uint64) { delete(b.cache, oid) }

// memory charges one cached result per skyline object.
func (b *batchSource) memory(sky []rtree.Item) int64 { return int64(len(sky)) * 48 }

func (b *batchSource) count(s *metrics.Stats) {
	s.TopKRuns = b.passes
	s.TASorted = b.dl.Counters.SortedAccesses
	s.TARandom = b.dl.Counters.RandomAccesses
}
