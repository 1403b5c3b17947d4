package assign

import (
	"errors"
	"slices"
	"sort"

	"fairassign/internal/metrics"
	"fairassign/internal/rtree"
	"fairassign/internal/score"
	"fairassign/internal/skyline"
)

// SBTwoSkylines is the prioritized variant of Section 6.2: alongside the
// object skyline, a skyline is maintained over the functions' effective
// coefficient vectors (α'_i = α_i·γ). A function dominated coefficient-
// wise by another of the SAME scoring family can never win any object
// (every family is monotone in its weights), so the best pairs always
// lie in Fsky × Osky where Fsky is the union of per-family function
// skylines — one skyline per distinct score.Family present, collapsing
// to the single skyline of the paper in the all-linear setting. With
// γ-scaled weights Fsky is small, and best pairs are found by
// exhaustive scan of the two (small) sets — faster than TA whose
// threshold goes loose for mixed priorities, and cheaper in memory (no
// TA states are kept), matching Figure 15.
func SBTwoSkylines(p *Problem, cfg Config) (*Result, error) {
	st, err := newSolveState(p, cfg)
	if err != nil {
		return nil, err
	}
	defer st.release()
	res := &Result{}
	var timer metrics.Timer
	timer.Start()

	maint, err := st.buildMaintainer()
	if err != nil {
		return nil, err
	}
	st.buildCaps()
	funcCaps, objCaps := st.funcCaps, st.objCaps

	// Live functions as weight-space points; Fsky recomputed with SFS
	// whenever a skyline function is assigned away (deletions are the
	// only updates, but removing a skyline function can surface functions
	// it was dominating).
	weights := make(map[uint64][]float64, len(p.Functions))
	fams := make(map[uint64]score.Family, len(p.Functions))
	liveFuncs := make([]rtree.Item, 0, len(p.Functions))
	for _, f := range p.Functions {
		w := f.Effective()
		weights[f.ID] = w
		fams[f.ID] = f.Fam
		liveFuncs = append(liveFuncs, rtree.Item{ID: f.ID, Point: w})
	}
	fsky := functionSkylines(liveFuncs, fams)
	fskyStale := false

	// Columnar mirrors of the two skylines, rebuilt only when their row
	// sets change: fblocks holds Fsky in per-family weight columns for
	// the batched reverse scan; skyCols holds Osky in per-dimension
	// columns for the batched forward scan. Both Best kernels are
	// bit-identical to the row-wise Eval/Score with the same (score,
	// lowest-ID) selection.
	fblocks := funcBlocksOf(p.Dims, fsky, fams)
	skyCols := skyline.NewColSet(p.Dims)

	for funcCaps.units > 0 && objCaps.units > 0 && maint.Size() > 0 && len(liveFuncs) > 0 {
		res.Stats.Loops++
		if fskyStale {
			fsky = functionSkylines(liveFuncs, fams)
			fblocks = funcBlocksOf(p.Dims, fsky, fams)
			fskyStale = false
		}
		sky := maint.Skyline()
		sortItemsByID(sky)
		sortItemsByID(fsky)
		skyCols.Reset(p.Dims)
		for _, o := range sky {
			skyCols.Append(o.ID, o.Point)
		}

		// Best function in Fsky for every skyline object, and the
		// reverse, by batched kernel scans of the (small) cross product.
		byObj := make([]bestFunc, len(sky))
		for i, o := range sky {
			fid, s, ok := fblocks.Best(o.Point, o.ID)
			byObj[i] = bestFunc{fid: fid, score: s, ok: ok}
		}
		oBest := make(map[uint64]bestFunc, len(sky))
		for i, o := range sky {
			if !byObj[i].ok {
				break
			}
			oBest[o.ID] = byObj[i]
		}
		fids := make([]uint64, 0, len(sky))
		seen := make(map[uint64]bool, len(sky))
		for _, bf := range byObj {
			if bf.ok && !seen[bf.fid] {
				seen[bf.fid] = true
				fids = append(fids, bf.fid)
			}
		}
		slices.Sort(fids)
		byFunc := make([]bestObj, len(fids))
		for i, fid := range fids {
			sc := score.Scorer{Fam: fams[fid], W: weights[fid]}
			if j, s, ok := skyCols.Best(sc); ok {
				byFunc[i] = bestObj{oid: skyCols.ID(j), score: s}
			}
		}
		fBest := make(map[uint64]bestObj, len(fids))
		for i, fid := range fids {
			fBest[fid] = byFunc[i]
		}

		var removedObjs []uint64
		removedFuncs := make(map[uint64]bool)
		emitted := 0
		for _, fid := range fids {
			bo := fBest[fid]
			if oBest[bo.oid].fid != fid {
				continue
			}
			res.Pairs = append(res.Pairs, Pair{FuncID: fid, ObjectID: bo.oid, Score: bo.score})
			emitted++
			if funcCaps.consume(fid) {
				removedFuncs[fid] = true
			}
			if objCaps.consume(bo.oid) {
				removedObjs = append(removedObjs, bo.oid)
			}
		}
		if emitted == 0 {
			return nil, errors.New("assign: internal error: no stable pair emitted in a loop")
		}
		if len(removedFuncs) > 0 {
			keep := liveFuncs[:0]
			for _, f := range liveFuncs {
				if !removedFuncs[f.ID] {
					keep = append(keep, f)
				}
			}
			liveFuncs = keep
			fskyStale = true
		}
		if len(removedObjs) > 0 {
			if err := maint.Remove(removedObjs...); err != nil {
				return nil, err
			}
		}
		if cur := st.mem.Current + int64(len(fsky)+len(sky))*48; cur > res.Stats.PeakMem {
			res.Stats.PeakMem = cur
		}
	}

	timer.Stop()
	res.Stats.CPUTime = timer.Total
	res.Stats.IO = *st.store.IO()
	res.Stats.Pairs = int64(len(res.Pairs))
	res.Stats.NodeReads = maint.NodeReads
	if st.mem.Peak > res.Stats.PeakMem {
		res.Stats.PeakMem = st.mem.Peak
	}
	return res, nil
}

// funcBlocksOf packs a function item set into per-family columnar
// blocks for the batched reverse scan.
func funcBlocksOf(dims int, items []rtree.Item, fams map[uint64]score.Family) *score.FuncBlocks {
	fb := score.NewFuncBlocks(dims)
	for _, f := range items {
		fb.Add(f.ID, fams[f.ID], f.Point)
	}
	return fb
}

// functionSkylines computes the candidate function set of the two-
// skyline loop: one weight-space skyline per distinct scoring family,
// concatenated. Weight dominance only transfers to score dominance
// within one family, so the grouping is what keeps the pruning sound
// for mixed populations; a single (linear) family degenerates to one
// SFS pass over all functions, exactly the paper's structure. Family
// groups are visited in a deterministic order, though the scans over
// the returned set break ties by ID and do not depend on it.
func functionSkylines(liveFuncs []rtree.Item, fams map[uint64]score.Family) []rtree.Item {
	groups := make(map[score.Family][]rtree.Item)
	for _, f := range liveFuncs {
		fam := fams[f.ID]
		groups[fam] = append(groups[fam], f)
	}
	if len(groups) == 1 {
		for _, g := range groups {
			return skyline.SFS(g)
		}
	}
	keys := make([]score.Family, 0, len(groups))
	for fam := range groups {
		keys = append(keys, fam)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Kind != keys[j].Kind {
			return keys[i].Kind < keys[j].Kind
		}
		return keys[i].P < keys[j].P
	})
	var out []rtree.Item
	for _, fam := range keys {
		out = append(out, skyline.SFS(groups[fam])...)
	}
	return out
}
