package assign

import (
	"math"
	"sort"

	"fairassign/internal/geom"
	"fairassign/internal/metrics"
	"fairassign/internal/pagestore"
	"fairassign/internal/rtree"
	"fairassign/internal/score"
	"fairassign/internal/topk"
)

// Chain adapts the Chain spatial-assignment algorithm (Wong et al.,
// Section 2.1) to the preference-query setting, exactly as the paper's
// experiments configure it: the functions are indexed by their weight
// vectors in a main-memory R-tree, and the nearest-neighbor module is
// replaced by BRS top-1 search. Starting from an arbitrary function, the
// algorithm follows best-of-best links — f's best object o, o's best
// function f' — outputting (f, o) when the pair is mutual (Property 2)
// and otherwise enqueueing the witness and continuing. Every top-1 probe
// is a fresh search, which is why Chain issues even more searches than
// Brute Force (Figure 9).
func Chain(p *Problem, cfg Config) (*Result, error) {
	st, err := newSolveState(p, cfg)
	if err != nil {
		return nil, err
	}
	defer st.release()

	// Main-memory R-tree over function weight vectors. Its page accesses
	// are not charged to the I/O metric (it lives in RAM), but building
	// and probing it is part of the CPU cost, as in the paper.
	fstore, fpool, err := cfg.newFuncStore()
	if err != nil {
		return nil, err
	}
	defer fstore.Close()
	fx, err := buildFuncIndex(p, fpool, cfg)
	if err != nil {
		return nil, err
	}

	// The function R-tree is a main-memory structure: its size is part of
	// Chain's memory footprint (the paper's memory metric).
	ftreeBytes := int64(fx.ftree.NumPages()) * int64(fstore.PageSize())
	res, err := chainLoop(p, st, fx, ftreeBytes)
	if err != nil {
		return nil, err
	}
	res.Stats.IO = *st.store.IO()
	return res, nil
}

// funcIndex is the reverse-search structure over a function set: a
// weight-space R-tree holding the LINEAR functions — for which "best
// function for object o" is itself a BRS top-1 with o as the weight
// vector, by symmetry of the dot product — plus an exhaustively scanned
// side list of the non-linear functions, whose scores are not bilinear
// and so cannot ride the R-tree bound. Purely linear populations (the
// paper's setting) put everything in the tree and scan nothing.
type funcIndex struct {
	ftree   *rtree.Tree
	scorers map[uint64]score.Scorer // every function's effective scorer
	nonlin  *score.FuncBlocks       // non-linear functions, columnar per family
}

// buildFuncIndex bulk-loads the linear weight tree and collects the
// non-linear functions into per-family columnar blocks.
func buildFuncIndex(p *Problem, fpool *pagestore.BufferPool, cfg Config) (*funcIndex, error) {
	fx := &funcIndex{
		scorers: make(map[uint64]score.Scorer, len(p.Functions)),
		nonlin:  score.NewFuncBlocks(p.Dims),
	}
	var fitems []rtree.Item
	for _, f := range p.Functions {
		sc := f.Scorer()
		fx.scorers[f.ID] = sc
		if sc.IsLinear() {
			fitems = append(fitems, rtree.Item{ID: f.ID, Point: sc.W})
		} else {
			fx.nonlin.Add(f.ID, sc.Fam, sc.W)
		}
	}
	ftree, err := rtree.BulkLoad(fpool, p.Dims, fitems, treeFill)
	if err != nil {
		return nil, err
	}
	fx.ftree = ftree
	return fx, nil
}

// bestFunc answers the reverse top-1 — the live function maximizing
// f(o) — combining the linear tree search, which skips the exhausted
// functions, with the batched kernel scan over the non-linear blocks,
// from which exhausted functions are removed (emitChainPair). Ties
// break to the lower function ID, matching the BRS enumeration order;
// FuncBlocks.Best follows the same (score, lowest-ID) total order with
// bit-identical scores, so the merged winner equals the former
// per-function loop.
func (fx *funcIndex) bestFunc(opoint geom.Point, skip func(uint64) bool) (fid uint64, s float64, ok bool, err error) {
	it, s, ok, err := topk.Top1(fx.ftree, opoint, skip)
	if err != nil {
		return 0, 0, false, err
	}
	fid = it.ID
	if !ok {
		s = math.Inf(-1)
	}
	// Chain sets no floors, so the object ID Best takes goes unused.
	if bid, bs, bok := fx.nonlin.Best(opoint, 0); bok {
		if !ok || bs > s || (bs == s && bid < fid) {
			fid, s, ok = bid, bs, true
		}
	}
	return fid, s, ok, nil
}

// chainLoop is the Chain engine, shared by the in-memory (Chain) and
// disk-resident-F (ChainDiskFuncs) configurations; the callers decide
// which stores contribute to the reported I/O. memBase is charged as the
// resident size of the function index (zero when it lives on disk).
func chainLoop(p *Problem, st *solveState, fx *funcIndex, memBase int64) (*Result, error) {
	res := &Result{}
	var timer metrics.Timer
	timer.Start()

	opoints := make(map[uint64][]float64, len(p.Objects))
	for _, o := range p.Objects {
		opoints[o.ID] = o.Point
	}

	funcCaps := newFuncCaps(p.Functions)
	objCaps := newObjectCaps(p.Objects)
	deadFunc := make(map[uint64]bool)
	deadObj := make(map[uint64]bool)
	skipFunc := func(id uint64) bool { return deadFunc[id] }
	skipObj := func(id uint64) bool { return deadObj[id] }

	// Deterministic seed order: ascending function ID.
	seeds := make([]uint64, len(p.Functions))
	for i, f := range p.Functions {
		seeds[i] = f.ID
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	seedPos := 0

	type queued struct {
		isFunc bool
		id     uint64
	}
	var queue []queued
	trackPeak := func() {
		if cur := memBase + int64(len(queue))*16; cur > res.Stats.PeakMem {
			res.Stats.PeakMem = cur
		}
	}
	trackPeak()

	for funcCaps.units > 0 && objCaps.units > 0 {
		// Pick the next element to test: queue head, else a fresh seed.
		var x queued
		if len(queue) > 0 {
			x, queue = queue[0], queue[1:]
		} else {
			for seedPos < len(seeds) && deadFunc[seeds[seedPos]] {
				seedPos++
			}
			if seedPos >= len(seeds) {
				break
			}
			x = queued{isFunc: true, id: seeds[seedPos]}
		}
		if (x.isFunc && deadFunc[x.id]) || (!x.isFunc && deadObj[x.id]) {
			continue
		}
		res.Stats.Loops++

		if x.isFunc {
			f := x.id
			o, sc, ok, err := topk.Top1Scorer(st.tree, fx.scorers[f], skipObj)
			res.Stats.TopKRuns++
			if err != nil {
				return nil, err
			}
			if !ok {
				break // no objects left at all
			}
			f2, _, ok, err := fx.bestFunc(o.Point, skipFunc)
			res.Stats.TopKRuns++
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			if f2 == f {
				emitChainPair(res, fx, funcCaps, objCaps, deadFunc, deadObj, f, o.ID, sc)
			} else {
				queue = append(queue, queued{isFunc: false, id: o.ID})
			}
		} else {
			oid := x.id
			opoint := opoints[oid]
			f, _, ok, err := fx.bestFunc(opoint, skipFunc)
			res.Stats.TopKRuns++
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			o2, sc, ok, err := topk.Top1Scorer(st.tree, fx.scorers[f], skipObj)
			res.Stats.TopKRuns++
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			if o2.ID == oid {
				emitChainPair(res, fx, funcCaps, objCaps, deadFunc, deadObj, f, oid, sc)
			} else {
				queue = append(queue, queued{isFunc: true, id: f})
			}
		}
		trackPeak()
	}

	timer.Stop()
	res.Stats.CPUTime = timer.Total
	res.Stats.Pairs = int64(len(res.Pairs))
	return res, nil
}

// emitChainPair outputs a mutual best pair. An exhausted function is
// marked dead for the tree search and leaves the non-linear blocks.
func emitChainPair(res *Result, fx *funcIndex, funcCaps, objCaps *capTable, deadFunc, deadObj map[uint64]bool, fid, oid uint64, score float64) {
	res.Pairs = append(res.Pairs, Pair{FuncID: fid, ObjectID: oid, Score: score})
	if funcCaps.consume(fid) {
		deadFunc[fid] = true
		fx.nonlin.Remove(fid)
	}
	if objCaps.consume(oid) {
		deadObj[oid] = true
	}
}
