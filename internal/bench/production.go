package bench

import (
	"fmt"
	"hash/fnv"
	"math"

	"fairassign/internal/assign"
	"fairassign/internal/datagen"
	"fairassign/internal/pagestore"
	"fairassign/internal/rtree"
	"fairassign/internal/score"
	"fairassign/internal/simd"
	"fairassign/internal/skyline"
)

// prodFuncsFor bounds the function count at production scale: n/20
// would mean 50k functions at n=10⁶, which measures data generation
// more than search; 2000 is plenty to saturate the TA lists and the
// kernel blocks.
func prodFuncsFor(n int) int { return min(funcsFor(n), 2000) }

// storeChecksum flushes the pool and hashes every page image in ID
// order (freed IDs contribute a marker), plus the physical I/O
// counters — the digest two builds must share to count as
// byte-identical.
func storeChecksum(pool *pagestore.BufferPool, store *pagestore.MemStore) (uint64, error) {
	if err := pool.Flush(); err != nil {
		return 0, err
	}
	h := fnv.New64a()
	buf := make([]byte, store.PageSize())
	for id := 0; id < store.NumPages()+8; id++ {
		if err := store.ReadPage(pagestore.PageID(id), buf); err != nil {
			h.Write([]byte{0xff})
			continue
		}
		h.Write(buf)
	}
	io := store.IO().Snapshot()
	fmt.Fprintf(h, "%d/%d", io.PhysicalReads, io.PhysicalWrites)
	return h.Sum64(), nil
}

// fold mixes words into an FNV-1a style digest. Each step is a
// bijection of the running digest, so two sequences that differ in a
// single word always digest differently.
func fold(h uint64, words ...uint64) uint64 {
	for _, w := range words {
		h = (h ^ w) * 1099511628211
	}
	return h
}

// foldFloats digests a float slice bit for bit.
func foldFloats(xs []float64) uint64 {
	var h uint64
	for _, x := range xs {
		h = fold(h, math.Float64bits(x))
	}
	return h
}

// duelOp is one side of a duel: one operation per call. With check set
// it returns a digest of its output, which the duel compares between the
// two sides; timed calls pass false and may return 0.
type duelOp func(check bool) (uint64, error)

// duel races fast against its twin, the definitional, sequential or
// portable path it replaces. Each side first runs checks times with its
// digests folded (so per-probe sides cover every probe); the row's gate
// is the bit-equality of the two folds. Then both are sampled in
// alternating windows.
func (o Options) duel(name string, checks int, detail string, fast, twin duelOp) (Row, error) {
	var digest [2]uint64
	for s, op := range []duelOp{twin, fast} {
		for range checks {
			d, err := op(true)
			if err != nil {
				return Row{}, fmt.Errorf("%s: %w", name, err)
			}
			digest[s] = fold(digest[s], d)
		}
	}
	timed := func(op duelOp) func() error {
		return func() error { _, err := op(false); return err }
	}
	w, err := sample(o.window(), samples, nil, timed(twin), timed(fast))
	if err != nil {
		return Row{}, fmt.Errorf("%s: %w", name, err)
	}
	return Row{Name: name, Identical: digest[0] == digest[1], Detail: detail,
		Metrics: map[string]Stat{
			"ns_per_op":      per(w[1], nsPerOp),
			"twin_ns_per_op": per(w[0], nsPerOp),
			"speedup_x":      speedup(w[0], w[1]),
		}}, nil
}

// withSIMD runs op with the vector kernels dispatched (on) or forced
// onto the portable fallback. The switch flips only when the other side
// of the duel left it the other way, so timed calls pay one atomic load.
func withSIMD(on bool, op duelOp) duelOp {
	return func(check bool) (uint64, error) {
		if simd.Enabled() != on {
			simd.SetEnabled(on)
		}
		return op(check)
	}
}

// probeOp returns an op that answers one of n probes per call, in
// turn; answer returns the digest of probe i's answer.
func probeOp(n int, answer func(i int) uint64) duelOp {
	i := 0
	return func(bool) (uint64, error) {
		d := answer(i % n)
		i++
		return d, nil
	}
}

// runProduction measures the production-scale matrix at n = opts.ProdSize:
// the STR bulk-load (parallel against sequential, page bytes
// checksummed), a full SB solve, per-family top-k over the warm index,
// and the batched and vector kernels racing their row-wise and portable
// twins on the full dataset.
func runProduction(o Options) ([]Row, error) {
	n, dims := o.ProdSize, 2
	objs := datagen.Objects(datagen.AntiCorrelated, n, dims, o.Seed)
	items := itemsOf(objs)
	funcs := datagen.Functions(prodFuncsFor(n), dims, o.Seed+3)
	var out []Row
	add := func(r Row, err error) error {
		if err != nil {
			return err
		}
		r.Name, r.N, r.Dims = "prod/"+r.Name, n, dims
		out = append(out, r)
		return nil
	}

	// Bulk-load: on a single-core host the parallel path's goroutine
	// overhead is the regression under test; on multi-core the spread
	// is the speedup.
	build := func(workers int) duelOp {
		return func(check bool) (uint64, error) {
			store := pagestore.NewMemStore(4096)
			pool := pagestore.NewBufferPool(store, 1<<20)
			if _, err := rtree.BulkLoadWorkers(pool, dims, items, 0.9, workers); err != nil || !check {
				return 0, err
			}
			return storeChecksum(pool, store)
		}
	}
	if err := add(o.duel("bulkload", 1, "parallel STR vs sequential, page bytes + physical I/O checksummed",
		build(0), build(1))); err != nil {
		return nil, err
	}

	// Full SB solve: the cold build + solve a serving system pays on a
	// re-solve.
	p := &assign.Problem{Dims: dims, Objects: objs, Functions: funcs}
	pairs := 0
	r, err := o.solo("sb_solve", func() error {
		res, err := assign.SB(p, assign.Config{})
		if err == nil {
			pairs = len(res.Pairs)
		}
		return err
	})
	r.Detail = fmt.Sprintf("%d funcs, %d pairs", len(funcs), pairs)
	if err := add(r, err); err != nil {
		return nil, err
	}

	// Per-family top-10 over the warm production index.
	tree, _, err := warmTree(objs, dims)
	if err != nil {
		return nil, err
	}
	for _, fam := range scorerBenchFamilies {
		_, scorers := familyFuncs(funcs, fam, o.Seed)
		if err := add(o.solo("topk_"+fam, topKOp(tree, scorers))); err != nil {
			return nil, err
		}
	}

	// EvalBlock duels: the columnar kernel against a row-wise Eval loop
	// over the full dataset, one family per row. Only families with a
	// columnar kernel race (OWA and the other Lp exponents run the
	// row-wise loop inside EvalBlock); Lp is pinned to p = 2, the
	// exponent its kernel covers.
	cols := make([][]float64, dims)
	for d := range cols {
		cols[d] = make([]float64, n)
		for i, ob := range objs {
			cols[d][i] = ob.Point[d]
		}
	}
	blockOut, rowOut := make([]float64, n), make([]float64, n)
	evalBlock := func(sc score.Scorer, out []float64) duelOp {
		return func(check bool) (uint64, error) {
			score.EvalBlock(sc.Fam, sc.W, cols, out)
			if !check {
				return 0, nil
			}
			return foldFloats(out), nil
		}
	}
	for _, fam := range []score.Family{{Kind: score.Linear}, {Kind: score.Chebyshev}, {Kind: score.Lp, P: 2}} {
		f := funcs[0]
		f.Fam = fam
		sc := f.Scorer()
		rowwise := func(check bool) (uint64, error) {
			for i, ob := range objs {
				rowOut[i] = score.Eval(sc.Fam, sc.W, ob.Point)
			}
			if !check {
				return 0, nil
			}
			return foldFloats(rowOut), nil
		}
		if err := add(o.duel("evalblock_"+fam.Kind.String(), 1, fmt.Sprintf("one %d-row scoring pass", n),
			evalBlock(sc, blockOut), rowwise)); err != nil {
			return nil, err
		}
	}

	// Reverse-scan duels: FuncBlocks.Best against the row-wise loop over
	// the non-linear function population (the bestTaker/bestFunc hot
	// path), and against itself on the portable kernels.
	probes := objs[:min(len(objs), 512)]
	blocks := func(fam string) (*score.FuncBlocks, []assign.Function, []score.Scorer) {
		ffuncs, scorers := familyFuncs(funcs, fam, o.Seed)
		fb := score.NewFuncBlocks(dims)
		for i, f := range ffuncs {
			fb.Add(f.ID, scorers[i].Fam, scorers[i].W)
		}
		return fb, ffuncs, scorers
	}
	blockBest := func(fb *score.FuncBlocks) duelOp {
		return probeOp(len(probes), func(i int) uint64 {
			id, s, ok := fb.Best(probes[i].Point, probes[i].ID)
			return fold(0, id, math.Float64bits(s), boolWord(ok))
		})
	}
	for _, fam := range []string{"owa", "minimax", "chebyshev", "lp"} {
		fb, ffuncs, scorers := blocks(fam)
		rowBest := probeOp(len(probes), func(i int) uint64 {
			var id uint64
			var best float64
			ok := false
			for j, f := range ffuncs {
				s := score.Eval(scorers[j].Fam, scorers[j].W, probes[i].Point)
				if !ok || s > best || (s == best && f.ID < id) {
					id, best, ok = f.ID, s, true
				}
			}
			return fold(0, id, math.Float64bits(best), boolWord(ok))
		})
		if err := add(o.duel("reverse_scan_"+fam, len(probes),
			fmt.Sprintf("best of %d functions per probe", len(ffuncs)), blockBest(fb), rowBest)); err != nil {
			return nil, err
		}
	}

	// Dominance duel: the blocked ColSet kernel against the row-wise
	// Dominates loop, on the workload shape the skyline hot loops pay
	// for. The member set is the dataset's skyline and the probes are
	// skyline points, which nothing dominates, so both paths scan the
	// full set (the dominated-early case exits after a handful of
	// comparisons either way and is not where time goes).
	sky := skyline.SFS(items)
	cs := skyline.NewColSet(dims)
	for _, it := range sky {
		cs.Append(it.ID, it.Point)
	}
	domProbes := sky[:min(len(sky), 512)]
	anyDominates := func(i int) uint64 { return boolWord(cs.AnyDominates(domProbes[i].Point)) }
	rowAny := probeOp(len(domProbes), func(i int) uint64 {
		for _, it := range sky {
			if it.Point.Dominates(domProbes[i].Point) {
				return 1
			}
		}
		return 0
	})
	if err := add(o.duel("dominance", len(domProbes),
		fmt.Sprintf("undominated probes over the %d-point dataset skyline", len(sky)),
		probeOp(len(domProbes), anyDominates), rowAny)); err != nil {
		return nil, err
	}

	// SIMD duels: the same columnar paths with the vector kernels
	// dispatched against forced onto the portable scalar fallback. On
	// hosts with no assembly kernels both sides run the portable code
	// and the speedup reads ~1x; the detail names the dispatched level
	// either way.
	defer simd.SetEnabled(simd.Enabled())
	level := simd.DetectedLevel()
	linSc := funcs[0].Scorer()
	fb, chebFuncs, _ := blocks("chebyshev")
	simdDuels := []struct {
		name, detail string
		checks       int
		vector, port duelOp
	}{
		{"simd_evalblock", fmt.Sprintf("%s vs portable, linear %d-row pass", level, n), 1,
			evalBlock(linSc, blockOut), evalBlock(linSc, rowOut)},
		{"simd_reverse_scan", fmt.Sprintf("%s vs portable, best of %d chebyshev functions", level, len(chebFuncs)),
			len(probes), blockBest(fb), blockBest(fb)},
		{"simd_dominance", fmt.Sprintf("%s vs portable, %d-point skyline filter", level, len(sky)),
			len(domProbes), probeOp(len(domProbes), anyDominates), probeOp(len(domProbes), anyDominates)},
	}
	for _, d := range simdDuels {
		if err := add(o.duel(d.name, d.checks, d.detail, withSIMD(true, d.vector), withSIMD(false, d.port))); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
