package bench

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"fairassign/internal/assign"
	"fairassign/internal/datagen"
	"fairassign/internal/geom"
	"fairassign/internal/pagestore"
	"fairassign/internal/rtree"
	"fairassign/internal/score"
	"fairassign/internal/simd"
	"fairassign/internal/skyline"
	"fairassign/internal/topk"
)

// ProductionCase is one row of the production-scale section: the hot
// paths at serving cardinality (n = 10⁶ by default). Rows come in two
// shapes — duels, where the optimized path races its definitional twin
// measured in the same run (RowwiseNsPerOp, SpeedupX, and Identical
// asserting bit-equal outputs), and plain measurements (solve, top-k)
// where the row is the trajectory point itself.
type ProductionCase struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	Dims int    `json:"dims"`

	NsPerOp    int64 `json:"ns_per_op"`
	Iterations int64 `json:"iterations"`

	// RowwiseNsPerOp is the same workload on the pre-kernel path: the
	// row-wise scan for the batched kernels, the sequential build for
	// the parallel bulk-load. Zero when the row has no twin.
	RowwiseNsPerOp int64   `json:"rowwise_ns_per_op,omitempty"`
	SpeedupX       float64 `json:"speedup_x,omitempty"`
	// Identical asserts the duel's two paths produced bit-identical
	// output (always true for twin-less rows).
	Identical bool   `json:"identical"`
	Detail    string `json:"detail,omitempty"`
}

// prodFuncsFor bounds the function count at production scale: n/20
// would mean 50k functions at n=10⁶, which measures data generation
// more than search; 2000 is plenty to saturate the TA lists and the
// kernel blocks.
func prodFuncsFor(n int) int {
	f := n / 20
	if f < 16 {
		f = 16
	}
	if f > 2000 {
		f = 2000
	}
	return f
}

// measureHeavy times ops too expensive for the warm-up + 3-iteration
// contract of measure: at least one iteration, at most three, stopping
// at the budget. Used for the full builds and solves at n = 10⁶.
func measureHeavy(budget time.Duration, op func() error) (Metrics, error) {
	start := time.Now()
	var iters int64
	for {
		if err := op(); err != nil {
			return Metrics{}, err
		}
		iters++
		if time.Since(start) >= budget || iters >= 3 {
			break
		}
	}
	return Metrics{NsPerOp: time.Since(start).Nanoseconds() / iters, Iterations: iters}, nil
}

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

// runProduction measures the production-scale matrix at n = opts.ProdSize:
// the cold STR bulk-load (sequential vs parallel, byte-compared), a full
// SB solve, per-family top-k over the warm index, and the three batched
// kernels racing their row-wise twins on the full dataset.
func runProduction(opts Options) ([]ProductionCase, error) {
	n, dims := opts.ProdSize, 2
	objs := datagen.Objects(datagen.AntiCorrelated, n, dims, opts.Seed)
	items := make([]rtree.Item, len(objs))
	for i, o := range objs {
		items[i] = rtree.Item{ID: o.ID, Point: o.Point}
	}
	var out []ProductionCase
	row := func(name string, c ProductionCase) {
		c.Name, c.N, c.Dims = "prod/"+name, n, dims
		out = append(out, c)
	}

	// Cold bulk-load: sequential vs all-cores, checksummed. On a
	// single-core host the parallel path's goroutine overhead is the
	// regression under test; on multi-core the spread is the speedup.
	build := func(workers int) (*pagestore.MemStore, *pagestore.BufferPool, error) {
		store := pagestore.NewMemStore(4096)
		pool := pagestore.NewBufferPool(store, 1<<20)
		_, err := rtree.BulkLoadWorkers(pool, dims, items, 0.9, workers)
		return store, pool, err
	}
	var sums [2]uint64
	var timings [2]Metrics
	for i, workers := range []int{1, 0} {
		store, pool, err := build(workers)
		if err != nil {
			return nil, err
		}
		if sums[i], err = storeChecksum(pool, store); err != nil {
			return nil, err
		}
		timings[i], err = measureHeavy(opts.Budget, func() error {
			_, _, err := build(workers)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	row("bulkload", ProductionCase{
		NsPerOp:        timings[1].NsPerOp,
		Iterations:     timings[1].Iterations,
		RowwiseNsPerOp: timings[0].NsPerOp,
		SpeedupX:       speedup(timings[0].NsPerOp, timings[1].NsPerOp),
		Identical:      sums[0] == sums[1],
		Detail:         "parallel STR vs sequential, page bytes + physical I/O checksummed",
	})

	// Full SB solve at production scale (single-shot: the cold build +
	// solve a serving system pays on a re-solve).
	funcs := datagen.Functions(prodFuncsFor(n), dims, opts.Seed+3)
	p := &assign.Problem{Dims: dims, Objects: objs, Functions: funcs}
	var pairs int
	m, err := measureHeavy(opts.Budget, func() error {
		res, err := assign.SB(p, assign.Config{})
		if err != nil {
			return err
		}
		pairs = len(res.Pairs)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("prod/sb_solve: %w", err)
	}
	row("sb_solve", ProductionCase{
		NsPerOp: m.NsPerOp, Iterations: m.Iterations, Identical: true,
		Detail: fmt.Sprintf("%d funcs, %d pairs", len(funcs), pairs),
	})

	// Per-family top-10 over the warm production index.
	env, err := newTreeEnv(n, dims, opts.Seed, true)
	if err != nil {
		return nil, err
	}
	for _, fam := range scorerBenchFamilies {
		ffuncs := funcs
		if fam != "linear" {
			ffuncs = datagen.WithScorerFamilies(funcs, fam, opts.Seed+7)
		}
		scorers := make([]score.Scorer, len(ffuncs))
		for i, f := range ffuncs {
			scorers[i] = f.Scorer()
		}
		i := 0
		m, err := measure(opts.Budget, func() error {
			_, _, err := topk.TopKScorer(env.tree, scorers[i%len(scorers)], 10, nil)
			i++
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("prod/topk_%s: %w", fam, err)
		}
		row("topk_"+fam, ProductionCase{NsPerOp: m.NsPerOp, Iterations: m.Iterations, Identical: true})
	}

	// EvalBlock duels: the columnar kernel vs a row-wise Eval loop over
	// the full n-point dataset, one family per row, outputs bit-compared.
	// Only families with a columnar kernel race (OWA and the other Lp
	// exponents run the row-wise loop inside EvalBlock); Lp is pinned to
	// p = 2, the exponent its kernel covers.
	cols := make([][]float64, dims)
	for d := range cols {
		cols[d] = make([]float64, n)
	}
	for i, o := range objs {
		for d := 0; d < dims; d++ {
			cols[d][i] = o.Point[d]
		}
	}
	blockOut := make([]float64, n)
	rowOut := make([]float64, n)
	for _, fam := range []score.Family{{Kind: score.Linear}, {Kind: score.Chebyshev}, {Kind: score.Lp, P: 2}} {
		f := funcs[0]
		f.Fam = fam
		sc := f.Scorer()
		rowwise := func() error {
			for i, o := range objs {
				rowOut[i] = score.Eval(sc.Fam, sc.W, o.Point)
			}
			return nil
		}
		columnar := func() error {
			score.EvalBlock(sc.Fam, sc.W, cols, blockOut)
			return nil
		}
		if err := rowwise(); err != nil {
			return nil, err
		}
		if err := columnar(); err != nil {
			return nil, err
		}
		identical := bitsEqual(blockOut, rowOut)
		mc, err := measure(opts.Budget, columnar)
		if err != nil {
			return nil, err
		}
		mr, err := measure(opts.Budget, rowwise)
		if err != nil {
			return nil, err
		}
		row("evalblock_"+fam.Kind.String(), ProductionCase{
			NsPerOp: mc.NsPerOp, Iterations: mc.Iterations,
			RowwiseNsPerOp: mr.NsPerOp,
			SpeedupX:       speedup(mr.NsPerOp, mc.NsPerOp),
			Identical:      identical,
			Detail:         fmt.Sprintf("one %d-row scoring pass", n),
		})
	}

	// Reverse-scan duels: FuncBlocks.Best vs the row-wise loop over the
	// non-linear function population — the bestTaker/bestFunc hot path.
	probes := objs
	if len(probes) > 512 {
		probes = probes[:512]
	}
	for _, fam := range []string{"owa", "minimax", "chebyshev", "lp"} {
		ffuncs := datagen.WithScorerFamilies(funcs, fam, opts.Seed+7)
		fb := score.NewFuncBlocks(dims)
		scorers := make([]score.Scorer, len(ffuncs))
		for i, f := range ffuncs {
			scorers[i] = f.Scorer()
			fb.Add(f.ID, scorers[i].Fam, scorers[i].W)
		}
		rowBest := func(pt geom.Point) (uint64, float64, bool) {
			var id uint64
			var best float64
			ok := false
			for i, f := range ffuncs {
				s := score.Eval(scorers[i].Fam, scorers[i].W, pt)
				if !ok || s > best || (s == best && f.ID < id) {
					id, best, ok = f.ID, s, true
				}
			}
			return id, best, ok
		}
		identical := true
		for _, o := range probes {
			bid, bs, _ := fb.Best(o.Point, o.ID)
			rid, rs, _ := rowBest(o.Point)
			if bid != rid || bs != rs {
				identical = false
				break
			}
		}
		i := 0
		mb, err := measure(opts.Budget, func() error {
			fb.Best(probes[i%len(probes)].Point, probes[i%len(probes)].ID)
			i++
			return nil
		})
		if err != nil {
			return nil, err
		}
		i = 0
		mr, err := measure(opts.Budget, func() error {
			rowBest(probes[i%len(probes)].Point)
			i++
			return nil
		})
		if err != nil {
			return nil, err
		}
		row("reverse_scan_"+fam, ProductionCase{
			NsPerOp: mb.NsPerOp, Iterations: mb.Iterations,
			RowwiseNsPerOp: mr.NsPerOp,
			SpeedupX:       speedup(mr.NsPerOp, mb.NsPerOp),
			Identical:      identical,
			Detail:         fmt.Sprintf("best of %d functions per probe", len(ffuncs)),
		})
	}

	// Dominance duel: the blocked ColSet kernel vs the row-wise
	// Dominates loop, on the workload shape the skyline hot loops pay
	// for — the member set is the dataset's actual skyline and the
	// probes are skyline points, which nothing dominates, so both paths
	// scan the full set (the dominated-early case exits after a handful
	// of comparisons either way and is not where time goes).
	sky := skyline.SFS(items)
	cs := skyline.NewColSet(dims)
	pts := make([]geom.Point, len(sky))
	for i, it := range sky {
		cs.Append(it.ID, it.Point)
		pts[i] = it.Point
	}
	domProbes := sky
	if len(domProbes) > 512 {
		domProbes = domProbes[:512]
	}
	rowAny := func(q geom.Point) bool {
		for _, p := range pts {
			if p.Dominates(q) {
				return true
			}
		}
		return false
	}
	identical := true
	for _, o := range domProbes {
		if cs.AnyDominates(o.Point) != rowAny(o.Point) {
			identical = false
			break
		}
	}
	i := 0
	mc, err := measure(opts.Budget, func() error {
		cs.AnyDominates(domProbes[i%len(domProbes)].Point)
		i++
		return nil
	})
	if err != nil {
		return nil, err
	}
	i = 0
	mr, err := measure(opts.Budget, func() error {
		rowAny(domProbes[i%len(domProbes)].Point)
		i++
		return nil
	})
	if err != nil {
		return nil, err
	}
	row("dominance", ProductionCase{
		NsPerOp: mc.NsPerOp, Iterations: mc.Iterations,
		RowwiseNsPerOp: mr.NsPerOp,
		SpeedupX:       speedup(mr.NsPerOp, mc.NsPerOp),
		Identical:      identical,
		Detail:         fmt.Sprintf("undominated probes over the %d-point dataset skyline", len(sky)),
	})

	// SIMD kernel duels: the same columnar paths with the vector
	// kernels dispatched vs forced onto the portable scalar fallback
	// (simd.SetEnabled(false)), outputs bit-compared. On hosts with no
	// assembly kernels both legs run the portable code and the speedup
	// reads ~1x; the Detail names the dispatched level either way.
	simdWasOn := simd.Enabled()
	defer simd.SetEnabled(simdWasOn)
	level := simd.DetectedLevel()

	linSc := funcs[0].Scorer()
	simdOut := make([]float64, n)
	portOut := make([]float64, n)
	simd.SetEnabled(true)
	score.EvalBlock(linSc.Fam, linSc.W, cols, simdOut)
	simd.SetEnabled(false)
	score.EvalBlock(linSc.Fam, linSc.W, cols, portOut)
	identical = bitsEqual(simdOut, portOut)
	simd.SetEnabled(true)
	mOn, err := measure(opts.Budget, func() error {
		score.EvalBlock(linSc.Fam, linSc.W, cols, simdOut)
		return nil
	})
	if err != nil {
		return nil, err
	}
	simd.SetEnabled(false)
	mOff, err := measure(opts.Budget, func() error {
		score.EvalBlock(linSc.Fam, linSc.W, cols, portOut)
		return nil
	})
	if err != nil {
		return nil, err
	}
	row("simd_evalblock", ProductionCase{
		NsPerOp: mOn.NsPerOp, Iterations: mOn.Iterations,
		RowwiseNsPerOp: mOff.NsPerOp,
		SpeedupX:       speedup(mOff.NsPerOp, mOn.NsPerOp),
		Identical:      identical,
		Detail:         fmt.Sprintf("%s vs portable, linear %d-row pass", level, n),
	})

	chebFuncs := datagen.WithScorerFamilies(funcs, "chebyshev", opts.Seed+7)
	fb := score.NewFuncBlocks(dims)
	for _, f := range chebFuncs {
		sc := f.Scorer()
		fb.Add(f.ID, sc.Fam, sc.W)
	}
	identical = true
	for _, o := range probes {
		simd.SetEnabled(true)
		id1, s1, ok1 := fb.Best(o.Point, o.ID)
		simd.SetEnabled(false)
		id2, s2, ok2 := fb.Best(o.Point, o.ID)
		if id1 != id2 || ok1 != ok2 || math.Float64bits(s1) != math.Float64bits(s2) {
			identical = false
			break
		}
	}
	simd.SetEnabled(true)
	i = 0
	mOn, err = measure(opts.Budget, func() error {
		fb.Best(probes[i%len(probes)].Point, probes[i%len(probes)].ID)
		i++
		return nil
	})
	if err != nil {
		return nil, err
	}
	simd.SetEnabled(false)
	i = 0
	mOff, err = measure(opts.Budget, func() error {
		fb.Best(probes[i%len(probes)].Point, probes[i%len(probes)].ID)
		i++
		return nil
	})
	if err != nil {
		return nil, err
	}
	row("simd_reverse_scan", ProductionCase{
		NsPerOp: mOn.NsPerOp, Iterations: mOn.Iterations,
		RowwiseNsPerOp: mOff.NsPerOp,
		SpeedupX:       speedup(mOff.NsPerOp, mOn.NsPerOp),
		Identical:      identical,
		Detail:         fmt.Sprintf("%s vs portable, best of %d chebyshev functions", level, len(chebFuncs)),
	})

	identical = true
	for _, o := range domProbes {
		simd.SetEnabled(true)
		fd1 := cs.FirstDominator(o.Point)
		simd.SetEnabled(false)
		fd2 := cs.FirstDominator(o.Point)
		if fd1 != fd2 {
			identical = false
			break
		}
	}
	simd.SetEnabled(true)
	i = 0
	mOn, err = measure(opts.Budget, func() error {
		cs.AnyDominates(domProbes[i%len(domProbes)].Point)
		i++
		return nil
	})
	if err != nil {
		return nil, err
	}
	simd.SetEnabled(false)
	i = 0
	mOff, err = measure(opts.Budget, func() error {
		cs.AnyDominates(domProbes[i%len(domProbes)].Point)
		i++
		return nil
	})
	if err != nil {
		return nil, err
	}
	row("simd_dominance", ProductionCase{
		NsPerOp: mOn.NsPerOp, Iterations: mOn.Iterations,
		RowwiseNsPerOp: mOff.NsPerOp,
		SpeedupX:       speedup(mOff.NsPerOp, mOn.NsPerOp),
		Identical:      identical,
		Detail:         fmt.Sprintf("%s vs portable, %d-point skyline filter", level, len(sky)),
	})
	simd.SetEnabled(simdWasOn)

	return out, nil
}

func speedup(base, opt int64) float64 {
	if opt <= 0 {
		return 0
	}
	return float64(base) / float64(opt)
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
