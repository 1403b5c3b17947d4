// Package bench is the reproducible performance pipeline behind
// cmd/bench: it measures the hot paths of the SB family (warm node
// reads, BBS skyline passes, TA reverse top-1 and full SB solves)
// with the decoded-node cache disabled ("cold", the pre-cache
// behaviour) and enabled ("warm"), verifies that the two
// configurations produce byte-identical matchings with identical
// physical I/O, and emits the numbers as machine-readable JSON
// (BENCH_*.json) so future optimization work has a trajectory to beat.
package bench

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"fairassign/internal/assign"
	"fairassign/internal/datagen"
	"fairassign/internal/pagestore"
	"fairassign/internal/rtree"
	"fairassign/internal/simd"
	"fairassign/internal/skyline"
	"fairassign/internal/ta"
)

// goamd64Level reports the GOAMD64 microarchitecture level recorded in
// the binary's build info ("" off amd64 or when the toolchain did not
// record it).
func goamd64Level() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				return s.Value
			}
		}
	}
	return ""
}

// cpuModel returns the first "model name" entry of /proc/cpuinfo, or ""
// when the file is missing or has no such entry.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// Metrics is one measured configuration of one case.
type Metrics struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// LogicalReads and PhysicalIO are per-op page-level counts (the
	// paper's I/O metric is the physical number); they are measured on a
	// dedicated instrumented run, not averaged over the timing loop.
	LogicalReads int64 `json:"logical_reads"`
	PhysicalIO   int64 `json:"physical_io"`
	Iterations   int64 `json:"iterations"`
}

// Case compares one workload cold (decoded-node cache off) vs warm (on).
type Case struct {
	Name string  `json:"name"`
	N    int     `json:"n"`
	Dims int     `json:"dims"`
	Cold Metrics `json:"cold"`
	Warm Metrics `json:"warm"`
	// AllocsReductionPct is 100·(1 − warm/cold) on allocs/op.
	AllocsReductionPct float64 `json:"allocs_reduction_pct"`
	NsReductionPct     float64 `json:"ns_reduction_pct"`
	// IOIdentical records that cold and warm performed exactly the same
	// logical and physical I/O — the cache must be invisible to the
	// paper's metrics.
	IOIdentical bool `json:"io_identical"`
	// VsBaseline compares Warm against the matching case of a baseline
	// report (typically captured on the main branch before this
	// optimization landed). Nil when no baseline was supplied or the
	// case is absent from it.
	VsBaseline *BaselineDelta `json:"vs_baseline,omitempty"`
}

// BaselineDelta is the before/after comparison against a prior report.
type BaselineDelta struct {
	BaselineNsPerOp     int64   `json:"baseline_ns_per_op"`
	BaselineAllocsPerOp int64   `json:"baseline_allocs_per_op"`
	AllocsReductionPct  float64 `json:"allocs_reduction_pct"`
	NsReductionPct      float64 `json:"ns_reduction_pct"`
}

// ApplyBaseline fills VsBaseline on every case of rep that has a
// matching (name, n, dims) case in base, comparing rep's warm numbers to
// the baseline's warm numbers.
func ApplyBaseline(rep, base *Report) {
	byKey := make(map[string]Case, len(base.Cases))
	for _, c := range base.Cases {
		byKey[fmt.Sprintf("%s/%d/%d", c.Name, c.N, c.Dims)] = c
	}
	for i := range rep.Cases {
		c := &rep.Cases[i]
		b, ok := byKey[fmt.Sprintf("%s/%d/%d", c.Name, c.N, c.Dims)]
		if !ok {
			continue
		}
		c.VsBaseline = &BaselineDelta{
			BaselineNsPerOp:     b.Warm.NsPerOp,
			BaselineAllocsPerOp: b.Warm.AllocsPerOp,
			AllocsReductionPct:  reductionPct(b.Warm.AllocsPerOp, c.Warm.AllocsPerOp),
			NsReductionPct:      reductionPct(b.Warm.NsPerOp, c.Warm.NsPerOp),
		}
	}
}

// Report is the emitted BENCH_*.json payload.
type Report struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// GOAMD64 is the microarchitecture level the binary was compiled
	// for (amd64 only, "" when unrecorded). The SIMD kernels make the
	// hot-path numbers level-independent, so this is provenance, not a
	// variable to control for.
	GOAMD64 string `json:"goamd64,omitempty"`
	// SIMDLevel is the kernel set dispatched while the report was
	// generated: "avx2" or "portable".
	SIMDLevel string `json:"simd_level"`
	// NumCPU, GOMAXPROCS and CPUModel record the host the numbers were
	// measured on. CPUModel is the first "model name" in /proc/cpuinfo,
	// empty where the file or the field does not exist.
	NumCPU      int       `json:"num_cpu"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	CPUModel    string    `json:"cpu_model"`
	Seed        int64     `json:"seed"`
	GeneratedAt time.Time `json:"generated_at"`
	// Conformance summarizes the pre-flight differential run ("skipped"
	// when disabled).
	Conformance string `json:"conformance"`
	Cases       []Case `json:"cases"`
	// Incremental compares Workspace chain repair against from-scratch
	// re-solves for single-mutation updates.
	Incremental []IncrementalCase `json:"incremental,omitempty"`
	// Concurrent measures snapshot-view read throughput and repair
	// latency while a writer churns the workspace (1/4/16 readers).
	Concurrent []ConcurrentCase `json:"concurrent_read_churn,omitempty"`
	// ScorerFamilies compares solve latency and TopK throughput across
	// the preference families (linear vs OWA/minimax vs Chebyshev vs Lp)
	// on identical data.
	ScorerFamilies []ScorerFamilyCase `json:"scorer_families,omitempty"`

	// Durability measures the WAL tax on Apply (off / fsync)
	// and the snapshot save, replay-recovery, and warm-start times.
	Durability []DurabilityCase `json:"durability,omitempty"`
	// Production is the production-scale matrix (n = 10⁶ by default):
	// the cold bulk-load duel, a full SB solve, per-family top-k, and
	// the batched kernels racing their row-wise twins.
	Production []ProductionCase `json:"production_scale,omitempty"`
	// ServingScale is the mutate→snapshot→top-k serving loop on the
	// production-scale instance, with its final matching compared
	// against a cold solve.
	ServingScale []ServingScaleCase `json:"serving_scale,omitempty"`
}

// Options tunes a pipeline run.
type Options struct {
	Seed int64
	// Sizes is the object-set cardinalities to sweep.
	Sizes []int
	// Dims is the dimensionalities to sweep.
	Dims []int
	// Budget is the per-measurement time budget.
	Budget time.Duration
	// Funcs is the function count for the solver-level cases (0 derives
	// n/20, min 16).
	Funcs int
	// ProdSize is the object count for the production-scale section
	// (0 skips it; cmd/bench defaults it to 10⁶, scaled down by -quick).
	ProdSize int
}

func (o Options) funcsFor(n int) int {
	if o.Funcs > 0 {
		return o.Funcs
	}
	f := n / 20
	if f < 16 {
		f = 16
	}
	return f
}

// measure times op repeatedly within the budget (at least 3 iterations)
// and reports per-op wall clock and allocation figures.
func measure(budget time.Duration, op func() error) (Metrics, error) {
	if err := op(); err != nil { // warm-up, excluded
		return Metrics{}, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var iters int64
	for {
		if err := op(); err != nil {
			return Metrics{}, err
		}
		iters++
		if iters >= 3 && time.Since(start) >= budget {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return Metrics{
		NsPerOp:     elapsed.Nanoseconds() / iters,
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / iters,
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / iters,
		Iterations:  iters,
	}, nil
}

// treeEnv is a bulk-loaded index whose pool holds the whole tree (the
// warm-cache regime the tentpole targets).
type treeEnv struct {
	store *pagestore.MemStore
	pool  *pagestore.BufferPool
	tree  *rtree.Tree
}

func newTreeEnv(n, dims int, seed int64, cache bool) (*treeEnv, error) {
	store := pagestore.NewMemStore(4096)
	pool := pagestore.NewBufferPool(store, 1<<20)
	pool.SetDecodedCache(cache)
	objs := datagen.Objects(datagen.AntiCorrelated, n, dims, seed)
	items := make([]rtree.Item, len(objs))
	for i, o := range objs {
		items[i] = rtree.Item{ID: o.ID, Point: o.Point}
	}
	tree, err := rtree.BulkLoad(pool, dims, items, 0.9)
	if err != nil {
		return nil, err
	}
	store.IO().Reset()
	return &treeEnv{store: store, pool: pool, tree: tree}, nil
}

// ioDelta runs op once and returns the logical/physical page counts it
// incurred.
func (e *treeEnv) ioDelta(op func() error) (logical, physical int64, err error) {
	before := e.store.IO().Snapshot()
	if err := op(); err != nil {
		return 0, 0, err
	}
	after := e.store.IO().Snapshot()
	return after.LogicalReads - before.LogicalReads,
		(after.PhysicalReads - before.PhysicalReads) + (after.PhysicalWrites - before.PhysicalWrites),
		nil
}

// runCase measures one workload in both cache configurations.
func runCase(name string, n, dims int, opts Options,
	build func(cache bool) (op func() error, io func() (int64, int64, error), err error)) (Case, error) {
	c := Case{Name: name, N: n, Dims: dims}
	for _, cache := range []bool{false, true} {
		op, io, err := build(cache)
		if err != nil {
			return c, fmt.Errorf("%s(n=%d,dims=%d): %w", name, n, dims, err)
		}
		m, err := measure(opts.Budget, op)
		if err != nil {
			return c, fmt.Errorf("%s(n=%d,dims=%d): %w", name, n, dims, err)
		}
		if io != nil {
			lg, ph, err := io()
			if err != nil {
				return c, err
			}
			m.LogicalReads, m.PhysicalIO = lg, ph
		}
		if cache {
			c.Warm = m
		} else {
			c.Cold = m
		}
	}
	c.AllocsReductionPct = reductionPct(c.Cold.AllocsPerOp, c.Warm.AllocsPerOp)
	c.NsReductionPct = reductionPct(c.Cold.NsPerOp, c.Warm.NsPerOp)
	c.IOIdentical = c.Cold.LogicalReads == c.Warm.LogicalReads && c.Cold.PhysicalIO == c.Warm.PhysicalIO
	return c, nil
}

func reductionPct(cold, warm int64) float64 {
	if cold <= 0 {
		return 0
	}
	return 100 * (1 - float64(warm)/float64(cold))
}

// Run executes the full pipeline and returns the report (without the
// conformance summary, which the caller sets).
func Run(opts Options) (*Report, error) {
	if opts.Budget <= 0 {
		opts.Budget = 200 * time.Millisecond
	}
	if len(opts.Sizes) == 0 {
		opts.Sizes = []int{2000, 10000}
	}
	if len(opts.Dims) == 0 {
		opts.Dims = []int{2, 4}
	}
	rep := &Report{
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOAMD64:     goamd64Level(),
		SIMDLevel:   simd.Level(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CPUModel:    cpuModel(),
		Seed:        opts.Seed,
		GeneratedAt: time.Now().UTC(),
	}
	for _, n := range opts.Sizes {
		for _, dims := range opts.Dims {
			cases, err := runAll(n, dims, opts)
			if err != nil {
				return nil, err
			}
			rep.Cases = append(rep.Cases, cases...)
		}
	}
	// Incremental scenario: repair-vs-resolve at the largest size per
	// dimensionality (single-mutation latency is what a serving system
	// pays; the large instance is where re-solving hurts).
	maxN := 0
	for _, n := range opts.Sizes {
		if n > maxN {
			maxN = n
		}
	}
	for _, dims := range opts.Dims {
		inc, err := runIncremental(maxN, dims, opts)
		if err != nil {
			return nil, err
		}
		rep.Incremental = append(rep.Incremental, inc...)
	}
	// Concurrent read-churn: snapshot readers against the churn writer,
	// at the largest size on the first dimensionality (the reader path
	// is dimension-insensitive; one sweep keeps the pipeline fast).
	conc, err := runConcurrent(maxN, opts.Dims[0], opts)
	if err != nil {
		return nil, err
	}
	rep.Concurrent = append(rep.Concurrent, conc...)
	// Scorer families: linear vs OWA/minimax vs Chebyshev vs Lp, at the
	// largest size per dimensionality.
	for _, dims := range opts.Dims {
		sf, err := runScorerFamilies(maxN, dims, opts)
		if err != nil {
			return nil, err
		}
		rep.ScorerFamilies = append(rep.ScorerFamilies, sf...)
	}
	// Durability: the WAL tax and the recovery/warm-start times at the
	// largest size on the first dimensionality. The in-memory hot paths
	// above never touch the durability layer — this scenario is where
	// its cost is measured instead.
	dur, err := runDurability(maxN, opts.Dims[0], 32, opts)
	if err != nil {
		return nil, err
	}
	rep.Durability = append(rep.Durability, dur)
	// Production scale: the n = 10⁶ matrix (kernel duels, cold build,
	// solve, top-k). Last because it is the heaviest section.
	if opts.ProdSize > 0 {
		prod, err := runProduction(opts)
		if err != nil {
			return nil, err
		}
		rep.Production = prod
		// The serving loop at the same production cardinality.
		ss, err := runServingScale(opts)
		if err != nil {
			return nil, err
		}
		rep.ServingScale = []ServingScaleCase{ss}
	}
	return rep, nil
}

func runAll(n, dims int, opts Options) ([]Case, error) {
	var out []Case

	// Warm node read: round-robin over every page of the index.
	c, err := runCase("readnode_warm", n, dims, opts, func(cache bool) (func() error, func() (int64, int64, error), error) {
		env, err := newTreeEnv(n, dims, opts.Seed, cache)
		if err != nil {
			return nil, nil, err
		}
		pages := collectPages(env.tree)
		i := 0
		op := func() error {
			for range pages { // one op = one full sweep
				_, err := env.tree.ReadNode(pages[i%len(pages)])
				if err != nil {
					return err
				}
				i++
			}
			return nil
		}
		return op, func() (int64, int64, error) { return env.ioDelta(op) }, nil
	})
	if err != nil {
		return nil, err
	}
	out = append(out, c)

	// BBS skyline pass.
	c, err = runCase("bbs", n, dims, opts, func(cache bool) (func() error, func() (int64, int64, error), error) {
		env, err := newTreeEnv(n, dims, opts.Seed, cache)
		if err != nil {
			return nil, nil, err
		}
		op := func() error {
			_, err := skyline.Compute(env.tree, nil)
			return err
		}
		return op, func() (int64, int64, error) { return env.ioDelta(op) }, nil
	})
	if err != nil {
		return nil, err
	}
	out = append(out, c)

	// TA reverse top-1 (in-memory lists; the node cache is not involved,
	// so cold ≈ warm — the case tracks the search-scratch reuse instead).
	c, err = runCase("ta_top1", n, dims, opts, func(bool) (func() error, func() (int64, int64, error), error) {
		nf := opts.funcsFor(n)
		funcs := datagen.Functions(nf, dims, opts.Seed+3)
		taf := make([]ta.Func, len(funcs))
		for i, f := range funcs {
			taf[i] = ta.Func{ID: f.ID, Weights: f.Effective()}
		}
		lists, err := ta.NewLists(taf, dims)
		if err != nil {
			return nil, nil, err
		}
		objs := datagen.Objects(datagen.Independent, 64, dims, opts.Seed+5)
		i := 0
		op := func() error {
			s := ta.NewSearch(lists, objs[i%len(objs)].Point, max(1, nf/40))
			_, _, _ = s.Best()
			s.Release()
			i++
			return nil
		}
		return op, nil, nil
	})
	if err != nil {
		return nil, err
	}
	out = append(out, c)

	// Full SB solve (index build + solve per op, as a caller sees it).
	sbProblem := &assign.Problem{
		Dims:      dims,
		Objects:   datagen.Objects(datagen.AntiCorrelated, n, dims, opts.Seed),
		Functions: datagen.Functions(opts.funcsFor(n), dims, opts.Seed+3),
	}
	var sbRes [2]*assign.Result
	c, err = runCase("sb_solve", n, dims, opts, func(cache bool) (func() error, func() (int64, int64, error), error) {
		cfg := assign.Config{DisableNodeCache: !cache}
		op := func() error {
			_, err := assign.SB(sbProblem, cfg)
			return err
		}
		io := func() (int64, int64, error) {
			r, err := assign.SB(sbProblem, cfg)
			if err != nil {
				return 0, 0, err
			}
			idx := 0
			if cache {
				idx = 1
			}
			sbRes[idx] = r
			s := r.Stats.IO
			return s.LogicalReads, s.PhysicalReads + s.PhysicalWrites, nil
		}
		return op, io, nil
	})
	if err != nil {
		return nil, err
	}
	if err := verifyIdentical(sbRes[0], sbRes[1]); err != nil {
		return nil, fmt.Errorf("sb_solve(n=%d,dims=%d) cache on/off diverged: %w", n, dims, err)
	}
	out = append(out, c)

	return out, nil
}

// verifyIdentical asserts two SB runs emitted bit-identical pair
// sequences — the cache must not change the matching.
func verifyIdentical(a, b *assign.Result) error {
	if a == nil || b == nil {
		return fmt.Errorf("missing result")
	}
	if len(a.Pairs) != len(b.Pairs) {
		return fmt.Errorf("%d pairs vs %d", len(a.Pairs), len(b.Pairs))
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			return fmt.Errorf("pair %d: %+v vs %+v", i, a.Pairs[i], b.Pairs[i])
		}
	}
	return nil
}

func collectPages(t *rtree.Tree) []pagestore.PageID {
	var pages []pagestore.PageID
	var walk func(id pagestore.PageID)
	walk = func(id pagestore.PageID) {
		pages = append(pages, id)
		n, err := t.ReadNode(id)
		if err != nil {
			return
		}
		if !n.Leaf {
			for _, e := range n.Entries {
				walk(e.Child)
			}
		}
	}
	walk(t.Root())
	return pages
}
