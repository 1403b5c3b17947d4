// Package bench is the reproducible performance pipeline behind
// cmd/bench. It measures the hot paths of the SB family (warm node
// reads, BBS skyline passes, TA reverse top-1 and full SB solves), the
// workspace's repair, read, durability and serving paths, and the
// batched kernels against the code they replace, and emits the numbers
// as machine-readable JSON (BENCH_*.json).
//
// Every section of the report is a list of rows of one shape (Row), and
// every timed metric comes from one sampler (sample): the median of at
// least five samples with their min and max. A sample is one window of
// repeated operations, or one operation where a single operation
// outlasts the window.
package bench

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
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

// Stat is one metric of a row: the median over its samples and their
// range.
type Stat struct {
	Median  float64 `json:"median"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Samples int     `json:"samples"`
}

// Row is one measured workload. Every section of the report is a list
// of rows.
type Row struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	Dims int    `json:"dims"`
	// Identical is the row's output gate: a duel's two paths produced
	// bit-equal output, or a repaired, recovered or served matching
	// equals its reference. A row that times one path with nothing to
	// compare reads true. cmd/bench fails when any gate is false.
	Identical bool   `json:"identical"`
	Detail    string `json:"detail,omitempty"`
	// Metrics holds every measured figure by name. A name containing
	// "ns_per_" is a wall time, lower is better.
	Metrics map[string]Stat `json:"metrics"`
	// VsBaseline is each metric's median change against the same row of
	// a baseline report, in percent (see ApplyBaseline).
	VsBaseline map[string]float64 `json:"vs_baseline_pct,omitempty"`
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
	// Cases are the SB family's hot paths on the warm index.
	Cases []Row `json:"cases"`
	// Incremental compares Workspace chain repair against from-scratch
	// re-solves for single-mutation updates.
	Incremental []Row `json:"incremental,omitempty"`
	// Concurrent measures snapshot-view reads and repair latency while
	// a writer churns the workspace (1/4/16 readers).
	Concurrent []Row `json:"concurrent_read_churn,omitempty"`
	// ScorerFamilies compares solve and top-k latency across the
	// preference families on identical data.
	ScorerFamilies []Row `json:"scorer_families,omitempty"`
	// Durability measures the WAL tax on Apply (off / fsync) and the
	// snapshot save, replay-recovery and warm-start times.
	Durability []Row `json:"durability,omitempty"`
	// Production is the production-scale matrix (n = 10⁶ by default):
	// the bulk-load duel, a full SB solve, per-family top-k, and the
	// batched kernels racing their row-wise twins.
	Production []Row `json:"production_scale,omitempty"`
	// ServingScale is the mutate→snapshot→top-k serving loop on the
	// production-scale instance.
	ServingScale []Row `json:"serving_scale,omitempty"`
}

// Section is one keyed list of a report's rows; Rows shares the
// report's backing array.
type Section struct {
	Key  string
	Rows []Row
}

// Sections lists the report's rows under their JSON keys, in report
// order.
func (r *Report) Sections() []Section {
	return []Section{
		{"cases", r.Cases},
		{"incremental", r.Incremental},
		{"concurrent_read_churn", r.Concurrent},
		{"scorer_families", r.ScorerFamilies},
		{"durability", r.Durability},
		{"production_scale", r.Production},
		{"serving_scale", r.ServingScale},
	}
}

// ApplyBaseline sets VsBaseline on every row of rep that base has a row
// for (same section, name, n and dims): each metric both carry gets its
// median's change in percent, positive when rep's is larger.
func ApplyBaseline(rep, base *Report) {
	key := func(section string, r Row) string {
		return fmt.Sprintf("%s/%s/%d/%d", section, r.Name, r.N, r.Dims)
	}
	prior := map[string]Row{}
	for _, s := range base.Sections() {
		for _, r := range s.Rows {
			prior[key(s.Key, r)] = r
		}
	}
	for _, s := range rep.Sections() {
		for i := range s.Rows {
			r := &s.Rows[i]
			b := prior[key(s.Key, *r)]
			for name, m := range r.Metrics {
				if bm, ok := b.Metrics[name]; ok && bm.Median > 0 {
					if r.VsBaseline == nil {
						r.VsBaseline = map[string]float64{}
					}
					r.VsBaseline[name] = 100 * (m.Median/bm.Median - 1)
				}
			}
		}
	}
}

// Options tunes a pipeline run.
type Options struct {
	Seed int64
	// Sizes is the object-set cardinalities to sweep.
	Sizes []int
	// Dims is the dimensionalities to sweep.
	Dims []int
	// Budget is the time one measured operation gets; its samples split
	// it into equal windows.
	Budget time.Duration
	// ProdSize is the object count for the production-scale section
	// (0 skips it; cmd/bench defaults it to 10⁶, scaled down by -quick).
	ProdSize int
}

// funcsFor is the function count of the solver-level workloads at n
// objects.
func funcsFor(n int) int { return max(n/20, 16) }

// samples is how many samples every timed metric takes.
const samples = 5

// window is the length of one sample window.
func (o Options) window() time.Duration { return o.Budget / samples }

// window is one sample of an operation: ops runs in ns nanoseconds, the
// allocations they made, and the deltas of the caller's counters.
type window struct {
	ops, ns       int64
	allocs, bytes uint64
	counts        []int64
}

// sample is the one sampler behind every timed metric. It runs rounds
// rounds, and each round gives every op one window, in order: the sides
// of a duel alternate, so a drift of the host hits both. A window
// repeats its op until d has elapsed, at least once, so it is a single
// operation wherever one outlasts d (d = 0 times every operation on its
// own). counters are cumulative; every window records their deltas.
// The heap is collected first so that no window pays for the caller's
// garbage.
func sample(d time.Duration, rounds int, counters []func() int64, ops ...func() error) ([][]window, error) {
	runtime.GC()
	out := make([][]window, len(ops))
	var ms runtime.MemStats
	for range rounds {
		for i, op := range ops {
			w := window{counts: make([]int64, len(counters))}
			for j, c := range counters {
				w.counts[j] = -c()
			}
			runtime.ReadMemStats(&ms)
			allocs, bytes := ms.Mallocs, ms.TotalAlloc
			start := time.Now()
			for w.ops == 0 || time.Since(start) < d {
				if err := op(); err != nil {
					return nil, err
				}
				w.ops++
			}
			w.ns = time.Since(start).Nanoseconds()
			runtime.ReadMemStats(&ms)
			w.allocs, w.bytes = ms.Mallocs-allocs, ms.TotalAlloc-bytes
			for j, c := range counters {
				w.counts[j] += c()
			}
			out[i] = append(out[i], w)
		}
	}
	return out, nil
}

// stat summarizes one value per sample.
func stat(xs []float64) Stat {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	return Stat{Median: (s[(n-1)/2] + s[n/2]) / 2, Min: s[0], Max: s[n-1], Samples: n}
}

// per summarizes f over the windows of one op.
func per(ws []window, f func(window) float64) Stat {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	return stat(xs)
}

func nsPerOp(w window) float64 { return float64(w.ns) / float64(w.ops) }

// countPerOp is counter j's delta per operation.
func countPerOp(j int) func(window) float64 {
	return func(w window) float64 { return float64(w.counts[j]) / float64(w.ops) }
}

// speedup is b's speedup over a, round by round: a's wall time per
// operation over b's.
func speedup(a, b []window) Stat {
	xs := make([]float64, len(a))
	for i := range a {
		xs[i] = nsPerOp(a[i]) / nsPerOp(b[i])
	}
	return stat(xs)
}

// timing is the metric set of an op sampled on its own: wall time,
// allocations and bytes per operation.
func timing(ws []window) map[string]Stat {
	return map[string]Stat{
		"ns_per_op":     per(ws, nsPerOp),
		"allocs_per_op": per(ws, func(w window) float64 { return float64(w.allocs) / float64(w.ops) }),
		"bytes_per_op":  per(ws, func(w window) float64 { return float64(w.bytes) / float64(w.ops) }),
	}
}

// solo samples op on its own and returns its row: the timing metrics
// and a gate that reads true, as there is nothing to compare.
func (o Options) solo(name string, op func() error) (Row, error) {
	w, err := sample(o.window(), samples, nil, op)
	if err != nil {
		return Row{}, fmt.Errorf("%s: %w", name, err)
	}
	return Row{Name: name, Identical: true, Metrics: timing(w[0])}, nil
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
			rows, err := runCases(n, dims, opts)
			if err != nil {
				return nil, err
			}
			rep.Cases = append(rep.Cases, rows...)
		}
	}
	// The workspace scenarios run at the largest size: single-mutation
	// latency is what a serving system pays, and the large instance is
	// where re-solving hurts.
	maxN := slices.Max(opts.Sizes)
	for _, dims := range opts.Dims {
		rows, err := runIncremental(maxN, dims, opts)
		if err != nil {
			return nil, err
		}
		rep.Incremental = append(rep.Incremental, rows...)
	}
	// Concurrent read-churn on the first dimensionality only: the
	// reader path is dimension-insensitive.
	rows, err := runConcurrent(maxN, opts.Dims[0], opts)
	if err != nil {
		return nil, err
	}
	rep.Concurrent = rows
	for _, dims := range opts.Dims {
		rows, err := runScorerFamilies(maxN, dims, opts)
		if err != nil {
			return nil, err
		}
		rep.ScorerFamilies = append(rep.ScorerFamilies, rows...)
	}
	// Durability: the in-memory hot paths above never touch the WAL;
	// this scenario is where its cost is measured instead.
	dur, err := runDurability(maxN, opts.Dims[0], 32, opts)
	if err != nil {
		return nil, err
	}
	rep.Durability = []Row{dur}
	// Production scale last: it is the heaviest section.
	if opts.ProdSize > 0 {
		if rep.Production, err = runProduction(opts); err != nil {
			return nil, err
		}
		ss, err := runServingScale(opts)
		if err != nil {
			return nil, err
		}
		rep.ServingScale = []Row{ss}
	}
	return rep, nil
}

// runCases measures the SB family's hot paths at one (n, dims) on an
// index whose pool holds the whole tree, each after one warm-up run:
// a warm node read sweep over every page, a BBS skyline pass, a TA
// reverse top-1 over in-memory lists, and a full SB solve (index build
// and solve per operation, as a caller sees it). The rows on the index
// also count their logical reads and physical I/O per operation.
func runCases(n, dims int, o Options) ([]Row, error) {
	objs := datagen.Objects(datagen.AntiCorrelated, n, dims, o.Seed)
	tree, store, err := warmTree(objs, dims)
	if err != nil {
		return nil, err
	}
	pages := collectPages(tree)
	io := store.IO()
	treeIO := []func() int64{
		func() int64 { return io.Snapshot().LogicalReads },
		func() int64 { s := io.Snapshot(); return s.PhysicalReads + s.PhysicalWrites },
	}

	nf := funcsFor(n)
	funcs := datagen.Functions(nf, dims, o.Seed+3)
	taf := make([]ta.Func, len(funcs))
	for i, f := range funcs {
		taf[i] = ta.Func{ID: f.ID, Weights: f.Effective()}
	}
	lists, err := ta.NewLists(taf, dims)
	if err != nil {
		return nil, err
	}
	probes := datagen.Objects(datagen.Independent, 64, dims, o.Seed+5)
	probe := 0

	sbProblem := &assign.Problem{Dims: dims, Objects: objs, Functions: funcs}
	var sbIO [2]int64
	sbCounters := []func() int64{
		func() int64 { return sbIO[0] },
		func() int64 { return sbIO[1] },
	}

	cases := []struct {
		name     string
		counters []func() int64
		op       func() error
	}{
		{"readnode_warm", treeIO, func() error {
			for _, id := range pages {
				if _, err := tree.ReadNode(id); err != nil {
					return err
				}
			}
			return nil
		}},
		{"bbs", treeIO, func() error {
			_, err := skyline.Compute(tree, nil)
			return err
		}},
		{"ta_top1", nil, func() error {
			s := ta.NewSearch(lists, probes[probe%len(probes)].Point, max(1, nf/40))
			_, _, _ = s.Best()
			s.Release()
			probe++
			return nil
		}},
		{"sb_solve", sbCounters, func() error {
			r, err := assign.SB(sbProblem, assign.Config{})
			if err != nil {
				return err
			}
			sbIO[0] += r.Stats.IO.LogicalReads
			sbIO[1] += r.Stats.IO.PhysicalReads + r.Stats.IO.PhysicalWrites
			return nil
		}},
	}
	var rows []Row
	for _, c := range cases {
		if err := c.op(); err != nil { // warm-up, excluded
			return nil, fmt.Errorf("%s(n=%d,dims=%d): %w", c.name, n, dims, err)
		}
		ws, err := sample(o.window(), samples, c.counters, c.op)
		if err != nil {
			return nil, fmt.Errorf("%s(n=%d,dims=%d): %w", c.name, n, dims, err)
		}
		m := timing(ws[0])
		if c.counters != nil {
			m["logical_reads_per_op"] = per(ws[0], countPerOp(0))
			m["physical_io_per_op"] = per(ws[0], countPerOp(1))
		}
		rows = append(rows, Row{Name: c.name, N: n, Dims: dims, Identical: true, Metrics: m})
	}
	return rows, nil
}

func itemsOf(objs []assign.Object) []rtree.Item {
	items := make([]rtree.Item, len(objs))
	for i, o := range objs {
		items[i] = rtree.Item{ID: o.ID, Point: o.Point}
	}
	return items
}

// warmTree bulk-loads objs into an index whose pool holds the whole
// tree.
func warmTree(objs []assign.Object, dims int) (*rtree.Tree, *pagestore.MemStore, error) {
	store := pagestore.NewMemStore(4096)
	tree, err := rtree.BulkLoad(pagestore.NewBufferPool(store, 1<<20), dims, itemsOf(objs), 0.9)
	return tree, store, err
}

// collectPages lists every page of the tree, root first.
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
