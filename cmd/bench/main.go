// Command bench is the reproducible hot-path benchmark pipeline: it
// measures warm node reads, BBS, TA top-1 and full SB solves, the
// workspace's repair, read, durability and serving paths, and the
// batched kernels against their twins, and writes the rows as
// machine-readable JSON so every future change has a perf trajectory
// to beat. Every timed metric is the median of at least five samples
// with its min and max.
//
// Before measuring anything it runs the conformance harness as a
// pre-flight check, and it fails if any row's identical gate breaks: a
// duel's paths diverge, or a repaired, recovered or served matching
// differs from its reference.
//
// Usage:
//
//	bench [-out BENCH_hotpath.json] [-sizes 2000,10000] [-dims 2,4]
//	      [-budget 200ms] [-seed 20090824] [-preflight 1] [-quick]
//	      [-prodsize 1000000] [-baseline BENCH_hotpath.json] [-maxregress 0]
//
// -preflight sets the conformance seeds per grid cell (0 skips the
// sweep); -quick is a CI smoke preset (tiny sizes, short budget, one-cell
// preflight). -baseline adds every row's median deltas against a prior
// report, and -maxregress fails the run when a wall-time median rose by
// more than that percent.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"fairassign/internal/bench"
	"fairassign/internal/conformance"
)

func main() {
	out := flag.String("out", "BENCH_hotpath.json", "output JSON path")
	sizes := flag.String("sizes", "2000,10000", "comma-separated object counts")
	dims := flag.String("dims", "2,4", "comma-separated dimensionalities")
	budget := flag.Duration("budget", 200*time.Millisecond, "time budget per measured operation, split over its samples")
	seed := flag.Int64("seed", 20090824, "random seed for data generation")
	preflight := flag.Int("preflight", 1, "conformance seeds per grid cell (0 skips the sweep)")
	quick := flag.Bool("quick", false, "CI smoke preset: tiny sizes, short budget")
	prodSize := flag.Int("prodsize", 1_000_000, "object count for the production-scale section (0 skips it)")
	baseline := flag.String("baseline", "", "prior report (e.g. BENCH_hotpath.json) to compute every row's median deltas against")
	maxRegress := flag.Float64("maxregress", 0, "fail if any row's wall-time median rises vs the baseline by more than this percent (0 disables)")
	flag.Parse()

	opts := bench.Options{
		Seed:     *seed,
		Sizes:    parseInts(*sizes),
		Dims:     parseInts(*dims),
		Budget:   *budget,
		ProdSize: *prodSize,
	}
	if *quick {
		opts.Sizes = []int{1000}
		opts.Dims = []int{3}
		opts.Budget = 50 * time.Millisecond
		if opts.ProdSize > 20000 {
			opts.ProdSize = 20000
		}
	}

	confSummary := "skipped"
	if *preflight > 0 {
		specs := conformance.StandardSweep(*preflight)
		if *quick && len(specs) > 16 {
			// Smoke preset: a slice of the grid, not the full sweep.
			specs = specs[:16]
		}
		scorerSpecs := conformance.ScorerSweep(*preflight)
		if *quick && len(scorerSpecs) > 16 {
			scorerSpecs = scorerSpecs[:16]
		}
		fmt.Printf("pre-flight: conformance sweep, %d linear + %d scorer-family cases... ", len(specs), len(scorerSpecs))
		start := time.Now()
		for _, spec := range specs {
			if err := conformance.Verify(spec); err != nil {
				fmt.Fprintf(os.Stderr, "\nbench: conformance pre-flight failed: %v\n", err)
				os.Exit(1)
			}
		}
		for _, spec := range scorerSpecs {
			if err := conformance.VerifyScorers(spec); err != nil {
				fmt.Fprintf(os.Stderr, "\nbench: scorer conformance pre-flight failed: %v\n", err)
				os.Exit(1)
			}
		}
		confSummary = fmt.Sprintf("passed (%d cases)", len(specs)+len(scorerSpecs))
		fmt.Printf("ok (%v)\n", time.Since(start).Round(time.Millisecond))
	}

	rep, err := bench.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	rep.Conformance = confSummary
	host := fmt.Sprintf("%s %s/%s", rep.GoVersion, rep.GOOS, rep.GOARCH)
	if rep.GOAMD64 != "" {
		host += " " + rep.GOAMD64
	}
	fmt.Printf("%s  simd=%s  cpu=%q num_cpu=%d gomaxprocs=%d\n", host, rep.SIMDLevel, rep.CPUModel, rep.NumCPU, rep.GOMAXPROCS)

	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: read baseline: %v\n", err)
			os.Exit(1)
		}
		var base bench.Report
		if err := json.Unmarshal(data, &base); err != nil {
			fmt.Fprintf(os.Stderr, "bench: parse baseline: %v\n", err)
			os.Exit(1)
		}
		bench.ApplyBaseline(rep, &base)
	}

	diverged, regressed := false, false
	for _, sec := range rep.Sections() {
		for _, r := range sec.Rows {
			gate := "identical"
			if !r.Identical {
				gate = "DIVERGED"
				diverged = true
				fmt.Fprintf(os.Stderr, "bench: %s/%s(n=%d,dims=%d): identical gate failed\n", sec.Key, r.Name, r.N, r.Dims)
			}
			fmt.Printf("%-22s %-32s n=%-8d d=%d  %s  %s\n", sec.Key, r.Name, r.N, r.Dims, gate, r.Detail)
			for _, name := range slices.Sorted(maps.Keys(r.Metrics)) {
				m := r.Metrics[name]
				line := fmt.Sprintf("    %-28s %14.6g  [%.6g, %.6g] over %d", name, m.Median, m.Min, m.Max, m.Samples)
				if d, ok := r.VsBaseline[name]; ok {
					line += fmt.Sprintf("  (%+.1f%% vs baseline)", d)
					if *maxRegress > 0 && strings.Contains(name, "ns_per_") && d > *maxRegress {
						regressed = true
						fmt.Fprintf(os.Stderr, "bench: %s/%s(n=%d,dims=%d) %s regressed %.1f%% vs baseline (limit %.1f%%)\n",
							sec.Key, r.Name, r.N, r.Dims, name, d, *maxRegress)
					}
				}
				fmt.Println(line)
			}
		}
	}

	// Write the report even on divergence — the JSON is the evidence
	// needed to debug it.
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (conformance: %s)\n", *out, rep.Conformance)
	if diverged || regressed {
		os.Exit(1)
	}
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "bench: bad integer list entry %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
