// Command bench is the reproducible hot-path benchmark pipeline: it
// measures warm node reads, BBS, TA top-1 and full SB solves with
// the decoded-node cache disabled ("cold": the pre-cache behaviour) and
// enabled ("warm"), and writes the comparison as machine-readable JSON
// so every future PR has a perf trajectory to beat.
//
// Before measuring anything it runs the conformance harness as a
// pre-flight check (the cached paths must produce the oracle matching on
// the full differential sweep), and it fails if cold and warm runs ever
// diverge in matching or physical I/O.
//
// Usage:
//
//	bench [-out BENCH_hotpath.json] [-sizes 2000,10000] [-dims 2,4]
//	      [-budget 200ms] [-seed 20090824] [-preflight 1] [-quick]
//
// -preflight sets the conformance seeds per grid cell (0 skips the
// sweep); -quick is a CI smoke preset (tiny sizes, short budget, one-cell
// preflight).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
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
	budget := flag.Duration("budget", 200*time.Millisecond, "time budget per measurement")
	seed := flag.Int64("seed", 20090824, "random seed for data generation")
	preflight := flag.Int("preflight", 1, "conformance seeds per grid cell (0 skips the sweep)")
	quick := flag.Bool("quick", false, "CI smoke preset: tiny sizes, short budget")
	prodSize := flag.Int("prodsize", 1_000_000, "object count for the production-scale section (0 skips it)")
	baseline := flag.String("baseline", "", "prior report (e.g. BENCH_hotpath.json) to compute before/after deltas against")
	maxRegress := flag.Float64("maxregress", 0, "fail if any warm case regresses vs the baseline by more than this percent (0 disables)")
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

	diverged := false
	for _, c := range rep.Cases {
		iox := "io=identical"
		if !c.IOIdentical {
			iox = "IO DIVERGED"
		}
		fmt.Printf("%-14s n=%-6d d=%d  cold %10d ns/op %7d allocs/op | warm %10d ns/op %7d allocs/op | allocs -%5.1f%% ns -%5.1f%% %s\n",
			c.Name, c.N, c.Dims,
			c.Cold.NsPerOp, c.Cold.AllocsPerOp,
			c.Warm.NsPerOp, c.Warm.AllocsPerOp,
			c.AllocsReductionPct, c.NsReductionPct, iox)
		if c.VsBaseline != nil {
			fmt.Printf("%-14s %-12s vs baseline: allocs %d -> %d (-%.1f%%), ns %d -> %d (-%.1f%%)\n",
				"", "",
				c.VsBaseline.BaselineAllocsPerOp, c.Warm.AllocsPerOp, c.VsBaseline.AllocsReductionPct,
				c.VsBaseline.BaselineNsPerOp, c.Warm.NsPerOp, c.VsBaseline.NsReductionPct)
		}
		if !c.IOIdentical {
			diverged = true
			fmt.Fprintf(os.Stderr, "bench: %s(n=%d,dims=%d): cold/warm I/O diverged (cold %d/%d, warm %d/%d)\n",
				c.Name, c.N, c.Dims, c.Cold.LogicalReads, c.Cold.PhysicalIO, c.Warm.LogicalReads, c.Warm.PhysicalIO)
		}
	}
	regressed := false
	if *maxRegress > 0 {
		for _, c := range rep.Cases {
			if c.VsBaseline != nil && c.VsBaseline.NsReductionPct < -*maxRegress {
				regressed = true
				fmt.Fprintf(os.Stderr, "bench: %s(n=%d,dims=%d) regressed %.1f%% vs baseline (limit %.1f%%)\n",
					c.Name, c.N, c.Dims, -c.VsBaseline.NsReductionPct, *maxRegress)
			}
		}
	}
	for _, c := range rep.Incremental {
		match := "matching=identical"
		if !c.Identical {
			match = "MATCHING DIVERGED"
		}
		fmt.Printf("%-22s n=%-6d d=%d  repair %10d ns/op | resolve %12d ns/op | %8.1fx faster | %.1f chain steps, %.1f searches/op %s\n",
			c.Name, c.N, c.Dims, c.RepairNsPerOp, c.ResolveNsPerOp, c.SpeedupX, c.ChainStepsPerOp, c.SearchesPerOp, match)
		if !c.Identical {
			diverged = true
			fmt.Fprintf(os.Stderr, "bench: %s(n=%d,dims=%d): repaired matching differs from a cold solve\n", c.Name, c.N, c.Dims)
		}
	}

	for _, c := range rep.Concurrent {
		fmt.Printf("%-22s n=%-6d d=%d  readers=%-3d %10.0f reads/s | repair %10d ns/op under load | %d mutations, %d epochs observed\n",
			c.Name, c.N, c.Dims, c.Readers, c.ReadsPerSec, c.RepairNsPerOp, c.Mutations, c.ReaderEpochSpread)
	}

	for _, c := range rep.ScorerFamilies {
		fmt.Printf("%-26s n=%-6d d=%d  solve %12d ns/op (%d pairs) | topk %10d ns/op (%8.0f /s)\n",
			c.Name, c.N, c.Dims, c.SolveNsPerOp, c.Pairs, c.TopKNsPerOp, c.TopKPerSec)
	}

	for _, c := range rep.Durability {
		match := "matching=identical"
		if !c.Identical {
			match = "MATCHING DIVERGED"
		}
		fmt.Printf("%-22s n=%-6d d=%d  batch=%d  apply off %8d | fsync %8d ns/mut | save %8.2fms (%d B) | recover %d batches %8.2fms | warm start %8.2fms %s\n",
			c.Name, c.N, c.Dims, c.BatchSize,
			c.ApplyNsPerMutOff, c.ApplyNsPerMutFsync,
			float64(c.SnapshotSaveNs)/1e6, c.SnapshotBytes,
			c.RecoveryBatches, float64(c.RecoveryNs)/1e6, float64(c.WarmStartNs)/1e6, match)
		if !c.Identical {
			diverged = true
			fmt.Fprintf(os.Stderr, "bench: %s(n=%d,dims=%d): recovered matching differs from the in-memory twin\n", c.Name, c.N, c.Dims)
		}
	}

	for _, c := range rep.Production {
		match := "identical"
		if !c.Identical {
			match = "OUTPUT DIVERGED"
		}
		if c.RowwiseNsPerOp > 0 {
			fmt.Printf("%-26s n=%-8d d=%d  kernel %12d ns/op | rowwise %12d ns/op | %6.2fx | %s %s\n",
				c.Name, c.N, c.Dims, c.NsPerOp, c.RowwiseNsPerOp, c.SpeedupX, match, c.Detail)
		} else {
			fmt.Printf("%-26s n=%-8d d=%d  %12d ns/op (%d iters) %s\n",
				c.Name, c.N, c.Dims, c.NsPerOp, c.Iterations, c.Detail)
		}
		if !c.Identical {
			diverged = true
			fmt.Fprintf(os.Stderr, "bench: %s(n=%d,dims=%d): optimized path diverged from its definitional twin\n",
				c.Name, c.N, c.Dims)
		}
	}

	for _, c := range rep.ServingScale {
		match := "identical to cold solve"
		if !c.Identical {
			match = "OUTPUT DIVERGED"
		}
		fmt.Printf("%-26s n=%-8d d=%d  %8.1f muts/s (apply %9d ns, snap %9d ns) | topk p50 %9d p99 %9d ns | %s\n",
			c.Name, c.N, c.Dims, c.MutationsPerSec, c.ApplyNsPerOp, c.SnapNsPerOp,
			c.TopKP50NS, c.TopKP99NS, match)
		sa := c.SlowestApply
		fmt.Printf("%-26s longest repair cascade: step %d, %d chain steps, %d searches, %.2f ms\n",
			"", sa.Step, sa.ChainSteps, sa.Searches, sa.MS)
		if !c.Identical {
			diverged = true
			fmt.Fprintf(os.Stderr, "bench: %s(n=%d): final matching differs from a cold solve\n", c.Name, c.N)
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
	fmt.Printf("wrote %s (%d cases, conformance: %s)\n", *out, len(rep.Cases), rep.Conformance)
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
