// Command loadgen replays a seeded production-style workload against a
// live Workspace and reports latency percentiles per operation class.
//
// The trace is an open-loop arrival schedule (Poisson, optionally
// burst-modulated) of mixed traffic: mutations (object/function
// arrivals and departures with Zipf-skewed departure targets),
// snapshot acquires, and top-K view queries from a Zipf-popular query
// pool. The same seed always generates the same trace, so a reported
// run replays exactly.
//
// By default the trace is driven twice — once applying each mutation
// as its own commit, once through the group-commit MutationQueue —
// and the final matchings are asserted identical across modes, making
// every loadgen run double as a conformance check of the batched
// write path. The JSON report carries the spec plus both runs.
//
// Usage:
//
//	loadgen [-out traffic.json] [-seed 20090824] [-n 2000] [-funcs 64]
//	        [-dims 3] [-ops 20000] [-rate 5000] [-burst 4] [-zipf 1.2]
//	        [-write 0.2] [-batch 128] [-mode both|seq|batch]
//	        [-closed] [-clients C]
//	        [-crash] [-preflight 0] [-quick]
//
// -closed adds a closed-loop run: the arrival schedule is ignored and C
// read clients (plus one in-order writer client) each issue their next
// operation only on completion — sweeping -clients across runs traces
// the throughput/latency knee.
// All runs must end in the same final matching; the process exits
// non-zero otherwise.
//
// -crash additionally runs the crash-replay conformance mode: the same
// trace's mutation stream is applied to a durable workspace that is
// killed mid-trace (no Close — only the fsynced WAL and the last
// snapshot survive), recovered with OpenWorkspace, and finished; the
// final matching must equal the uninterrupted run's. -preflight runs N
// batch-conformance scripts per grid cell before generating traffic (0
// skips); -quick is a CI smoke preset (small population, few thousand
// ops at high rate, so the run finishes in seconds).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"fairassign"
	"fairassign/internal/conformance"
	"fairassign/internal/traffic"
)

// report is the JSON artifact: the generating spec plus one result per
// driver mode.
type report struct {
	Spec traffic.Spec      `json:"spec"`
	Runs []*traffic.Result `json:"runs"`
	// Crash is the crash-replay conformance run (-crash): the trace's
	// mutation stream interrupted mid-way on a durable workspace,
	// recovered from snapshot + WAL, finished, and checked against an
	// uninterrupted twin.
	Crash *traffic.CrashResult `json:"crash,omitempty"`
}

func main() {
	out := flag.String("out", "traffic.json", "output JSON path")
	seed := flag.Int64("seed", 20090824, "trace seed (same seed replays the same trace)")
	n := flag.Int("n", 2000, "initial object population")
	funcs := flag.Int("funcs", 64, "initial function population")
	dims := flag.Int("dims", 3, "attribute dimensionality")
	ops := flag.Int("ops", 20000, "operations in the trace")
	rate := flag.Float64("rate", 5000, "mean arrival rate, ops/sec (open loop)")
	burst := flag.Float64("burst", 4, "burst factor: arrivals alternate Rate*b / Rate/b (<=1 disables)")
	zipf := flag.Float64("zipf", 1.2, "popularity skew for departures and queries (<=1 uniform)")
	write := flag.Float64("write", 0.2, "fraction of operations that are mutations")
	maxCap := flag.Int("maxcap", 3, "max random capacity for arriving entities (<=1 unit caps)")
	batch := flag.Int("batch", 128, "group-commit max batch size")
	mode := flag.String("mode", "both", "driver mode: both, seq, or batch")
	closed := flag.Bool("closed", false, "add a closed-loop run: ignore the arrival schedule, drive with a fixed client population, and report saturation throughput (sweep -clients to find the knee)")
	clients := flag.Int("clients", 8, "closed-loop read-client population (-closed)")
	crash := flag.Bool("crash", false, "also run the crash-replay conformance mode: crash a durable workspace mid-trace, recover from snapshot+WAL, finish, and require the final matching to equal an uninterrupted run")
	preflight := flag.Int("preflight", 0, "batch-conformance scripts per grid cell before the run (0 skips)")
	quick := flag.Bool("quick", false, "CI smoke preset: small trace at high rate")
	flag.Parse()

	if *preflight > 0 {
		specs := conformance.BatchSweep(*preflight)
		fmt.Printf("pre-flight: batch conformance, %d scripts... ", len(specs))
		start := time.Now()
		for _, spec := range specs {
			if err := conformance.VerifyBatchDefault(spec); err != nil {
				fmt.Fprintf(os.Stderr, "\nloadgen: conformance pre-flight failed: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Printf("ok (%v)\n", time.Since(start).Round(time.Millisecond))
	}

	spec := traffic.Spec{
		Seed:      *seed,
		Dims:      *dims,
		Objects:   *n,
		Functions: *funcs,
		Ops:       *ops,
		Rate:      *rate,
		Burst:     *burst,
		Zipf:      *zipf,
		WriteFrac: *write,
		MaxCap:    *maxCap,
	}
	if *quick {
		spec.Objects = 400
		spec.Functions = 16
		spec.Ops = 3000
		spec.Rate = 20000
	}

	tr, err := traffic.NewTrace(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("trace: %s (%d ops, %v of schedule)\n", spec, len(tr.Ops), tr.Ops[len(tr.Ops)-1].At.Round(time.Millisecond))

	var modes []traffic.Mode
	switch *mode {
	case "both":
		modes = []traffic.Mode{traffic.ModeSequential, traffic.ModeBatch}
	case "seq":
		modes = []traffic.Mode{traffic.ModeSequential}
	case "batch":
		modes = []traffic.Mode{traffic.ModeBatch}
	default:
		fmt.Fprintf(os.Stderr, "loadgen: unknown -mode %q (want both, seq, or batch)\n", *mode)
		os.Exit(1)
	}

	rep := report{Spec: spec}
	var pairSets [][]uint64
	collect := func(label string, res *traffic.Result, pairs []fairassign.Pair, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %s run: %v\n", label, err)
			os.Exit(1)
		}
		rep.Runs = append(rep.Runs, res)
		printRun(res)
		if res.MutationErrors > 0 {
			fmt.Fprintf(os.Stderr, "loadgen: %s run rejected %d mutations from a well-formed trace\n", label, res.MutationErrors)
			os.Exit(1)
		}
		keys := make([]uint64, 0, 2*len(pairs))
		for _, p := range pairs {
			keys = append(keys, p.FunctionID, p.ObjectID)
		}
		pairSets = append(pairSets, keys)
	}
	for _, m := range modes {
		res, pairs, err := traffic.Run(tr, m, *batch)
		collect(string(m), res, pairs, err)
	}
	if *closed {
		res, pairs, err := traffic.RunClosed(tr, *clients, *batch)
		collect("closed", res, pairs, err)
	}
	// Every driver lands the same mutation stream in FIFO order, so all
	// modes must end in the same matching.
	for i := 1; i < len(pairSets); i++ {
		if !sameMultiset(pairSets[0], pairSets[i]) {
			fmt.Fprintf(os.Stderr, "loadgen: CONFORMANCE FAILURE: %s and %s runs produced different final matchings\n",
				rep.Runs[0].Mode, rep.Runs[i].Mode)
			os.Exit(1)
		}
	}
	if len(pairSets) > 1 {
		fmt.Printf("conformance: final matchings identical across %d runs (%d pairs)\n", len(pairSets), rep.Runs[0].FinalPairs)
	}

	if *crash {
		cr, err := traffic.RunCrashReplayTemp(tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: crash replay: %v\n", err)
			os.Exit(1)
		}
		rep.Crash = cr
		torn := ""
		if cr.TornTail {
			torn = ", torn tail truncated"
		}
		fmt.Printf("crash replay: crashed at mutation %d/%d, recovered from snapshot epoch %d + %d WAL batches (%d mutations%s) in %v, finished trace\n",
			cr.CrashAtMutation, cr.TotalMutations, cr.SnapshotEpoch, cr.BatchesReplayed, cr.MutationsReplayed, torn,
			time.Duration(cr.RecoveryNS).Round(time.Microsecond))
		if !cr.Identical {
			fmt.Fprintln(os.Stderr, "loadgen: CONFORMANCE FAILURE: crash-recovered matching differs from the uninterrupted run")
			os.Exit(1)
		}
		fmt.Println("conformance: crash-recovered matching identical to the uninterrupted run")
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}

func printRun(r *traffic.Result) {
	tag := ""
	if r.Clients > 0 {
		tag = fmt.Sprintf(" [%d clients, closed loop]", r.Clients)
	}
	fmt.Printf("%-10s %6d ops in %8v (%.0f ops/s achieved) | mutations %d, commits %d%s\n",
		r.Mode, r.Ops, time.Duration(r.WallNS).Round(time.Millisecond), r.AchievedRate, r.Mutations, r.Commits, tag)
	for _, class := range []string{"mutation", "snapshot_acquire", "view_query"} {
		cs, ok := r.Classes[class]
		if !ok || cs.Count == 0 {
			continue
		}
		fmt.Printf("  %-16s n=%-6d p50 %9v  p95 %9v  p99 %9v  max %9v\n",
			class, cs.Count,
			time.Duration(cs.P50NS).Round(time.Microsecond),
			time.Duration(cs.P95NS).Round(time.Microsecond),
			time.Duration(cs.P99NS).Round(time.Microsecond),
			time.Duration(cs.MaxNS).Round(time.Microsecond))
	}
}

// sameMultiset compares two flattened (functionID, objectID) pair lists
// as multisets.
func sameMultiset(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[[2]uint64]int, len(a)/2)
	for i := 0; i < len(a); i += 2 {
		counts[[2]uint64{a[i], a[i+1]}]++
	}
	for i := 0; i < len(b); i += 2 {
		k := [2]uint64{b[i], b[i+1]}
		if counts[k] == 0 {
			return false
		}
		counts[k]--
	}
	return true
}
