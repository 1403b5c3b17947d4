package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"fairassign/internal/assign"
	"fairassign/internal/datagen"
	"fairassign/internal/geom"
)

// ServingScaleCase is the serving loop (mutate → snapshot → top-k) on
// the production-scale instance. MutationsPerSec is the sustained
// throughput of that loop: each mutation's true serving cost includes
// the snapshot capture it forces and a query on the new epoch.
// Identical asserts the final matching equals a cold SB solve of the
// final population, pair for pair.
type ServingScaleCase struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	Dims int    `json:"dims"`

	Steps           int     `json:"steps"`
	MutationsPerSec float64 `json:"mutations_per_sec"`
	// ApplyNsPerOp isolates the Apply call (repair + commit) from the
	// serving loop; the gap to 1/MutationsPerSec is snapshot + query.
	ApplyNsPerOp int64 `json:"apply_ns_per_op"`
	TopKP50NS    int64 `json:"topk_p50_ns"`
	TopKP99NS    int64 `json:"topk_p99_ns"`
	SnapNsPerOp  int64 `json:"snapshot_ns_per_op"`
	// SlowestApply is the loop's Apply with the longest repair cascade
	// (most chain steps, ties to the earlier step) and its wall time, so
	// the cost per chain step of the worst vacancy chain can be read off
	// the report. It is chosen by chain steps, not by wall time, so host
	// noise cannot pick a mutation that ran no cascade.
	SlowestApply SlowApply `json:"slowest_apply"`

	Identical bool   `json:"identical"`
	Detail    string `json:"detail,omitempty"`
}

// SlowApply is one Apply of the serving loop: its step index, the chain
// steps and top-1 searches its repair ran, and its wall time.
type SlowApply struct {
	Step       int     `json:"step"`
	ChainSteps int64   `json:"chain_steps"`
	Searches   int64   `json:"searches"`
	MS         float64 `json:"ms"`
}

// servingScaleSteps bounds the serving loop: enough iterations for
// stable percentiles, few enough to stay affordable at n = 10⁶.
func servingScaleSteps(n int) int {
	if n >= 200_000 {
		return 48
	}
	return 160
}

// servingMutationScript builds one deterministic mutation stream —
// alternating arrivals of fresh objects and departures of live ones, so
// the population hovers at n.
func servingMutationScript(objs []assign.Object, dims, steps int, seed int64) []assign.Mutation {
	rng := rand.New(rand.NewSource(seed))
	live := make([]uint64, len(objs))
	for i, o := range objs {
		live[i] = o.ID
	}
	nextID := uint64(1 << 40)
	muts := make([]assign.Mutation, 0, steps)
	for i := 0; i < steps; i++ {
		if i%2 == 0 {
			nextID++
			pt := make(geom.Point, dims)
			for d := range pt {
				pt[d] = rng.Float64()
			}
			live = append(live, nextID)
			muts = append(muts, assign.Mutation{Kind: assign.MutAddObject, Object: assign.Object{ID: nextID, Point: pt}})
		} else {
			at := rng.Intn(len(live))
			muts = append(muts, assign.Mutation{Kind: assign.MutRemoveObject, ID: live[at]})
			live = append(live[:at], live[at+1:]...)
		}
	}
	return muts
}

// runServingScale measures the serving loop on the production-scale
// instance: every step applies one mutation, acquires a snapshot, and
// answers one top-10 query on it.
func runServingScale(opts Options) (ServingScaleCase, error) {
	n, dims := opts.ProdSize, 2
	objs := datagen.Objects(datagen.AntiCorrelated, n, dims, opts.Seed)
	funcs := datagen.Functions(prodFuncsFor(n), dims, opts.Seed+3)
	p := &assign.Problem{Dims: dims, Objects: objs, Functions: funcs}
	steps := servingScaleSteps(n)
	muts := servingMutationScript(objs, dims, steps, opts.Seed+11)
	queryScorers := make([]assign.Function, 8)
	copy(queryScorers, funcs)

	c := ServingScaleCase{Name: "serving_scale", N: n, Dims: dims, Steps: steps,
		Detail: "serving loop: mutate, snapshot, top-10"}
	e, err := assign.NewWorkspace(p, assign.Config{})
	if err != nil {
		return c, fmt.Errorf("serving_scale: %w", err)
	}
	defer e.Close()
	// Settle the heap first, as measure does, so the loop does not pay
	// for collecting what construction and earlier sections left behind.
	runtime.GC()

	var applyNS, snapNS int64
	topkNS := make([]time.Duration, 0, steps)
	prev := e.Stats()
	loopStart := time.Now()
	for i, m := range muts {
		t0 := time.Now()
		if err := e.Apply([]assign.Mutation{m}); err != nil {
			return c, fmt.Errorf("serving_scale: step %d: %w", i, err)
		}
		d := time.Since(t0)
		applyNS += d.Nanoseconds()
		st := e.Stats()
		if chain := st.ChainSteps - prev.ChainSteps; i == 0 || chain > c.SlowestApply.ChainSteps {
			c.SlowestApply = SlowApply{Step: i, ChainSteps: chain,
				Searches: st.Searches - prev.Searches, MS: float64(d.Nanoseconds()) / 1e6}
		}
		prev = st
		t1 := time.Now()
		v, err := e.Snapshot()
		if err != nil {
			return c, err
		}
		snapNS += time.Since(t1).Nanoseconds()
		q := queryScorers[i%len(queryScorers)].Scorer()
		t2 := time.Now()
		_, _, err = v.TopKScorer(q, 10)
		topkNS = append(topkNS, time.Since(t2))
		v.Close()
		if err != nil {
			return c, err
		}
	}
	wall := time.Since(loopStart)

	final := e.Pairs()
	snap := e.ProblemSnapshot()
	e.Close()
	cold, err := assign.SB(snap, assign.Config{})
	if err != nil {
		return c, fmt.Errorf("serving_scale: cold solve: %w", err)
	}
	c.Identical = matchingEqual(final, cold.Pairs)

	sort.Slice(topkNS, func(i, j int) bool { return topkNS[i] < topkNS[j] })
	rank := func(p float64) int64 {
		i := int(p*float64(len(topkNS))+0.9999999) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(topkNS) {
			i = len(topkNS) - 1
		}
		return topkNS[i].Nanoseconds()
	}
	c.MutationsPerSec = float64(steps) / wall.Seconds()
	c.ApplyNsPerOp = applyNS / int64(steps)
	c.SnapNsPerOp = snapNS / int64(steps)
	c.TopKP50NS = rank(0.50)
	c.TopKP99NS = rank(0.99)
	return c, nil
}
