package bench

import (
	"fmt"
	"math/rand"

	"fairassign/internal/assign"
	"fairassign/internal/datagen"
	"fairassign/internal/geom"
	"fairassign/internal/score"
)

// servingScaleSteps bounds the serving loop: enough steps, one sample
// each, for a stable median, few enough to stay affordable at n = 10⁶.
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
// answers one top-10 query on it. Each step is one sample of each of
// the three, and of their sum. The gate checks the final matching
// against a cold SB solve of the final population, pair for pair.
func runServingScale(o Options) (Row, error) {
	n, dims := o.ProdSize, 2
	objs := datagen.Objects(datagen.AntiCorrelated, n, dims, o.Seed)
	funcs := datagen.Functions(prodFuncsFor(n), dims, o.Seed+3)
	steps := servingScaleSteps(n)
	muts := servingMutationScript(objs, dims, steps, o.Seed+11)
	row := Row{Name: "serving_scale", N: n, Dims: dims}
	e, err := assign.NewWorkspace(&assign.Problem{Dims: dims, Objects: objs, Functions: funcs}, assign.Config{})
	if err != nil {
		return row, fmt.Errorf("serving_scale: %w", err)
	}
	defer e.Close()

	queries := make([]score.Scorer, 8)
	for i := range queries {
		queries[i] = funcs[i].Scorer()
	}
	step := 0
	var v *assign.View
	apply := func() error { return e.Apply(muts[step : step+1]) }
	snapshot := func() (err error) {
		v, err = e.Snapshot()
		return err
	}
	query := func() error { // the view closes before the next Apply
		defer v.Close()
		_, _, err := v.TopKScorer(queries[step%len(queries)], 10)
		step++
		return err
	}
	counters := []func() int64{
		func() int64 { return e.Stats().ChainSteps },
		func() int64 { return e.Stats().Searches },
	}
	w, err := sample(0, steps, counters, apply, snapshot, query)
	if err != nil {
		return row, fmt.Errorf("serving_scale: step %d: %w", step, err)
	}

	final := e.Pairs()
	snap := e.ProblemSnapshot()
	e.Close()
	cold, err := assign.SB(snap, assign.Config{})
	if err != nil {
		return row, fmt.Errorf("serving_scale: cold solve: %w", err)
	}
	row.Identical = matchingEqual(final, cold.Pairs)

	// The Apply with the longest repair cascade (most chain steps, ties
	// to the earlier step), so the cost per chain step of the worst
	// vacancy chain can be read off the report. It is chosen by chain
	// steps, not by wall time, so host noise cannot pick a mutation that
	// ran no cascade.
	slow := 0
	loop := make([]float64, steps)
	for i := range steps {
		if w[0][i].counts[0] > w[0][slow].counts[0] {
			slow = i
		}
		loop[i] = float64(w[0][i].ns + w[1][i].ns + w[2][i].ns)
	}
	sw := w[0][slow]
	row.Detail = fmt.Sprintf("%d steps of mutate, snapshot, top-10; longest repair cascade: step %d, %d chain steps, %d searches, %.2f ms",
		steps, slow, sw.counts[0], sw.counts[1], float64(sw.ns)/1e6)
	row.Metrics = map[string]Stat{
		"step_ns_per_op":     stat(loop),
		"apply_ns_per_op":    per(w[0], nsPerOp),
		"snapshot_ns_per_op": per(w[1], nsPerOp),
		"topk_ns_per_op":     per(w[2], nsPerOp),
	}
	return row, nil
}
