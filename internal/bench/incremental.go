package bench

import (
	"fmt"
	"math"

	"fairassign/internal/assign"
	"fairassign/internal/datagen"
)

// incrementalProblem builds the dynamic-workload instance: n
// independently distributed objects, n/20 preference functions.
// Independent (not anti-correlated) data keeps the identity gate
// meaningful: the anti-correlated generator places a fraction of points
// exactly on the diagonal, where hundreds of functions collide at the
// last ulp of the score and the stable matching is no longer unique —
// SB resolves such exact ties by TA scan order while the workspace uses
// the definitional (score, function ID, object ID) order, so the two
// can legitimately return different (equally stable) tie resolutions.
func incrementalProblem(n, dims int, opts Options) *assign.Problem {
	return &assign.Problem{
		Dims:      dims,
		Objects:   datagen.Objects(datagen.Independent, n, dims, opts.Seed),
		Functions: datagen.Functions(funcsFor(n), dims, opts.Seed+3),
	}
}

// runIncremental compares single-mutation updates applied two ways, for
// both churn kinds at one (n, dims): in place on a long-lived Workspace
// (chain repair), and by mutating a mirror instance and re-running a
// from-scratch SB solve, the only option the one-shot API offers. The
// two are sampled in alternating windows. The gate checks that the
// repaired matching equals a cold solve of the final population, so the
// speedup is not bought with a different answer.
func runIncremental(n, dims int, o Options) ([]Row, error) {
	var rows []Row
	for _, kind := range []string{"obj_churn", "func_churn"} {
		r, err := incrementalRow(kind, n, dims, o)
		if err != nil {
			return nil, fmt.Errorf("incremental_%s: %w", kind, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

func incrementalRow(kind string, n, dims int, o Options) (Row, error) {
	base := incrementalProblem(n, dims, o)
	ws, err := assign.NewWorkspace(base, assign.Config{})
	if err != nil {
		return Row{}, err
	}
	defer ws.Close()
	repair, err := churnOp(kind, ws, base)
	if err != nil {
		return Row{}, err
	}
	// The mirror workspace only supplies mutation targets, kept in step
	// by the same churn; the measured work is the solve.
	mirror := incrementalProblem(n, dims, o)
	mirrorWS, err := assign.NewWorkspace(mirror, assign.Config{})
	if err != nil {
		return Row{}, err
	}
	defer mirrorWS.Close()
	churn, err := churnOp(kind, mirrorWS, mirror)
	if err != nil {
		return Row{}, err
	}
	resolve := func() error {
		if err := churn(); err != nil {
			return err
		}
		_, err := assign.SB(mirrorWS.ProblemSnapshot(), assign.Config{})
		return err
	}
	counters := []func() int64{
		func() int64 { return ws.Stats().Mutations },
		func() int64 { return ws.Stats().ChainSteps },
		func() int64 { return ws.Stats().Searches },
	}
	w, err := sample(o.window(), samples, counters, repair, resolve)
	if err != nil {
		return Row{}, err
	}
	perMutation := func(j int) func(window) float64 {
		return func(w window) float64 { return float64(w.counts[j]) / float64(w.counts[0]) }
	}
	cold, err := assign.SB(ws.ProblemSnapshot(), assign.Config{})
	if err != nil {
		return Row{}, err
	}
	return Row{Name: "incremental_" + kind, N: n, Dims: dims,
		Identical: matchingEqual(ws.Pairs(), cold.Pairs),
		Detail:    "one departure and one arrival per operation",
		Metrics: map[string]Stat{
			"repair_ns_per_op":         per(w[0], nsPerOp),
			"resolve_ns_per_op":        per(w[1], nsPerOp),
			"speedup_x":                speedup(w[1], w[0]),
			"chain_steps_per_mutation": per(w[0], perMutation(1)),
			"searches_per_mutation":    per(w[0], perMutation(2)),
		}}, nil
}

// churnOp returns an op applying one departure + one arrival to the
// workspace, keeping the population size constant. Object churn removes
// the object currently assigned to a rotating function (forcing a
// re-chain) and lists an identical replacement under a fresh ID;
// function churn rotates a user out and back in.
func churnOp(kind string, ws *assign.Workspace, base *assign.Problem) (func() error, error) {
	nextID := uint64(1 << 40)
	switch kind {
	case "obj_churn":
		fids := make([]uint64, len(base.Functions))
		for i, f := range base.Functions {
			fids[i] = f.ID
		}
		i := 0
		return func() error {
			// Rotate over functions; churn each one's assigned object.
			var victim uint64
			var point []float64
			for tries := 0; tries < len(fids); tries++ {
				ps := ws.PairsOf(fids[i%len(fids)])
				i++
				if len(ps) > 0 {
					victim = ps[0].ObjectID
					break
				}
			}
			if victim == 0 {
				return fmt.Errorf("bench: no assigned object to churn")
			}
			pt, ok := ws.ObjectPoint(victim)
			if !ok {
				return fmt.Errorf("bench: victim %d not found", victim)
			}
			point = pt.Clone()
			if err := ws.RemoveObject(victim); err != nil {
				return err
			}
			nextID++
			return ws.AddObject(assign.Object{ID: nextID, Point: point})
		}, nil
	case "func_churn":
		// Cycle each function out and back in (same weights, fresh ID).
		type slot struct {
			id uint64
			f  assign.Function
		}
		ring := make([]slot, len(base.Functions))
		for i, f := range base.Functions {
			ring[i] = slot{id: f.ID, f: f}
		}
		i := 0
		return func() error {
			s := &ring[i%len(ring)]
			i++
			if err := ws.RemoveFunction(s.id); err != nil {
				return err
			}
			nextID++
			nf := s.f
			nf.ID = nextID
			if err := ws.AddFunction(nf); err != nil {
				return err
			}
			s.id = nextID
			return nil
		}, nil
	}
	return nil, fmt.Errorf("bench: unknown churn kind %q", kind)
}

// matchingEqual compares two matchings as (function, object) multisets
// with scores equal to within floating-point roundoff.
func matchingEqual(a, b []assign.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	type key struct {
		f, o uint64
	}
	count := make(map[key]int, len(a))
	score := make(map[key]float64, len(a))
	for _, p := range b {
		count[key{p.FuncID, p.ObjectID}]++
		score[key{p.FuncID, p.ObjectID}] = p.Score
	}
	for _, p := range a {
		k := key{p.FuncID, p.ObjectID}
		if count[k] == 0 {
			return false
		}
		count[k]--
		if math.Abs(score[k]-p.Score) > 1e-9 {
			return false
		}
	}
	return true
}
