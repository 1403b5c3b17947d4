package bench

import (
	"fmt"

	"fairassign/internal/assign"
	"fairassign/internal/datagen"
	"fairassign/internal/rtree"
	"fairassign/internal/score"
	"fairassign/internal/topk"
)

// scorerBenchFamilies is the measured sweep: the paper's linear model
// against the order-weighted average (and its egalitarian minimax
// special case), the Chebyshev max, and the L2 norm.
var scorerBenchFamilies = []string{"linear", "owa", "minimax", "chebyshev", "lp"}

// familyFuncs returns funcs re-parameterized into one scoring family
// (linear keeps them as they are), with their scorers.
func familyFuncs(funcs []assign.Function, fam string, seed int64) ([]assign.Function, []score.Scorer) {
	if fam != "linear" {
		funcs = datagen.WithScorerFamilies(funcs, fam, seed+7)
	}
	scorers := make([]score.Scorer, len(funcs))
	for i, f := range funcs {
		scorers[i] = f.Scorer()
	}
	return funcs, scorers
}

// topKOp returns an op answering one top-10 query over the tree per
// call, rotating through the scorers.
func topKOp(tree *rtree.Tree, scorers []score.Scorer) func() error {
	i := 0
	return func() error {
		_, _, err := topk.TopKScorer(tree, scorers[i%len(scorers)], 10, nil)
		i++
		return err
	}
}

// runScorerFamilies measures every scoring family on identical data at
// one (n, dims): the full SB stable-assignment solve, and single-user
// BRS top-10 queries over a warm index. The linear row is the paper's
// workload; the non-linear rows price what the generalization costs
// when it is actually used.
func runScorerFamilies(n, dims int, o Options) ([]Row, error) {
	objs := datagen.Objects(datagen.AntiCorrelated, n, dims, o.Seed)
	baseFuncs := datagen.Functions(funcsFor(n), dims, o.Seed+3)
	tree, _, err := warmTree(objs, dims)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, fam := range scorerBenchFamilies {
		funcs, scorers := familyFuncs(baseFuncs, fam, o.Seed)
		p := &assign.Problem{Dims: dims, Objects: objs, Functions: funcs}
		pairs := 0
		solve := func() error {
			res, err := assign.SB(p, assign.Config{})
			if err == nil {
				pairs = len(res.Pairs)
			}
			return err
		}
		w, err := sample(o.window(), samples, nil, solve, topKOp(tree, scorers))
		if err != nil {
			return nil, fmt.Errorf("scorer_families/%s: %w", fam, err)
		}
		rows = append(rows, Row{Name: "scorer_families/" + fam, N: n, Dims: dims, Identical: true,
			Detail: fmt.Sprintf("%d pairs", pairs),
			Metrics: map[string]Stat{
				"solve_ns_per_op": per(w[0], nsPerOp),
				"topk_ns_per_op":  per(w[1], nsPerOp),
			}})
	}
	return rows, nil
}
