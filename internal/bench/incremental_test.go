package bench

import (
	"testing"
	"time"

	"fairassign/internal/assign"
)

// TestChurnOpsMatchColdSolve drives both churn kinds at a size large
// enough for a multi-level R-tree with real page traffic (the regime
// where stale index references would surface) and checks the repaired
// matching against a cold solve throughout.
func TestChurnOpsMatchColdSolve(t *testing.T) {
	cfg := assign.Config{PageSize: 512}
	for _, kind := range []string{"obj_churn", "func_churn"} {
		t.Run(kind, func(t *testing.T) {
			base := incrementalProblem(1500, 2, Options{Seed: 20090824})
			ws, err := assign.NewWorkspace(base, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer ws.Close()
			churn, err := churnOp(kind, ws, base)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ {
				if err := churn(); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				if i%4 != 3 {
					continue
				}
				snap := ws.ProblemSnapshot()
				cold, err := assign.SB(snap, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !matchingEqual(ws.Pairs(), cold.Pairs) {
					t.Fatalf("op %d: repaired matching differs from cold solve", i)
				}
			}
		})
	}
}

// TestIncrementalCaseRuns smoke-tests the pipeline scenario end to end
// at a small size and checks its invariants.
func TestIncrementalCaseRuns(t *testing.T) {
	rows, err := runIncremental(800, 3, Options{Seed: 7, Budget: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if !r.Identical {
			t.Errorf("%s: repaired matching diverged from cold solve", r.Name)
		}
		if r.Metrics["repair_ns_per_op"].Min <= 0 || r.Metrics["resolve_ns_per_op"].Min <= 0 {
			t.Errorf("%s: missing timings: %+v", r.Name, r.Metrics)
		}
		if r.Metrics["searches_per_mutation"].Median <= 0 {
			t.Errorf("%s: repair issued no searches", r.Name)
		}
	}
}
