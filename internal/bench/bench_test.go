package bench

import (
	"testing"
	"time"
)

// TestRunTiny exercises the whole pipeline on a tiny instance: every
// case must report identical cold/warm I/O (the cache is invisible to
// the paper's metrics) and the warm cacheable paths must allocate less.
func TestRunTiny(t *testing.T) {
	rep, err := Run(Options{
		Seed:   1,
		Sizes:  []int{400},
		Dims:   []int{2},
		Budget: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cases) != 4 {
		t.Fatalf("got %d cases, want 4", len(rep.Cases))
	}
	for _, c := range rep.Cases {
		if !c.IOIdentical {
			t.Errorf("%s: cold/warm I/O diverged (cold %d/%d, warm %d/%d)",
				c.Name, c.Cold.LogicalReads, c.Cold.PhysicalIO, c.Warm.LogicalReads, c.Warm.PhysicalIO)
		}
		if c.Cold.Iterations == 0 || c.Warm.Iterations == 0 {
			t.Errorf("%s: zero iterations", c.Name)
		}
	}
	// The headline case: warm node reads must be allocation-free.
	for _, c := range rep.Cases {
		if c.Name == "readnode_warm" && c.Warm.AllocsPerOp != 0 {
			t.Errorf("readnode_warm allocates %d per op warm, want 0", c.Warm.AllocsPerOp)
		}
	}
}

func TestApplyBaseline(t *testing.T) {
	rep := &Report{Cases: []Case{{Name: "bbs", N: 100, Dims: 2, Warm: Metrics{AllocsPerOp: 10, NsPerOp: 50}}}}
	base := &Report{Cases: []Case{{Name: "bbs", N: 100, Dims: 2, Warm: Metrics{AllocsPerOp: 100, NsPerOp: 100}}}}
	ApplyBaseline(rep, base)
	d := rep.Cases[0].VsBaseline
	if d == nil {
		t.Fatal("no baseline delta attached")
	}
	if d.AllocsReductionPct != 90 || d.NsReductionPct != 50 {
		t.Fatalf("deltas = %+v, want 90%% allocs / 50%% ns", d)
	}
}
