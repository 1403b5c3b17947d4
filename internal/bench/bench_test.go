package bench

import (
	"strings"
	"testing"
	"time"
)

// TestRunTiny exercises the whole pipeline on a tiny instance: every row
// must pass its gate and carry only sampled metrics, and warm node reads
// must not allocate.
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
	for _, s := range rep.Sections() {
		for _, r := range s.Rows {
			if !r.Identical {
				t.Errorf("%s/%s: gate failed (%s)", s.Key, r.Name, r.Detail)
			}
			if len(r.Metrics) == 0 {
				t.Errorf("%s/%s: no metrics", s.Key, r.Name)
			}
			for name, m := range r.Metrics {
				if m.Samples < samples || m.Min > m.Median || m.Median > m.Max {
					t.Errorf("%s/%s: %s = %+v, want the median and range of at least %d samples",
						s.Key, r.Name, name, m, samples)
				}
				if strings.Contains(name, "ns_per_") && m.Min <= 0 {
					t.Errorf("%s/%s: %s = %+v, want a positive time", s.Key, r.Name, name, m)
				}
			}
		}
	}
	// The headline case: warm node reads must be allocation-free.
	for _, c := range rep.Cases {
		if c.Name == "readnode_warm" && c.Metrics["allocs_per_op"].Median != 0 {
			t.Errorf("readnode_warm allocates %+v per op, want 0", c.Metrics["allocs_per_op"])
		}
	}
}

func TestApplyBaseline(t *testing.T) {
	row := func(ns float64) []Row {
		return []Row{{Name: "bbs", N: 100, Dims: 2, Metrics: map[string]Stat{"ns_per_op": {Median: ns}}}}
	}
	rep := &Report{Cases: row(50), Production: row(300)}
	base := &Report{Cases: row(100), Incremental: row(10)}
	ApplyBaseline(rep, base)
	if d := rep.Cases[0].VsBaseline["ns_per_op"]; d != -50 {
		t.Fatalf("cases delta = %v%%, want -50%%", d)
	}
	// Rows match within their own section only.
	if rep.Production[0].VsBaseline != nil {
		t.Fatalf("production row compared against another section: %v", rep.Production[0].VsBaseline)
	}
}

// TestSampleWindows pins the sampler: every round gives each op one
// window, a window runs at least one operation, and counter deltas are
// per window.
func TestSampleWindows(t *testing.T) {
	var a, b int64
	ws, err := sample(0, 3, []func() int64{func() int64 { return a + b }},
		func() error { a++; return nil },
		func() error { b += 2; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 || len(ws[0]) != 3 || len(ws[1]) != 3 {
		t.Fatalf("got %d ops × %d windows, want 2 × 3", len(ws), len(ws[0]))
	}
	for i, w := range ws[1] {
		if w.ops != 1 || w.counts[0] != 2 {
			t.Fatalf("window %d of op 2: %d ops, counter delta %d; want 1 and 2", i, w.ops, w.counts[0])
		}
	}
	if a != 3 || b != 6 {
		t.Fatalf("ops ran %d and %d times, want 3 each", a, b/2)
	}
	if s := stat([]float64{4, 1, 3, 2}); s != (Stat{Median: 2.5, Min: 1, Max: 4, Samples: 4}) {
		t.Fatalf("stat = %+v", s)
	}
}
