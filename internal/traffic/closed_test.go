package traffic

import (
	"testing"

	"fairassign"
)

// samePairs compares two matchings as (function, object) multisets.
func samePairs(a, b []fairassign.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[[2]uint64]int, len(a))
	for _, p := range a {
		m[[2]uint64{p.FunctionID, p.ObjectID}]++
	}
	for _, p := range b {
		k := [2]uint64{p.FunctionID, p.ObjectID}
		if m[k] == 0 {
			return false
		}
		m[k]--
	}
	return true
}

// TestRunClosedMatchesSequential drives the closed-loop mode (one
// in-order writer client behind a MutationQueue) and requires the same
// final matching as the baseline sequential run.
func TestRunClosedMatchesSequential(t *testing.T) {
	plain, err := NewTrace(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	_, plainBase, err := Run(plain, ModeSequential, 0)
	if err != nil {
		t.Fatal(err)
	}
	cres, cpairs, err := RunClosed(plain, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cres.MutationErrors > 0 || cres.Mode != ModeClosed || cres.Clients != 2 {
		t.Fatalf("plain closed-loop: %+v", cres)
	}
	if !samePairs(plainBase, cpairs) {
		t.Fatal("plain closed-loop final matching differs from sequential")
	}
}
