package traffic

import (
	"testing"

	"fairassign"
)

func shardedSpec() Spec {
	s := testSpec()
	s.Shards = 3
	return s
}

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

// TestShardedTraceRoutingKeys asserts sharded traces tag every object
// mutation with an in-range routing key and leave reads and function
// mutations untagged.
func TestShardedTraceRoutingKeys(t *testing.T) {
	tr, err := NewTrace(shardedSpec())
	if err != nil {
		t.Fatal(err)
	}
	tagged := 0
	for i, op := range tr.Ops {
		if op.Class != ClassMutation && op.Shard != -1 {
			t.Fatalf("op %d: read tagged with shard %d", i, op.Shard)
		}
		if op.Class == ClassMutation && op.Shard >= 0 {
			if op.Shard >= tr.Spec.Shards {
				t.Fatalf("op %d: routing key %d out of range", i, op.Shard)
			}
			tagged++
		}
	}
	if tagged == 0 {
		t.Fatal("no mutation carried a routing key")
	}
	// Unsharded traces carry no keys at all.
	plain, err := NewTrace(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range plain.Ops {
		if op.Shard != -1 {
			t.Fatalf("unsharded trace op %d tagged with shard %d", i, op.Shard)
		}
	}
}

// TestShardedModeMatchesSequential drives the same trace through the
// baseline sequential writer and a partitioned workspace (ModeSharded)
// and requires the identical final matching — the loadgen-level shard
// invariance check.
func TestShardedModeMatchesSequential(t *testing.T) {
	tr, err := NewTrace(shardedSpec())
	if err != nil {
		t.Fatal(err)
	}
	base, basePairs, err := Run(tr, ModeSequential, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, pairs, err := Run(tr, ModeSharded, 32)
	if err != nil {
		t.Fatal(err)
	}
	if res.MutationErrors > 0 {
		t.Fatalf("sharded run rejected %d mutations from a well-formed trace", res.MutationErrors)
	}
	if res.Shards != 3 || len(res.PerShard) != 3 {
		t.Fatalf("missing per-shard breakdown: %+v", res)
	}
	perShard := 0
	for _, cs := range res.PerShard {
		perShard += cs.Count
	}
	if perShard == 0 {
		t.Fatal("per-shard latency breakdown is empty")
	}
	if perShard > res.Classes[ClassMutation.String()].Count {
		t.Fatalf("per-shard mutation count %d exceeds global %d", perShard, res.Classes[ClassMutation.String()].Count)
	}
	if !samePairs(basePairs, pairs) {
		t.Fatalf("sharded final matching differs from sequential (%d vs %d pairs)", base.FinalPairs, res.FinalPairs)
	}
}

// TestRunClosedMatchesSequential drives the closed-loop mode (sharded
// backend, per-lane writers) and requires the same final matching as
// the baseline: lanes touch disjoint entities, so any in-order lane
// interleaving converges to the same stable matching.
func TestRunClosedMatchesSequential(t *testing.T) {
	tr, err := NewTrace(shardedSpec())
	if err != nil {
		t.Fatal(err)
	}
	_, basePairs, err := Run(tr, ModeSequential, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, pairs, err := RunClosed(tr, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	if res.MutationErrors > 0 {
		t.Fatalf("closed-loop run rejected %d mutations", res.MutationErrors)
	}
	if res.Mode != ModeClosed || res.Clients != 4 || res.Shards != 3 {
		t.Fatalf("result metadata: %+v", res)
	}
	if !samePairs(basePairs, pairs) {
		t.Fatal("closed-loop final matching differs from sequential")
	}
	// Closed loop on the unsharded backend too (single writer lane).
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
	if cres.MutationErrors > 0 || cres.Shards != 0 {
		t.Fatalf("plain closed-loop: %+v", cres)
	}
	if !samePairs(plainBase, cpairs) {
		t.Fatal("plain closed-loop final matching differs from sequential")
	}
}
