package fairassign

import (
	"errors"
	"math"
	"testing"
)

func shardedTwin(t *testing.T, shards int) (*Workspace, *Workspace) {
	t.Helper()
	objects := GenerateObjects(Independent, 150, 3, 21)
	functions := GenerateFunctions(12, 3, 22)
	sw, err := NewWorkspace(objects, functions, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sw.Close)
	ws, err := NewWorkspace(objects, functions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ws.Close)
	return sw, ws
}

// TestPartitionedWorkspaceMatchesWorkspace drives identical mutations
// into a 4-partition workspace and its single-partition twin and
// requires byte-identical assignments, invariant stats, and identical
// TopK output — the public-API face of the shard-count invariance the
// conformance sweep asserts exhaustively.
func TestPartitionedWorkspaceMatchesWorkspace(t *testing.T) {
	sw, ws := shardedTwin(t, 4)

	muts := []Mutation{
		AddObjectOp(Object{ID: 5000, Attributes: []float64{0.9, 0.2, 0.4}}),
		AddFunctionOp(Function{ID: 5000, Weights: []float64{1, 2, 3}}),
		RemoveObjectOp(7),
		AddObjectOp(Object{ID: 5001, Attributes: []float64{0.05, 0.95, 0.5}, Capacity: 2}),
		RemoveFunctionOp(3),
	}
	for i, m := range muts {
		if err := sw.Apply([]Mutation{m}); err != nil {
			t.Fatalf("sharded mutation %d: %v", i, err)
		}
		if err := ws.Apply([]Mutation{m}); err != nil {
			t.Fatalf("twin mutation %d: %v", i, err)
		}
		got, want := sw.Assignment(), ws.Assignment()
		if len(got) != len(want) {
			t.Fatalf("after mutation %d: %d pairs, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j].FunctionID != want[j].FunctionID || got[j].ObjectID != want[j].ObjectID ||
				math.Float64bits(got[j].Score) != math.Float64bits(want[j].Score) {
				t.Fatalf("after mutation %d: pair %d differs: %+v vs %+v", i, j, got[j], want[j])
			}
		}
	}
	if err := sw.Verify(); err != nil {
		t.Fatal(err)
	}
	ss, ts := sw.Stats(), ws.Stats()
	if ss.Objects != ts.Objects || ss.Functions != ts.Functions || ss.AssignedUnits != ts.AssignedUnits {
		t.Fatalf("invariant stats differ: sharded %+v vs %+v", ss, ts)
	}

	// TopK through the ceiling merge equals the single-tree search.
	sv, err := sw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	wv, err := ws.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer wv.Close()
	pref := Function{Weights: []float64{0.2, 0.5, 0.3}}
	got, err := sv.TopK(pref, 10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := wv.TopK(pref, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("TopK: %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Object.ID != want[i].Object.ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("TopK result %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestShardedQueueRouting checks the per-shard lanes: object mutations
// land on their owning shard's lane, commits coalesce, and the result
// matches a direct Apply twin.
func TestShardedQueueRouting(t *testing.T) {
	sw, ws := shardedTwin(t, 3)
	q := NewShardedQueue(sw, 16)
	// Routing is observable before enqueueing.
	add := AddObjectOp(Object{ID: 9000, Attributes: []float64{0.5, 0.5, 0.5}})
	if sh := q.partitionOf(add); sh < 0 || sh >= 3 {
		t.Fatalf("partitionOf(add) = %d", sh)
	}
	if lane := q.route(AddFunctionOp(Function{ID: 9000, Weights: []float64{1, 1, 1}})); lane != q.queues[3] {
		t.Fatal("function op not routed to the global lane")
	}

	muts := []Mutation{
		add,
		AddObjectOp(Object{ID: 9001, Attributes: []float64{0.9, 0.1, 0.2}}),
		RemoveObjectOp(5),
		AddFunctionOp(Function{ID: 9000, Weights: []float64{1, 1, 1}}),
		RemoveObjectOp(11),
	}
	// Adds followed at once by their removals, for objects owned by lanes
	// other than 0: the workspace cannot route such a removal until the
	// add commits, so the queue must send it down the add's lane.
	for i := 0; i < 8; i++ {
		o := Object{ID: uint64(9100 + i), Attributes: []float64{0.95 - 0.1*float64(i), 0.5, 0.5}}
		if q.partitionOf(AddObjectOp(o)) == 0 {
			continue
		}
		muts = append(muts, AddObjectOp(o), RemoveObjectOp(o.ID))
	}
	if len(muts) == 5 {
		t.Fatal("no probe object routed to a lane other than 0")
	}
	acks := make([]<-chan error, len(muts))
	for i, m := range muts {
		acks[i] = q.Enqueue(m)
	}
	for i, ch := range acks {
		if err := <-ch; err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	q.Close()
	if err := ws.Apply(muts); err != nil {
		t.Fatal(err)
	}
	sameAssignment(t, "sharded queue vs direct", sw.Assignment(), ws.Assignment())
	qs := q.Stats()
	if qs.Mutations != int64(len(muts)) {
		t.Fatalf("queue stats: %+v, want %d mutations", qs, len(muts))
	}
	// RemoveObject of a routed object reports its actual owner.
	if sh, want := q.partitionOf(RemoveObjectOp(9001)), q.partitionOf(AddObjectOp(Object{ID: 9001, Attributes: []float64{0.9, 0.1, 0.2}})); sh != want {
		t.Fatalf("remove routed to %d, owner is %d", sh, want)
	}
}

// TestPartitionedWorkspaceRejectsDurability pins the public error for
// the unsupported durable configuration.
func TestPartitionedWorkspaceRejectsDurability(t *testing.T) {
	objects := GenerateObjects(Independent, 40, 2, 31)
	functions := GenerateFunctions(6, 2, 32)
	if _, err := NewWorkspace(objects, functions, Options{Shards: 2, Durable: true}); !errors.Is(err, ErrDurabilityUnsupported) {
		t.Fatalf("Durable: err = %v, want ErrDurabilityUnsupported", err)
	}
	if _, err := NewWorkspace(objects, functions, Options{Shards: 2, WALDir: t.TempDir()}); !errors.Is(err, ErrDurabilityUnsupported) {
		t.Fatalf("WALDir: err = %v, want ErrDurabilityUnsupported", err)
	}
}

// TestOpenWorkspaceRejectsShards asserts recovery refuses more than one
// object partition instead of silently restoring a single one: the
// directory holds a valid durable workspace, which opens with the
// default partition count.
func TestOpenWorkspaceRejectsShards(t *testing.T) {
	dir := t.TempDir()
	ws, err := NewWorkspace(GenerateObjects(Independent, 40, 2, 33), GenerateFunctions(6, 2, 34), Options{Durable: true, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.RemoveObject(3); err != nil {
		t.Fatal(err)
	}
	ws.Close()
	if _, err := OpenWorkspace(Options{Shards: 2, WALDir: dir}); !errors.Is(err, ErrDurabilityUnsupported) {
		t.Fatalf("Shards 2: err = %v, want ErrDurabilityUnsupported", err)
	}
	rw, err := OpenWorkspace(Options{WALDir: dir})
	if err != nil {
		t.Fatalf("default partitions: %v", err)
	}
	rw.Close()
}
