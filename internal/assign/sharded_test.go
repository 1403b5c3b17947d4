package assign_test

import (
	"errors"
	"testing"

	"fairassign/internal/assign"
	"fairassign/internal/datagen"
	"fairassign/internal/geom"
)

func testProblem(t *testing.T, n int) *assign.Problem {
	t.Helper()
	return &assign.Problem{
		Dims:      2,
		Objects:   datagen.Objects(datagen.Independent, n, 2, 42),
		Functions: datagen.Functions(8, 2, 43),
	}
}

func TestPartitionerSpatialBalance(t *testing.T) {
	objs := datagen.Objects(datagen.Independent, 1000, 3, 7)
	for _, n := range []int{1, 2, 4, 7} {
		p := assign.NewPartitioner(3, n, objs)
		if p.Kind() != "spatial" {
			t.Fatalf("n=%d: kind = %s, want spatial", n, p.Kind())
		}
		counts := make([]int, n)
		for _, o := range objs {
			s := p.Route(o.Point, o.ID)
			if s < 0 || s >= n {
				t.Fatalf("n=%d: route(%d) = %d out of range", n, o.ID, s)
			}
			counts[s]++
		}
		for s, c := range counts {
			if c < 1000/n-1 || c > 1000/n+1 {
				t.Fatalf("n=%d: shard %d holds %d objects, want ~%d", n, s, c, 1000/n)
			}
		}
	}
}

func TestPartitionerHashFallback(t *testing.T) {
	// Every object on the same point: no axis has enough distinct
	// coordinates, so Auto must fall back to hashing.
	objs := make([]assign.Object, 64)
	for i := range objs {
		objs[i] = assign.Object{ID: uint64(i + 1), Point: geom.Point{0.5, 0.5}}
	}
	p := assign.NewPartitioner(2, 4, objs)
	if p.Kind() != "hash" {
		t.Fatalf("kind = %s, want hash fallback", p.Kind())
	}
	counts := make([]int, 4)
	for _, o := range objs {
		counts[p.Route(o.Point, o.ID)]++
	}
	for s, c := range counts {
		if c == 0 {
			t.Fatalf("hash routing left shard %d empty: %v", s, counts)
		}
	}
}

func TestPartitionerRouteStable(t *testing.T) {
	objs := datagen.Objects(datagen.Correlated, 200, 2, 11)
	p := assign.NewPartitioner(2, 4, objs)
	// Routing is a pure function: the same (point, ID) always lands on
	// the same shard, including points never seen at construction.
	fresh := datagen.Objects(datagen.Correlated, 50, 2, 12)
	for _, o := range append(objs, fresh...) {
		a, b := p.Route(o.Point, o.ID), p.Route(o.Point, o.ID)
		if a != b {
			t.Fatalf("route(%d) unstable: %d vs %d", o.ID, a, b)
		}
	}
}

func TestEngineRejectsDurability(t *testing.T) {
	p := testProblem(t, 50)
	if _, err := assign.NewWorkspace(p, assign.Config{Durable: true, Shards: 2}); !errors.Is(err, assign.ErrDurabilityUnsupported) {
		t.Fatalf("Durable config: err = %v, want ErrDurabilityUnsupported", err)
	}
	if _, err := assign.NewWorkspace(p, assign.Config{WALDir: t.TempDir(), Shards: 2}); !errors.Is(err, assign.ErrDurabilityUnsupported) {
		t.Fatalf("WALDir config: err = %v, want ErrDurabilityUnsupported", err)
	}
}

func TestSnapshotIsolationAcrossShards(t *testing.T) {
	e, err := assign.NewWorkspace(testProblem(t, 120), assign.Config{PageSize: 512, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	before, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer before.Close()
	frozen := append([]assign.Pair(nil), before.Pairs()...)
	seq := before.Epoch()

	// Mutate: one arrival and one departure, routed to whatever shards
	// own them.
	if err := e.Apply([]assign.Mutation{
		{Kind: assign.MutAddObject, Object: assign.Object{ID: 900_001, Point: geom.Point{0.31, 0.62}}},
		{Kind: assign.MutRemoveObject, ID: frozen[0].ObjectID},
	}); err != nil {
		t.Fatal(err)
	}

	after, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	if after.Epoch() <= seq {
		t.Fatalf("sequence did not advance: %d -> %d", seq, after.Epoch())
	}
	got := before.Pairs()
	if len(got) != len(frozen) {
		t.Fatalf("pinned view drifted: %d pairs, had %d", len(got), len(frozen))
	}
	for i := range got {
		if got[i] != frozen[i] {
			t.Fatalf("pinned view drifted at pair %d", i)
		}
	}
	if err := before.VerifyStable(); err != nil {
		t.Fatalf("pinned view unstable for its own population: %v", err)
	}
	if err := after.VerifyStable(); err != nil {
		t.Fatalf("fresh view unstable: %v", err)
	}
	if _, ok := after.Object(900_001); !ok {
		t.Fatal("fresh view missing the arrival")
	}
	if _, ok := before.Object(900_001); ok {
		t.Fatal("pinned view sees the future")
	}
}

func TestCleanShardCaptureReuse(t *testing.T) {
	e, err := assign.NewWorkspace(testProblem(t, 400), assign.Config{PageSize: 512, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	v1, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer v1.Close()

	// A single object arrival dirties exactly one shard. The next
	// snapshot must reuse the other shards' cached captures: same
	// shardPub pointers, new one only where the mutation landed.
	o := assign.Object{ID: 900_100, Point: geom.Point{0.77, 0.18}}
	dirty := e.RouteObject(o.Point, o.ID)
	if err := e.Apply([]assign.Mutation{{Kind: assign.MutAddObject, Object: o}}); err != nil {
		t.Fatal(err)
	}
	v2, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	e1, e2 := v1.PartitionedStats().Partitions, v2.PartitionedStats().Partitions
	for i := range e1 {
		same := assign.PartitionCapture(v1, i) == assign.PartitionCapture(v2, i)
		if i == dirty && same {
			t.Fatalf("dirty shard %d did not recapture", i)
		}
		if i != dirty && !same {
			t.Fatalf("clean shard %d recaptured (epoch %d -> %d)", i,
				e1[i].Epoch, e2[i].Epoch)
		}
	}
	// Epochs advance only on the dirty shard.
	if e2[dirty].Epoch <= e1[dirty].Epoch {
		t.Fatalf("dirty shard epoch did not advance")
	}
}

func TestShardStatsDecompose(t *testing.T) {
	e, err := assign.NewWorkspace(testProblem(t, 150), assign.Config{PageSize: 512, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := e.PartitionedStats()
	if len(s.Partitions) != 3 {
		t.Fatalf("shard count: %+v", s)
	}
	objs, units, frontier := 0, 0, 0
	for _, ps := range s.Partitions {
		objs += ps.Objects
		units += ps.AssignedUnits
		frontier += ps.Frontier
	}
	if objs != s.Objects || units != s.AssignedUnits || frontier != s.SkylineSize {
		t.Fatalf("per-shard totals (%d, %d, %d) disagree with globals (%d, %d, %d)",
			objs, units, frontier, s.Objects, s.Functions, s.AssignedUnits)
	}
	if s.Objects != 150 {
		t.Fatalf("objects = %d, want 150", s.Objects)
	}
}

func TestUseAfterClose(t *testing.T) {
	e, err := assign.NewWorkspace(testProblem(t, 60), assign.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if _, err := e.Snapshot(); !errors.Is(err, assign.ErrClosed) {
		t.Fatalf("Snapshot after Close: %v, want ErrClosed", err)
	}
	if err := e.Apply([]assign.Mutation{{Kind: assign.MutRemoveObject, ID: 1}}); !errors.Is(err, assign.ErrClosed) {
		t.Fatalf("Apply after Close: %v, want ErrClosed", err)
	}
	// The pre-close view keeps serving its pinned state.
	if err := v.VerifyStable(); err != nil {
		t.Fatalf("pre-close view died with the engine: %v", err)
	}
	v.Close()
	if _, _, err := v.TopK([]float64{0.5, 0.5}, 3); !errors.Is(err, assign.ErrViewClosed) {
		t.Fatalf("TopK on closed view: %v, want ErrViewClosed", err)
	}
}
