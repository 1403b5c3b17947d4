package fairassign

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"
)

func durableOpts(t *testing.T) Options {
	t.Helper()
	return Options{
		PageSize:       512,
		BufferFraction: 0.1,
		WALDir:         filepath.Join(t.TempDir(), "dur"),
	}
}

// TestDurableWarmStartEndToEnd is the acceptance path: mutate, save at
// epoch E, reopen from disk, and serve Assignment / TopK / Verify
// identically — without re-solving.
func TestDurableWarmStartEndToEnd(t *testing.T) {
	objects := GenerateObjects(Independent, 100, 3, 11)
	functions := GenerateFunctions(15, 3, 12)
	opts := durableOpts(t)

	ws, err := NewWorkspace(objects, functions, opts)
	if err != nil {
		t.Fatal(err)
	}
	newObjs := GenerateObjects(Correlated, 10, 3, 13)
	for i := range newObjs {
		newObjs[i].ID = 5000 + uint64(i)
		if err := ws.AddObject(newObjs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ws.RemoveFunction(functions[3].ID); err != nil {
		t.Fatal(err)
	}
	if err := ws.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	wantAssign := ws.Assignment()
	wantStats := ws.Stats()
	probe := Function{ID: 9999, Weights: []float64{0.2, 0.5, 0.3}}
	wv, err := ws.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wantTopK, err := wv.TopK(probe, 7)
	if err != nil {
		t.Fatal(err)
	}
	wv.Close()
	ws.Close()

	r, err := OpenWorkspace(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	info := r.Recovery()
	if info == nil {
		t.Fatal("recovered workspace reports no RecoveryInfo")
	}
	if info.BatchesReplayed != 0 {
		t.Fatalf("warm start replayed %d batches, want 0", info.BatchesReplayed)
	}
	gotStats := r.Stats()
	if gotStats.Resolves != wantStats.Resolves {
		t.Fatalf("recovery re-solved: resolves %d, want %d", gotStats.Resolves, wantStats.Resolves)
	}
	if !reflect.DeepEqual(r.Assignment(), wantAssign) {
		t.Fatal("recovered assignment differs")
	}
	gotStats.IOAccesses, wantStats.IOAccesses = 0, 0
	if gotStats != wantStats {
		t.Fatalf("recovered stats = %+v, want %+v", gotStats, wantStats)
	}
	if err := r.Verify(); err != nil {
		t.Fatalf("recovered matching unstable: %v", err)
	}
	rv, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer rv.Close()
	gotTopK, err := rv.TopK(probe, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotTopK, wantTopK) {
		t.Fatalf("recovered TopK = %+v, want %+v", gotTopK, wantTopK)
	}

	// And the recovered workspace keeps serving mutations.
	if err := r.AddFunction(Function{ID: 8888, Weights: []float64{1, 2, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(); err != nil {
		t.Fatalf("post-recovery mutation broke stability: %v", err)
	}
}

func TestDurableCrashReplayEndToEnd(t *testing.T) {
	objects := GenerateObjects(Independent, 60, 2, 21)
	functions := GenerateFunctions(10, 2, 22)
	opts := durableOpts(t)

	ws, err := NewWorkspace(objects, functions, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Mutations after construction are only in the WAL — no explicit
	// snapshot. Abandon without Close to simulate a crash (the WAL was
	// fsynced before each acknowledgment).
	muts := []Mutation{
		AddObjectOp(Object{ID: 7000, Attributes: []float64{0.9, 0.8}}),
		AddFunctionOp(Function{ID: 7001, Weights: []float64{0.4, 0.6}}),
		RemoveObjectOp(objects[0].ID),
	}
	if err := ws.Apply(muts); err != nil {
		t.Fatal(err)
	}
	want := ws.Assignment()

	r, err := OpenWorkspace(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	info := r.Recovery()
	if info.BatchesReplayed != 1 || info.MutationsReplayed != 3 {
		t.Fatalf("recovery info = %+v, want 1 batch / 3 mutations replayed", info)
	}
	if !reflect.DeepEqual(r.Assignment(), want) {
		t.Fatal("replayed assignment differs from acknowledged state")
	}
	ws.Close()
}

func TestDurableTypedErrorsPublic(t *testing.T) {
	if _, err := OpenWorkspace(Options{}); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("OpenWorkspace without WALDir: %v", err)
	}
	if _, err := OpenWorkspace(Options{WALDir: filepath.Join(t.TempDir(), "empty")}); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("OpenWorkspace on empty dir: %v", err)
	}

	opts := durableOpts(t)
	ws, err := NewWorkspace(GenerateObjects(Independent, 20, 2, 1), GenerateFunctions(4, 2, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	ws.Close()
	if _, err := NewWorkspace(GenerateObjects(Independent, 20, 2, 1), GenerateFunctions(4, 2, 2), opts); !errors.Is(err, ErrDurableDirInUse) {
		t.Fatalf("NewWorkspace on used dir: %v", err)
	}

	nd, err := NewWorkspace(GenerateObjects(Independent, 20, 2, 1), GenerateFunctions(4, 2, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if err := nd.SaveSnapshot(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("SaveSnapshot without WALDir: %v", err)
	}
}
