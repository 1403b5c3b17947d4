package assign

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"fairassign/internal/geom"
	"fairassign/internal/metrics"
	"fairassign/internal/pagestore"
)

var errInjectedWS = errors.New("injected disk failure")

// faultSwitch arms failures on every store the workspace built from one
// factory — after construction, so the initial solve runs healthy.
type faultSwitch struct {
	failReads  bool
	failWrites bool
}

// faultyStore wraps a healthy store and fails the armed operations.
type faultyStore struct {
	pagestore.Store
	sw *faultSwitch
}

func (s *faultyStore) ReadPage(id pagestore.PageID, buf []byte) error {
	if s.sw.failReads {
		return errInjectedWS
	}
	return s.Store.ReadPage(id, buf)
}

func (s *faultyStore) WritePage(id pagestore.PageID, data []byte) error {
	if s.sw.failWrites {
		return errInjectedWS
	}
	return s.Store.WritePage(id, data)
}

func (s *faultyStore) IO() *metrics.IOCounter { return s.Store.IO() }

// faultyWorkspace builds a small live workspace whose every page store
// sits behind the returned fault switch, with buffering and node caching
// disabled so index traffic actually reaches the stores.
func faultyWorkspace(t *testing.T) (*Workspace, *faultSwitch) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	p := &Problem{Dims: 2}
	for i := 0; i < 40; i++ {
		p.Objects = append(p.Objects, Object{
			ID:    uint64(i + 1),
			Point: geom.Point{rng.Float64(), rng.Float64()},
		})
	}
	for i := 0; i < 8; i++ {
		a := rng.Float64()
		p.Functions = append(p.Functions, Function{
			ID:      uint64(i + 1),
			Weights: []float64{a, 1 - a},
		})
	}
	sw := &faultSwitch{}
	ws, err := NewWorkspace(p, Config{
		PageSize:   512,
		BufferFrac: -1, // no buffering: every read reaches the store
		StoreFactory: func(pageSize int) (pagestore.Store, error) {
			return &faultyStore{Store: pagestore.NewMemStore(pageSize), sw: sw}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ws, sw
}

// TestMutationReadFailurePoisons injects a read failure mid-mutation and
// asserts the workspace poisons itself: the failing call and every call
// after it (mutations, batches, snapshots, audits) fail with ErrCorrupt
// wrapping the injected cause — even after the fault clears — while a
// snapshot taken before the failure keeps serving its epoch. Close still
// succeeds.
func TestMutationReadFailurePoisons(t *testing.T) {
	ws, sw := faultyWorkspace(t)
	defer ws.Close()

	before, err := ws.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer before.Close()
	wantPairs := before.Pairs()

	sw.failReads = true
	err = ws.AddObject(Object{ID: 500, Point: geom.Point{0.9, 0.9}})
	if !errors.Is(err, ErrCorrupt) || !errors.Is(err, errInjectedWS) {
		t.Fatalf("AddObject under read failure = %v, want ErrCorrupt wrapping the injected error", err)
	}

	// The fault clears, but the workspace stays poisoned: its structures
	// may be half-mutated.
	sw.failReads = false
	if err := ws.AddObject(Object{ID: 501, Point: geom.Point{0.1, 0.1}}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("AddObject after poisoning = %v, want ErrCorrupt", err)
	}
	if err := ws.RemoveObject(1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("RemoveObject after poisoning = %v, want ErrCorrupt", err)
	}
	if err := ws.Apply([]Mutation{{Kind: MutRemoveFunction, ID: 1}}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Apply after poisoning = %v, want ErrCorrupt", err)
	}
	if _, err := ws.Snapshot(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Snapshot after poisoning = %v, want ErrCorrupt", err)
	}
	if err := ws.VerifyStable(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("VerifyStable after poisoning = %v, want ErrCorrupt", err)
	}

	// The pre-failure view still answers from its pinned epoch.
	got := before.Pairs()
	if len(got) != len(wantPairs) {
		t.Fatalf("pre-failure view drifted: %d pairs, had %d", len(got), len(wantPairs))
	}
	for i := range got {
		if got[i] != wantPairs[i] {
			t.Fatalf("pre-failure view drifted at pair %d", i)
		}
	}
	if err := before.VerifyStable(); err != nil {
		t.Fatalf("pre-failure view audit: %v", err)
	}
}

// TestMutationWriteFailurePoisons arms write failures so the commit (or
// the structural phase, depending on where the first write lands) fails,
// and asserts the same poisoning contract.
func TestMutationWriteFailurePoisons(t *testing.T) {
	ws, sw := faultyWorkspace(t)
	defer ws.Close()

	sw.failWrites = true
	err := ws.AddObject(Object{ID: 500, Point: geom.Point{0.9, 0.9}})
	if !errors.Is(err, ErrCorrupt) || !errors.Is(err, errInjectedWS) {
		t.Fatalf("AddObject under write failure = %v, want ErrCorrupt wrapping the injected error", err)
	}
	sw.failWrites = false
	if err := ws.AddFunction(Function{ID: 500, Weights: []float64{0.5, 0.5}}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("AddFunction after poisoning = %v, want ErrCorrupt", err)
	}
}

// TestBatchStructuralFailurePoisons injects the failure mid-batch: the
// error must name the failing batch index and poison the workspace.
func TestBatchStructuralFailurePoisons(t *testing.T) {
	ws, sw := faultyWorkspace(t)
	defer ws.Close()

	sw.failReads = true
	err := ws.Apply([]Mutation{
		{Kind: MutRemoveFunction, ID: 1},
		{Kind: MutAddObject, Object: Object{ID: 500, Point: geom.Point{0.9, 0.9}}},
	})
	if !errors.Is(err, ErrCorrupt) || !errors.Is(err, errInjectedWS) {
		t.Fatalf("Apply under read failure = %v, want ErrCorrupt wrapping the injected error", err)
	}
	sw.failReads = false
	if _, err := ws.Snapshot(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Snapshot after poisoned batch = %v, want ErrCorrupt", err)
	}
}

// TestPairIndexDesyncPoisons breaks the invariant that every pair sits
// on both sides of the matching index, then removes the pair's object:
// the repair must report the broken invariant as ErrCorrupt instead of
// panicking, poison the workspace, and leave an earlier view serving.
func TestPairIndexDesyncPoisons(t *testing.T) {
	ws, _ := faultyWorkspace(t)
	defer ws.Close()
	before, err := ws.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer before.Close()

	p := before.Pairs()[0]
	ws.mu.Lock()
	ws.byFunc.Del(p.FuncID) // the object side still holds the pair
	ws.mu.Unlock()

	if err := ws.RemoveObject(p.ObjectID); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("RemoveObject over a desynced pair index = %v, want ErrCorrupt", err)
	}
	if err := ws.AddFunction(Function{ID: 500, Weights: []float64{0.5, 0.5}}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("AddFunction after poisoning = %v, want ErrCorrupt", err)
	}
	if err := before.VerifyStable(); err != nil {
		t.Fatalf("pre-failure view audit: %v", err)
	}
}

// TestValidationErrorsAreAtomic asserts the other half of the contract:
// every validation error — bad input, duplicate or unknown ID, anywhere
// in a batch — rejects the call with the workspace untouched and fully
// usable.
func TestValidationErrorsAreAtomic(t *testing.T) {
	ws, _ := faultyWorkspace(t)
	defer ws.Close()

	wantPairs := ws.Pairs()
	wantStats := ws.Stats()

	cases := []struct {
		name string
		err  error
		call func() error
	}{
		{"nan point", ErrBadPoint, func() error {
			return ws.AddObject(Object{ID: 600, Point: geom.Point{math.NaN(), 0.5}})
		}},
		{"inf point", ErrBadPoint, func() error {
			return ws.AddObject(Object{ID: 600, Point: geom.Point{math.Inf(1), 0.5}})
		}},
		{"negative object capacity", ErrBadCapacity, func() error {
			return ws.AddObject(Object{ID: 600, Point: geom.Point{0.5, 0.5}, Capacity: -2})
		}},
		{"duplicate object", ErrDuplicateID, func() error {
			return ws.AddObject(Object{ID: 1, Point: geom.Point{0.5, 0.5}})
		}},
		{"unknown object", ErrUnknownID, func() error {
			return ws.RemoveObject(999)
		}},
		{"nan weight", ErrBadWeight, func() error {
			return ws.AddFunction(Function{ID: 600, Weights: []float64{math.NaN(), 0.5}})
		}},
		{"negative weight", ErrBadWeight, func() error {
			return ws.AddFunction(Function{ID: 600, Weights: []float64{-0.5, 1.5}})
		}},
		{"nan gamma", ErrBadGamma, func() error {
			return ws.AddFunction(Function{ID: 600, Weights: []float64{0.5, 0.5}, Gamma: math.NaN()})
		}},
		{"negative function capacity", ErrBadCapacity, func() error {
			return ws.AddFunction(Function{ID: 600, Weights: []float64{0.5, 0.5}, Capacity: -1})
		}},
		{"unknown function", ErrUnknownID, func() error {
			return ws.RemoveFunction(999)
		}},
		{"bad kind", ErrBadMutation, func() error {
			return ws.Apply([]Mutation{{}})
		}},
		{"bad batch member", ErrBadPoint, func() error {
			return ws.Apply([]Mutation{
				{Kind: MutRemoveObject, ID: 1}, // valid, must NOT land
				{Kind: MutAddObject, Object: Object{ID: 601, Point: geom.Point{math.NaN(), 0.5}}},
			})
		}},
		{"batch duplicate within batch", ErrDuplicateID, func() error {
			return ws.Apply([]Mutation{
				{Kind: MutAddObject, Object: Object{ID: 602, Point: geom.Point{0.2, 0.2}}},
				{Kind: MutAddObject, Object: Object{ID: 602, Point: geom.Point{0.3, 0.3}}},
			})
		}},
		{"batch remove then re-remove", ErrUnknownID, func() error {
			return ws.Apply([]Mutation{
				{Kind: MutRemoveObject, ID: 2},
				{Kind: MutRemoveObject, ID: 2},
			})
		}},
	}
	for _, tc := range cases {
		err := tc.call()
		if !errors.Is(err, tc.err) {
			t.Fatalf("%s: error = %v, want %v", tc.name, err, tc.err)
		}
		if errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: validation error must not poison, got %v", tc.name, err)
		}
		got := ws.Pairs()
		if len(got) != len(wantPairs) {
			t.Fatalf("%s: matching changed: %d pairs, want %d", tc.name, len(got), len(wantPairs))
		}
		for i := range got {
			if got[i] != wantPairs[i] {
				t.Fatalf("%s: matching changed at pair %d", tc.name, i)
			}
		}
		if st := ws.Stats(); st.Mutations != wantStats.Mutations {
			t.Fatalf("%s: mutation counter moved: %d, want %d", tc.name, st.Mutations, wantStats.Mutations)
		}
	}

	// The workspace is still fully usable after every rejection.
	if err := ws.AddObject(Object{ID: 700, Point: geom.Point{0.4, 0.6}}); err != nil {
		t.Fatalf("valid mutation after rejections: %v", err)
	}
	if err := ws.VerifyStable(); err != nil {
		t.Fatalf("stability after rejections: %v", err)
	}
}

// TestBatchGroupCommitCounters asserts the Commits counter reflects the
// group commits: one initial publish plus one per Apply call.
func TestBatchGroupCommitCounters(t *testing.T) {
	ws, _ := faultyWorkspace(t)
	defer ws.Close()

	base := ws.Stats()
	batch := []Mutation{
		{Kind: MutAddObject, Object: Object{ID: 800, Point: geom.Point{0.7, 0.2}}},
		{Kind: MutAddObject, Object: Object{ID: 801, Point: geom.Point{0.2, 0.7}}},
		{Kind: MutRemoveObject, ID: 800},
		{Kind: MutAddFunction, Function: Function{ID: 800, Weights: []float64{0.3, 0.7}}},
	}
	if err := ws.Apply(batch); err != nil {
		t.Fatal(err)
	}
	st := ws.Stats()
	if st.Mutations != base.Mutations+int64(len(batch)) {
		t.Fatalf("Mutations = %d, want %d", st.Mutations, base.Mutations+int64(len(batch)))
	}
	if st.Commits != base.Commits+1 {
		t.Fatalf("Commits = %d, want %d (one group commit)", st.Commits, base.Commits+1)
	}
	if err := ws.VerifyStable(); err != nil {
		t.Fatal(err)
	}
	if err := ws.Apply(nil); err != nil {
		t.Fatalf("empty Apply: %v", err)
	}
	if got := ws.Stats().Commits; got != st.Commits {
		t.Fatalf("empty Apply published an epoch: %d -> %d", st.Commits, got)
	}
}
