package fairassign

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

// applyWorkspace builds a small workspace for the Apply/queue tests.
func applyWorkspace(t *testing.T) *Workspace {
	t.Helper()
	objects := GenerateObjects(Independent, 60, 2, 11)
	functions := GenerateFunctions(10, 2, 12)
	ws, err := NewWorkspace(objects, functions, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ws.Close)
	return ws
}

// TestApplyMatchesSequential applies the same mutations batched and one
// at a time on twin workspaces and asserts identical matchings plus the
// group-commit counter contract.
func TestApplyMatchesSequential(t *testing.T) {
	batched := applyWorkspace(t)
	seq := applyWorkspace(t)

	muts := []Mutation{
		AddObjectOp(Object{ID: 1000, Attributes: []float64{0.95, 0.9}}),
		AddFunctionOp(Function{ID: 1000, Weights: []float64{2, 1}}), // normalized like the sequential path
		RemoveObjectOp(3),
		AddObjectOp(Object{ID: 1001, Attributes: []float64{0.1, 0.97}, Capacity: 2}),
		RemoveFunctionOp(4),
	}
	if err := batched.Apply(muts); err != nil {
		t.Fatal(err)
	}
	for i, m := range muts {
		if err := seq.Apply([]Mutation{m}); err != nil {
			t.Fatalf("sequential mutation %d: %v", i, err)
		}
	}
	sameAssignment(t, "batched vs sequential", batched.Assignment(), seq.Assignment())
	if err := batched.Verify(); err != nil {
		t.Fatal(err)
	}
	bs, ss := batched.Stats(), seq.Stats()
	if bs.Mutations != ss.Mutations {
		t.Fatalf("Mutations: batched %d, sequential %d", bs.Mutations, ss.Mutations)
	}
	if bs.Commits >= ss.Commits {
		t.Fatalf("group commit did not coalesce: batched %d commits, sequential %d", bs.Commits, ss.Commits)
	}
}

// TestApplyValidationAtomic asserts a bad mutation anywhere in the batch
// rejects the whole batch with a typed error and no state change.
func TestApplyValidationAtomic(t *testing.T) {
	ws := applyWorkspace(t)
	want := ws.Assignment()

	cases := []struct {
		name string
		err  error
		muts []Mutation
	}{
		{"nan attribute", ErrBadAttribute, []Mutation{
			RemoveObjectOp(1),
			AddObjectOp(Object{ID: 2000, Attributes: []float64{math.NaN(), 0.5}}),
		}},
		{"negative capacity", ErrBadCapacity, []Mutation{
			AddObjectOp(Object{ID: 2000, Attributes: []float64{0.5, 0.5}, Capacity: -1}),
		}},
		{"bad weight", ErrBadWeight, []Mutation{
			AddFunctionOp(Function{ID: 2000, Weights: []float64{-1, 2}}),
		}},
		{"zero mutation", ErrBadMutation, []Mutation{{}}},
		{"duplicate in batch", ErrDuplicateID, []Mutation{
			AddObjectOp(Object{ID: 2001, Attributes: []float64{0.5, 0.5}}),
			AddObjectOp(Object{ID: 2001, Attributes: []float64{0.6, 0.6}}),
		}},
		{"unknown id", ErrUnknownID, []Mutation{RemoveFunctionOp(999)}},
	}
	for _, tc := range cases {
		err := ws.Apply(tc.muts)
		if !errors.Is(err, tc.err) {
			t.Fatalf("%s: error = %v, want %v", tc.name, err, tc.err)
		}
		sameAssignment(t, tc.name, ws.Assignment(), want)
	}
	if err := ws.Apply([]Mutation{AddObjectOp(Object{ID: 2002, Attributes: []float64{0.5, 0.5}})}); err != nil {
		t.Fatalf("valid batch after rejections: %v", err)
	}
}

// TestMutationQueueGroupCommit floods the queue from many goroutines
// and asserts every mutation lands, the result matches a from-scratch
// solve, and the pump actually coalesced batches.
func TestMutationQueueGroupCommit(t *testing.T) {
	ws := applyWorkspace(t)

	// Pre-load the whole burst before starting the pump (the channel
	// holds 4*maxBatch = 256), so the coalescing is deterministic:
	// ceil(200/64) batches instead of a scheduling-dependent count.
	q := newMutationQueue(ws, 64)
	const n = 200
	var wg sync.WaitGroup
	errs := make([]<-chan error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = q.Enqueue(AddObjectOp(Object{
				ID:         uint64(5000 + i),
				Attributes: []float64{float64(i%37) / 37, float64(i%17) / 17},
			}))
		}()
	}
	wg.Wait()
	go q.pump()
	for i, c := range errs {
		if err := <-c; err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
	}
	q.Close()

	st := ws.Stats()
	if st.Objects != 60+n {
		t.Fatalf("Objects = %d, want %d", st.Objects, 60+n)
	}
	qs := q.Stats()
	if qs.Mutations != n {
		t.Fatalf("queue Mutations = %d, want %d", qs.Mutations, n)
	}
	if qs.Batches > (n+63)/64 {
		t.Fatalf("queue under-coalesced: %d batches for %d pre-loaded mutations, want <= %d", qs.Batches, qs.Mutations, (n+63)/64)
	}
	if err := ws.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := <-q.Enqueue(RemoveObjectOp(5000)); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("Enqueue after Close = %v, want ErrQueueClosed", err)
	}
	q.Close() // idempotent
}

// TestMutationQueueIsolatesBadMutations asserts a failing mutation in a
// coalesced batch does not reject its batch-mates: the queue retries
// individually and only the bad mutation reports an error.
func TestMutationQueueIsolatesBadMutations(t *testing.T) {
	ws := applyWorkspace(t)
	q := NewMutationQueue(ws, 64)
	defer q.Close()

	// Enqueue back-to-back so the pump coalesces them into one batch:
	// good, bad, good.
	c1 := q.Enqueue(AddObjectOp(Object{ID: 6000, Attributes: []float64{0.5, 0.5}}))
	c2 := q.Enqueue(AddObjectOp(Object{ID: 6001, Attributes: []float64{math.Inf(1), 0.5}}))
	c3 := q.Enqueue(AddObjectOp(Object{ID: 6002, Attributes: []float64{0.6, 0.6}}))

	if err := <-c1; err != nil {
		t.Fatalf("first good mutation: %v", err)
	}
	if err := <-c2; !errors.Is(err, ErrBadAttribute) {
		t.Fatalf("bad mutation error = %v, want ErrBadAttribute", err)
	}
	if err := <-c3; err != nil {
		t.Fatalf("second good mutation: %v", err)
	}
	st := ws.Stats()
	if st.Objects != 62 {
		t.Fatalf("Objects = %d, want 62 (both good mutations landed)", st.Objects)
	}
	if err := ws.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestEnqueueCtx covers the context-aware submission path: a live
// context commits synchronously, a canceled context before admission
// drops the mutation and counts it, and Close still yields
// ErrQueueClosed.
func TestEnqueueCtx(t *testing.T) {
	ws := applyWorkspace(t)
	q := NewMutationQueue(ws, 64)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := q.EnqueueCtx(ctx, AddObjectOp(Object{ID: 7000, Attributes: []float64{0.5, 0.5}})); err != nil {
		t.Fatalf("EnqueueCtx: %v", err)
	}
	if err := q.EnqueueCtx(ctx, AddObjectOp(Object{ID: 7000, Attributes: []float64{0.5, 0.5}})); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate EnqueueCtx error = %v, want ErrDuplicateID", err)
	}
	if ws.Stats().Objects != 61 {
		t.Fatalf("Objects = %d, want 61", ws.Stats().Objects)
	}

	// An already-expired context never admits the mutation.
	dead, deadCancel := context.WithCancel(context.Background())
	deadCancel()
	if err := q.EnqueueCtx(dead, AddObjectOp(Object{ID: 7001, Attributes: []float64{0.4, 0.4}})); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired EnqueueCtx error = %v, want context.Canceled", err)
	}
	qs := q.Stats()
	if qs.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", qs.Dropped)
	}
	if ws.Stats().Objects != 61 {
		t.Fatalf("dropped mutation landed: Objects = %d, want 61", ws.Stats().Objects)
	}

	q.Close()
	if err := q.EnqueueCtx(ctx, RemoveObjectOp(7000)); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("EnqueueCtx after Close = %v, want ErrQueueClosed", err)
	}
}

// TestEnqueueCtxExpiredSend asserts a blocked sender gives up when its
// context expires while the channel is full (pump not started), and
// that the abandoned mutation never commits.
func TestEnqueueCtxExpiredSend(t *testing.T) {
	ws := applyWorkspace(t)
	q := newMutationQueue(ws, 1) // channel capacity 4, pump never started
	for i := 0; i < 4; i++ {
		q.Enqueue(AddObjectOp(Object{ID: uint64(7100 + i), Attributes: []float64{0.5, 0.5}}))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := q.EnqueueCtx(ctx, AddObjectOp(Object{ID: 7200, Attributes: []float64{0.5, 0.5}})); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("full-queue EnqueueCtx error = %v, want context.DeadlineExceeded", err)
	}
	if got := q.Stats().Dropped; got != 1 {
		t.Fatalf("Dropped = %d, want 1", got)
	}
	go q.pump()
	q.Close()
	if got := ws.Stats().Objects; got != 64 {
		t.Fatalf("Objects = %d, want 64 (4 queued landed, dropped one did not)", got)
	}
}

// TestQueueRetryPolicy asserts the retry path: a validation failure
// inside a coalesced batch fails only the offending mutation, while its
// batch-mates commit when the queue applies them one at a time.
func TestQueueRetryPolicy(t *testing.T) {
	ws := applyWorkspace(t)
	q := newMutationQueue(ws, 64)
	good1 := q.Enqueue(AddObjectOp(Object{ID: 7300, Attributes: []float64{0.5, 0.5}}))
	bad := q.Enqueue(AddObjectOp(Object{ID: 7301, Attributes: []float64{math.NaN(), 0.5}}))
	good2 := q.Enqueue(AddObjectOp(Object{ID: 7302, Attributes: []float64{0.6, 0.6}}))
	go q.pump()
	defer q.Close()

	if err := <-good1; err != nil {
		t.Fatal(err)
	}
	if err := <-bad; !errors.Is(err, ErrBadAttribute) {
		t.Fatalf("bad mutation error = %v, want ErrBadAttribute", err)
	}
	if err := <-good2; err != nil {
		t.Fatal(err)
	}
	if ws.Stats().Objects != 62 {
		t.Fatalf("Objects = %d, want 62", ws.Stats().Objects)
	}
}
