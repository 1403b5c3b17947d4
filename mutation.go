package fairassign

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"fairassign/internal/assign"
	"fairassign/internal/geom"
)

// Typed errors for the mutation paths (match with errors.Is).
var (
	// ErrBadAttribute is returned when an object carries a NaN or ±Inf
	// attribute — the same rule the CSV loader enforces; non-finite
	// coordinates would silently corrupt the R-tree MBRs and TA bounds.
	ErrBadAttribute = assign.ErrBadPoint
	// ErrBadCapacity is returned for a negative object or function
	// capacity (zero still means "default of 1", as everywhere else).
	ErrBadCapacity = assign.ErrBadCapacity
	// ErrBadGamma is returned for a NaN or ±Inf priority.
	ErrBadGamma = assign.ErrBadGamma
	// ErrBadMutation is returned by Apply for a zero-value Mutation (one
	// not built by the *Op constructors).
	ErrBadMutation = assign.ErrBadMutation
	// ErrWorkspaceCorrupt is returned by every Workspace method after a
	// mutation failed mid-structure (for example an injected disk error
	// during an index insert). The workspace poisons itself rather than
	// serve from inconsistent indexes; previously opened Views keep
	// answering from their pinned epochs. Errors wrap both this sentinel
	// and the original cause.
	ErrWorkspaceCorrupt = assign.ErrCorrupt
	// ErrQueueClosed is returned by MutationQueue.Enqueue after Close.
	ErrQueueClosed = errors.New("fairassign: mutation queue closed")
)

// Mutation is one population change for Workspace.Apply — construct
// with AddObjectOp, RemoveObjectOp, AddFunctionOp, or RemoveFunctionOp.
// The zero value is invalid.
type Mutation struct {
	kind assign.MutationKind
	obj  Object
	fn   Function
	id   uint64
}

// AddObjectOp returns a mutation that introduces a new object.
func AddObjectOp(o Object) Mutation {
	return Mutation{kind: assign.MutAddObject, obj: o}
}

// RemoveObjectOp returns a mutation that withdraws the object with the
// given ID.
func RemoveObjectOp(id uint64) Mutation {
	return Mutation{kind: assign.MutRemoveObject, id: id}
}

// AddFunctionOp returns a mutation that introduces a new preference
// function (normalized per the workspace Options, under any scorer
// family).
func AddFunctionOp(f Function) Mutation {
	return Mutation{kind: assign.MutAddFunction, fn: f}
}

// RemoveFunctionOp returns a mutation that withdraws the function with
// the given ID.
func RemoveFunctionOp(id uint64) Mutation {
	return Mutation{kind: assign.MutRemoveFunction, id: id}
}

// String describes the mutation for logs and error messages.
func (m Mutation) String() string {
	switch m.kind {
	case assign.MutAddObject:
		return fmt.Sprintf("add-object %d", m.obj.ID)
	case assign.MutRemoveObject:
		return fmt.Sprintf("remove-object %d", m.id)
	case assign.MutAddFunction:
		return fmt.Sprintf("add-function %d", m.fn.ID)
	case assign.MutRemoveFunction:
		return fmt.Sprintf("remove-function %d", m.id)
	}
	return "invalid mutation"
}

// internal translates the public mutation to the engine's form,
// resolving scorer families and normalizing weights exactly as the
// single-mutation methods do.
func (m Mutation) internal(opts Options, dims int) (assign.Mutation, error) {
	switch m.kind {
	case assign.MutAddObject:
		return assign.Mutation{Kind: assign.MutAddObject, Object: assign.Object{
			ID:       m.obj.ID,
			Point:    geom.Point(m.obj.Attributes).Clone(),
			Capacity: m.obj.Capacity,
		}}, nil
	case assign.MutRemoveObject:
		return assign.Mutation{Kind: assign.MutRemoveObject, ID: m.id}, nil
	case assign.MutAddFunction:
		af, err := resolveFunction(m.fn, opts, dims)
		if err != nil {
			return assign.Mutation{}, err
		}
		return assign.Mutation{Kind: assign.MutAddFunction, Function: af}, nil
	case assign.MutRemoveFunction:
		return assign.Mutation{Kind: assign.MutRemoveFunction, ID: m.id}, nil
	}
	return assign.Mutation{}, ErrBadMutation
}

// Apply applies a batch of mutations as one group commit: the whole
// batch is validated first against sequential semantics (each mutation
// sees the population as left by the ones before it), then each
// mutation is applied and chain-repaired in order, and the result is
// published as a single epoch. The matching is identical to applying
// the same mutations one at a time — the state transitions are the
// same — but the batch publishes one epoch instead of one per
// mutation. That is the throughput lever under read traffic: every
// observed epoch costs its first reader a snapshot capture, O(Δ) in the
// table chunks the epoch wrote (and the store a flush), so per-mutation
// commits make a served workspace pay that per mutation, a batch once.
//
// Atomicity: if any mutation fails validation (bad attribute, duplicate
// or unknown ID, bad weights...), the error identifies its index and
// NO mutation is applied — the workspace is untouched and stays fully
// usable. If a structural failure occurs mid-application (for example
// a disk error from the backing store), the workspace poisons itself
// with ErrWorkspaceCorrupt; open snapshots keep serving their epochs.
//
// An empty batch is a no-op. Apply follows the workspace's
// single-writer contract and may be called from any goroutine.
func (w *Workspace) Apply(muts []Mutation) error {
	ims := make([]assign.Mutation, len(muts))
	dims := w.Dims()
	for i := range muts {
		im, err := muts[i].internal(w.opts, dims)
		if err != nil {
			return fmt.Errorf("fairassign: mutation %d (%s): %w", i, muts[i].String(), err)
		}
		ims[i] = im
	}
	return w.ws.Apply(ims)
}

// queued is one enqueued mutation with its completion channel.
type queued struct {
	m    Mutation
	errc chan error
}

// Applier is the commit target of a MutationQueue: anything that lands
// a batch of mutations as one group commit with Workspace.Apply's
// atomicity contract. *Workspace satisfies it; a wrapper can add work
// around each commit (the benchmark times commits this way).
type Applier interface {
	Apply(muts []Mutation) error
}

// MutationQueue is an asynchronous group-commit front end for a
// Workspace writer. Producers Enqueue mutations from any goroutine; a
// single pump goroutine drains whatever has accumulated — up to
// MaxBatch — into one Workspace.Apply call, so concurrent writers
// share epoch publishes instead of paying one each. Under light load a
// mutation commits alone with no added latency; under bursts the batch
// size grows toward MaxBatch and the per-mutation commit cost is
// amortized away.
//
// Failure semantics: if a batch fails validation, the queue applies its
// mutations again one at a time, once each, so one bad mutation cannot
// reject its innocent batch-mates — each waiter receives its own
// verdict. If the workspace poisons (ErrWorkspaceCorrupt), every
// in-flight and subsequent mutation fails with that error.
type MutationQueue struct {
	ws        Applier
	maxBatch  int
	ch        chan queued
	pumpDone  chan struct{}
	closing   sync.RWMutex
	closed    bool
	mutations atomic.Int64
	batches   atomic.Int64
	dropped   atomic.Int64
}

// DefaultMaxBatch is the group-commit batch cap used when
// NewMutationQueue is given maxBatch <= 0.
const DefaultMaxBatch = 128

// NewMutationQueue starts the pump over the given workspace. maxBatch
// caps the number of mutations coalesced into one commit (<= 0 means
// DefaultMaxBatch). The queue does not own the workspace: Close stops
// the pump but leaves the workspace open.
func NewMutationQueue(ws Applier, maxBatch int) *MutationQueue {
	mq := newMutationQueue(ws, maxBatch)
	go mq.pump()
	return mq
}

// newMutationQueue builds the queue without starting the pump; tests
// use it to pre-load the channel and observe deterministic coalescing.
func newMutationQueue(ws Applier, maxBatch int) *MutationQueue {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	return &MutationQueue{
		ws:       ws,
		maxBatch: maxBatch,
		ch:       make(chan queued, 4*maxBatch),
		pumpDone: make(chan struct{}),
	}
}

// Enqueue submits one mutation and returns a 1-buffered channel that
// receives its verdict once the mutation's group commit (or individual
// retry) lands. Callers may fire-and-forget or select on the channel;
// it is never closed without a value. Safe for concurrent use.
func (mq *MutationQueue) Enqueue(m Mutation) <-chan error {
	errc := make(chan error, 1)
	mq.closing.RLock()
	defer mq.closing.RUnlock()
	if mq.closed {
		errc <- ErrQueueClosed
		return errc
	}
	mq.ch <- queued{m: m, errc: errc}
	return errc
}

// EnqueueCtx submits one mutation and blocks until its group commit
// (or individual retry) lands, the queue is closed, or ctx is done. A
// ctx expiry while still waiting for queue admission abandons the
// mutation — it will never commit, and counts as Dropped in Stats. An
// expiry after admission only abandons the wait: the mutation is
// already owned by the pump and still commits (or fails) normally.
// Safe for concurrent use.
func (mq *MutationQueue) EnqueueCtx(ctx context.Context, m Mutation) error {
	if err := ctx.Err(); err != nil {
		mq.dropped.Add(1)
		return err
	}
	errc := make(chan error, 1)
	mq.closing.RLock()
	if mq.closed {
		mq.closing.RUnlock()
		return ErrQueueClosed
	}
	select {
	case mq.ch <- queued{m: m, errc: errc}:
		mq.closing.RUnlock()
	case <-ctx.Done():
		mq.closing.RUnlock()
		mq.dropped.Add(1)
		return ctx.Err()
	}
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops accepting new mutations, waits for everything already
// enqueued to commit, and stops the pump. Idempotent.
func (mq *MutationQueue) Close() {
	mq.closing.Lock()
	already := mq.closed
	mq.closed = true
	mq.closing.Unlock()
	if already {
		<-mq.pumpDone
		return
	}
	close(mq.ch)
	<-mq.pumpDone
}

// QueueStats reports the pump's coalescing behavior.
type QueueStats struct {
	// Mutations is the number of mutations committed (or individually
	// rejected) so far; Batches is the number of Apply calls that
	// carried them. Mutations/Batches is the achieved group-commit
	// factor.
	Mutations int64
	Batches   int64
	// Dropped counts mutations abandoned by EnqueueCtx before queue
	// admission.
	Dropped int64
}

// Stats returns a point-in-time snapshot of the queue counters.
func (mq *MutationQueue) Stats() QueueStats {
	return QueueStats{
		Mutations: mq.mutations.Load(),
		Batches:   mq.batches.Load(),
		Dropped:   mq.dropped.Load(),
	}
}

// pump is the single consumer: block for one mutation, opportunistically
// drain up to maxBatch-1 more without blocking, commit as one batch.
func (mq *MutationQueue) pump() {
	defer close(mq.pumpDone)
	for first := range mq.ch {
		batch := make([]queued, 1, mq.maxBatch)
		batch[0] = first
	drain:
		for len(batch) < mq.maxBatch {
			select {
			case q, ok := <-mq.ch:
				if !ok {
					break drain
				}
				batch = append(batch, q)
			default:
				break drain
			}
		}
		mq.commit(batch)
	}
}

// commit lands one batch and distributes verdicts to the waiters.
func (mq *MutationQueue) commit(batch []queued) {
	muts := make([]Mutation, len(batch))
	for i, q := range batch {
		muts[i] = q.m
	}
	err := mq.ws.Apply(muts)
	mq.mutations.Add(int64(len(batch)))
	switch {
	case err == nil:
		mq.batches.Add(1)
		for _, q := range batch {
			q.errc <- nil
		}
	case len(batch) == 1 || errors.Is(err, ErrWorkspaceCorrupt):
		mq.batches.Add(1)
		for _, q := range batch {
			q.errc <- err
		}
	default:
		// A validation error rejected the whole batch atomically; apply
		// each mutation on its own, once, so only the offending ones
		// fail.
		for _, q := range batch {
			mq.batches.Add(1)
			q.errc <- mq.ws.Apply([]Mutation{q.m})
		}
	}
}
