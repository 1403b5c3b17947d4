package assign

import (
	"errors"
	"fmt"
	"slices"

	"fairassign/internal/rtree"
	"fairassign/internal/snapshot"
)

// Typed validation and failure-atomicity errors for mutations. Input
// validation happens before any workspace state is touched, so an error
// wrapping one of the ErrBad* sentinels (or ErrDuplicateID/ErrUnknownID)
// always leaves the workspace exactly as it was. An error wrapping
// ErrCorrupt means the opposite: a structural operation failed after the
// mutation started changing state, the workspace could not be restored,
// and only Close remains safe.
var (
	// ErrBadPoint is returned for NaN or ±Inf object attribute values —
	// they would poison the R-tree MBRs and every score comparison.
	ErrBadPoint = errors.New("assign: non-finite attribute")
	// ErrBadCapacity is returned for negative object or function
	// capacities.
	ErrBadCapacity = errors.New("assign: negative capacity")
	// ErrBadWeight is returned for NaN, ±Inf, or negative function
	// weights.
	ErrBadWeight = errors.New("assign: bad weight")
	// ErrBadGamma is returned for a NaN or ±Inf priority γ.
	ErrBadGamma = errors.New("assign: non-finite gamma")
	// ErrBadMutation is returned by Apply for a Mutation with an unknown
	// Kind.
	ErrBadMutation = errors.New("assign: bad mutation kind")
	// ErrCorrupt is returned by every Workspace method after a mutation
	// failed mid-application (a store or index error surfaced after state
	// was partially changed). The workspace is poisoned: queries could
	// return garbage, so everything except Close fails fast with this
	// error. Snapshots taken before the corrupting mutation stay valid —
	// they pin the last published (consistent) epoch.
	ErrCorrupt = errors.New("assign: workspace corrupt")
)

// MutationKind selects the operation one Mutation performs.
type MutationKind uint8

// Mutation kinds, mirroring the four single-mutation Workspace methods.
const (
	MutAddObject MutationKind = iota + 1
	MutRemoveObject
	MutAddFunction
	MutRemoveFunction
)

func (k MutationKind) String() string {
	switch k {
	case MutAddObject:
		return "AddObject"
	case MutRemoveObject:
		return "RemoveObject"
	case MutAddFunction:
		return "AddFunction"
	case MutRemoveFunction:
		return "RemoveFunction"
	default:
		return fmt.Sprintf("MutationKind(%d)", uint8(k))
	}
}

// Mutation is one workspace mutation in a form that can be queued and
// batched: exactly the fields its Kind reads are meaningful (Object for
// MutAddObject, Function for MutAddFunction, ID for the removals).
type Mutation struct {
	Kind     MutationKind
	Object   Object
	Function Function
	ID       uint64
}

// Apply applies a batch of mutations as one group commit: the whole
// batch is validated up front (a validation error leaves the workspace
// untouched), then each mutation's structural change and chain repair
// run in arrival order under one writer-lock hold, and a single epoch is
// published at the end — so open snapshots observe either none or all of
// the batch, and the per-epoch cost (buffer flush and the lazy snapshot
// capture the next reader performs) is paid once per batch instead of
// once per mutation.
//
// Repair runs per mutation, not once over the pooled free-unit queue:
// chain repair's quiescence argument assumes every latent blocking pair
// involves a queued free unit, and pooling the structural phases of a
// removal and an arrival can hand a freed unit to a proposing arrival
// before the vacancy is offered to the fully-assigned functions that
// outbid it — leaving a blocking pair no queue item resolves. Applying
// repair in arrival order keeps the state transitions identical to the
// k single-mutation calls (the batch conformance sweep asserts the
// matchings match), including batches that add and later remove the
// same ID; what the batch amortizes is the commit, which is the
// dominant per-mutation cost on a workspace with a warm buffer pool.
// Duplicate/unknown-ID validation sees the state each mutation would
// see sequentially.
//
// Error atomicity: a validation error (wrapping ErrBadPoint,
// ErrBadCapacity, ErrBadWeight, ErrBadGamma, ErrBadMutation,
// ErrDuplicateID, or ErrUnknownID, and naming the offending batch index)
// rejects the whole batch with no state change. A structural failure
// mid-application (store I/O) poisons the workspace with ErrCorrupt,
// exactly as it would a single mutation.
func (w *Workspace) Apply(muts []Mutation) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.applyLocked(muts)
}

func (w *Workspace) applyLocked(muts []Mutation) error {
	if err := w.liveLocked(); err != nil {
		return err
	}
	if len(muts) == 0 {
		return nil
	}
	batch := len(muts) > 1
	bv := batchView{w: w}
	for i := range muts {
		if err := bv.validate(&muts[i]); err != nil {
			if batch {
				return fmt.Errorf("assign: batch mutation %d (%s): %w", i, muts[i].Kind, err)
			}
			return err
		}
		if batch {
			bv.record(&muts[i])
		}
	}
	for i := range muts {
		if err := w.mutateLocked(&muts[i]); err != nil {
			if batch {
				err = fmt.Errorf("batch mutation %d (%s): %w", i, muts[i].Kind, err)
			}
			return w.corruptLocked(err)
		}
		if err := w.repair(); err != nil {
			if batch {
				err = fmt.Errorf("batch mutation %d (%s): repair: %w", i, muts[i].Kind, err)
			}
			return w.corruptLocked(err)
		}
		w.mutations++
	}
	// Write-ahead barrier: the batch is encoded, checksummed, appended,
	// and fsynced before the epoch publishes, so a batch whose Apply
	// returned nil survives power loss. The record carries the epoch
	// commitLocked is about to publish; the WAL writer enforces
	// contiguity. A durability failure poisons the workspace —
	// the in-memory state is ahead of what can be made durable.
	if w.dur != nil {
		if err := w.dur.log.Append(w.epoch+1, snapshot.EncodeBatch(mutationRecs(muts))); err != nil {
			return w.corruptLocked(err)
		}
		if err := w.dur.log.Sync(); err != nil {
			return w.corruptLocked(err)
		}
	}
	if err := w.commitLocked(); err != nil {
		return w.corruptLocked(err)
	}
	return nil
}

// corruptLocked poisons the workspace after a structural failure: the
// cached published state is dropped (already-open views keep serving
// their pinned, still-consistent epochs), every later method call fails
// with ErrCorrupt, and the returned error wraps both the sentinel and
// the cause. Caller holds w.mu.
func (w *Workspace) corruptLocked(cause error) error {
	if w.corrupt == nil {
		w.corrupt = cause
		w.dropPubLocked()
	}
	return fmt.Errorf("%w: %w", ErrCorrupt, cause)
}

// batchView overlays the net liveness effect of a validated batch prefix
// on the live population, so pre-flight duplicate/unknown-ID checks see
// exactly the state sequential application would. With nothing recorded
// it is the live population itself.
type batchView struct {
	w                *Workspace
	objAdd, objDel   map[uint64]bool
	funcAdd, funcDel map[uint64]bool
}

func (b *batchView) objLive(id uint64) bool {
	if b.objAdd[id] {
		return true
	}
	if b.objDel[id] {
		return false
	}
	return b.w.objLive(id)
}

func (b *batchView) funcLive(id uint64) bool {
	if b.funcAdd[id] {
		return true
	}
	if b.funcDel[id] {
		return false
	}
	_, ok := b.w.eff[id]
	return ok
}

func (b *batchView) record(m *Mutation) {
	switch m.Kind {
	case MutAddObject:
		if b.objAdd == nil {
			b.objAdd = make(map[uint64]bool)
		}
		b.objAdd[m.Object.ID] = true
	case MutRemoveObject:
		if b.objDel == nil {
			b.objDel = make(map[uint64]bool)
		}
		delete(b.objAdd, m.ID)
		b.objDel[m.ID] = true
	case MutAddFunction:
		if b.funcAdd == nil {
			b.funcAdd = make(map[uint64]bool)
		}
		b.funcAdd[m.Function.ID] = true
	case MutRemoveFunction:
		if b.funcDel == nil {
			b.funcDel = make(map[uint64]bool)
		}
		delete(b.funcAdd, m.ID)
		b.funcDel[m.ID] = true
	}
}

// validate checks one mutation against the current state overlaid with
// the batch prefix, without touching any workspace structure. Caller
// holds w.mu.
func (b *batchView) validate(m *Mutation) error {
	dims := b.w.dims
	switch m.Kind {
	case MutAddObject:
		o := &m.Object
		if err := validateObject(o, dims); err != nil {
			return err
		}
		if b.objLive(o.ID) {
			return fmt.Errorf("%w: object %d", ErrDuplicateID, o.ID)
		}
	case MutRemoveObject:
		if !b.objLive(m.ID) {
			return fmt.Errorf("%w: object %d", ErrUnknownID, m.ID)
		}
	case MutAddFunction:
		f := &m.Function
		if err := validateFunction(f, dims); err != nil {
			return err
		}
		if b.funcLive(f.ID) {
			return fmt.Errorf("%w: function %d", ErrDuplicateID, f.ID)
		}
	case MutRemoveFunction:
		if !b.funcLive(m.ID) {
			return fmt.Errorf("%w: function %d", ErrUnknownID, m.ID)
		}
	default:
		return fmt.Errorf("%w: %d", ErrBadMutation, m.Kind)
	}
	return nil
}

// mutateLocked performs the structural phase of one already-validated
// mutation: maps, trees, capacity tables, the availability changes the
// next frontier sync applies, and the repair queue. Any error is a
// mid-mutation failure the caller must escalate to corruptLocked.
// Caller holds w.mu.
func (w *Workspace) mutateLocked(m *Mutation) error {
	switch m.Kind {
	case MutAddObject:
		return w.addObjectLocked(m.Object)
	case MutRemoveObject:
		return w.removeObjectLocked(m.ID)
	case MutAddFunction:
		w.addFunctionLocked(m.Function)
		return nil
	default:
		return w.removeFunctionLocked(m.ID)
	}
}

func (w *Workspace) addObjectLocked(o Object) error {
	point := o.Point.Clone()
	pt := w.obj
	pt.objs.Set(o.ID, Object{ID: o.ID, Point: point, Capacity: o.Capacity})
	pt.dropPub()
	pt.pageDirty = true
	if err := pt.tree.Insert(rtree.Item{ID: o.ID, Point: point}); err != nil {
		return err
	}
	pt.caps.add(o.ID, o.capacity())
	pt.availChanged(o.ID, false)
	w.pushObj(o.ID)
	return nil
}

func (w *Workspace) removeObjectLocked(id uint64) error {
	pt := w.obj
	o, _ := pt.objs.Get(id)
	pt.dropPub()
	pt.pageDirty = true
	// An available object leaves the availability frontier at the next
	// sync, which discards it; an exhausted one already left at the sync
	// after its exhaustion. If it is parked, it stays where it is until
	// it resurfaces, and the frontier's live check drops it then, since
	// the tables below no longer hold it.
	if pt.caps.remaining[id] > 0 {
		pt.availChanged(id, true)
	}
	for _, p := range pt.byObj[id] {
		if err := w.unlink(p); err != nil {
			return err
		}
		w.funcCaps.restore(p.fid)
		w.syncFloor(p.fid)
		w.pushFunc(p.fid)
	}
	delete(pt.byObj, id)
	if err := pt.tree.Delete(rtree.Item{ID: id, Point: o.Point}); err != nil {
		return err
	}
	pt.caps.drop(id)
	pt.objs.Del(id)
	return nil
}

func (w *Workspace) addFunctionLocked(f Function) {
	f.Weights = slices.Clone(f.Weights)
	w.addFunc(f)
	w.funcCaps.add(f.ID, f.capacity())
	w.syncFloor(f.ID)
	w.pushFunc(f.ID)
}

func (w *Workspace) removeFunctionLocked(id uint64) error {
	// Unlinking the last pair drops the function's byFunc entry.
	ps, _ := w.byFunc.Get(id)
	for _, p := range ps {
		if err := w.unlink(p); err != nil {
			return err
		}
		w.obj.restoreUnit(p.oid)
		w.pushObj(p.oid)
	}
	w.allFuncs.Remove(id)
	w.funcCaps.drop(id)
	w.funcs.Del(id)
	delete(w.eff, id)
	return nil
}
