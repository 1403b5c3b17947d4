package pagestore

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"fairassign/internal/metrics"
)

// VersionedStore layers epoch-based multi-versioning over a physical
// Store: a single writer keeps mutating pages through the ordinary Store
// interface while any number of readers hold Snapshots — immutable,
// consistent page images pinned to the epoch at which they were taken.
//
// Model. Time is divided into epochs. The writer is always building
// epoch W, one past the latest published epoch; Publish() seals W and
// starts W+1. A Snapshot acquired between publishes pins the latest
// published epoch and resolves every page to the newest version
// written at or before it. Versions of published epochs are immutable,
// so snapshot reads need no copying, no buffer pool, and no
// coordination beyond a brief read-lock to resolve the version chain.
//
// Copy-on-write. The first write to a page in a new epoch checks
// whether any live snapshot can still observe the page's current
// version (a snapshot at epoch S observes the newest version with
// epoch <= S). If one can, the old bytes are retained on the page's
// version chain and the write lands in a fresh version; if none can,
// the current version is recycled in place — so a workspace that never
// takes snapshots pays only one shadow memcpy per write over a plain
// store. Retired versions and freed pages are reclaimed as soon as the
// last snapshot that could observe them is released.
//
// I/O accounting. Writer traffic flows through to the inner store
// unchanged — every ReadPage/WritePage performs (and counts) exactly
// one inner access, so the paper's physical I/O metric is identical to
// running on the inner store directly. Snapshot reads are served from
// the in-memory version chains and never counted on the writer's.
//
// Concurrency contract: one writer (Allocate/ReadPage/WritePage/Free/
// Publish) serialized by the caller; snapshot reads, Acquire, and
// Release are safe from any goroutine at any time. By default every
// write that would clobber a published version copies, so an Acquire
// landing at any instant gets an intact epoch. A caller that already
// serializes Acquire against the writer (e.g. under its own writer
// lock) can opt into SetSerializedAcquire, which additionally recycles
// versions in place whenever no *live* snapshot observes them — the
// no-reader fast path that makes snapshot support free for pure churn.
type VersionedStore struct {
	mu    sync.RWMutex
	inner Store

	chains  map[PageID]*pageChain
	writer  uint64         // epoch under construction
	current uint64         // latest published epoch (writer - 1)
	readers map[uint64]int // live snapshot count per pinned epoch

	// retired queues pages with droppable history: a COW superseded one
	// of their versions, or the writer freed them, at the recorded
	// epoch. Entries are appended with the writer epoch, so the queue is
	// sorted; reclaim processes the prefix whose epoch is no longer
	// observable.
	retired []retiredRef

	// serialized records the caller's promise that Acquire never
	// interleaves with an epoch's writes, enabling the in-place recycle
	// fast path (see SetSerializedAcquire).
	serialized bool

	closed bool
}

type retiredRef struct {
	id    PageID
	epoch uint64
}

// pageChain is one page's version history, oldest first. The last
// version always mirrors the inner store's current bytes.
type pageChain struct {
	versions []*pageVersion
	freedAt  uint64 // 0 = live; epoch E means invisible from epoch E on
}

// pageVersion is one immutable-once-published page image. decoded
// caches a parsed form of the bytes for snapshot readers (the analogue
// of the BufferPool's decoded tier); it is populated lock-free because
// published bytes never change, and dropped with the version.
type pageVersion struct {
	epoch   uint64
	data    []byte
	decoded atomic.Pointer[decodedObj]
}

type decodedObj struct{ obj any }

// NewVersioned wraps a physical store with epoch-based versioning. The
// writer starts in epoch 1 with nothing published; take a first
// Publish() once the initial state is complete.
func NewVersioned(inner Store) *VersionedStore {
	return &VersionedStore{
		inner:   inner,
		chains:  make(map[PageID]*pageChain),
		writer:  1,
		readers: make(map[uint64]int),
	}
}

// PageSize implements Store.
func (s *VersionedStore) PageSize() int { return s.inner.PageSize() }

// IO implements Store: the writer's physical counter is the inner
// store's (snapshot reads never touch it).
func (s *VersionedStore) IO() *metrics.IOCounter { return s.inner.IO() }

// Allocate implements Store.
func (s *VersionedStore) Allocate() (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return InvalidPage, ErrClosed
	}
	id, err := s.inner.Allocate()
	if err != nil {
		return InvalidPage, err
	}
	s.chains[id] = &pageChain{versions: []*pageVersion{{
		epoch: s.writer,
		data:  make([]byte, s.inner.PageSize()),
	}}}
	return id, nil
}

// ReadPage implements Store: the writer's view, served (and counted) by
// the inner store.
func (s *VersionedStore) ReadPage(id PageID, buf []byte) error {
	s.mu.RLock()
	ch := s.chains[id]
	s.mu.RUnlock()
	if ch == nil || ch.freedAt != 0 {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	return s.inner.ReadPage(id, buf)
}

// WritePage implements Store. The first write to a page in a new epoch
// copies-on-write if any live snapshot still observes the current
// version; later writes in the same epoch mutate the fresh version in
// place.
func (s *VersionedStore) WritePage(id PageID, data []byte) error {
	s.mu.Lock()
	ch := s.chains[id]
	if ch == nil || ch.freedAt != 0 {
		s.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	if len(data) > s.inner.PageSize() {
		s.mu.Unlock()
		return ErrPageSize
	}
	last := ch.versions[len(ch.versions)-1]
	switch {
	case last.epoch == s.writer:
		// Still this epoch's version: overwrite in place.
		fillPage(last.data, data)
		last.decoded.Store(nil)
	case s.observableLocked(last.epoch):
		// A snapshot can see the current bytes: retain them, start a
		// fresh version, and queue the old one for reclamation.
		nv := &pageVersion{epoch: s.writer, data: make([]byte, s.inner.PageSize())}
		fillPage(nv.data, data)
		ch.versions = append(ch.versions, nv)
		s.retired = append(s.retired, retiredRef{id: id, epoch: s.writer})
	default:
		// Nobody can observe the old bytes: recycle the version. Older
		// versions kept for live snapshots are queued again at the
		// writer epoch: a release before the next Publish can consume
		// the page's earlier entry while this version is unpublished,
		// and nothing else would prune them.
		fillPage(last.data, data)
		last.epoch = s.writer
		last.decoded.Store(nil)
		if len(ch.versions) > 1 {
			s.retired = append(s.retired, retiredRef{id: id, epoch: s.writer})
		}
	}
	s.mu.Unlock()
	return s.inner.WritePage(id, data)
}

// fillPage copies data into a full-page buffer, zeroing the tail.
func fillPage(dst, data []byte) {
	n := copy(dst, data)
	for i := n; i < len(dst); i++ {
		dst[i] = 0
	}
}

// Free implements Store. If a live snapshot can still observe the page
// it is tombstoned at the current epoch and physically freed once the
// last such snapshot is released; otherwise it is freed immediately.
func (s *VersionedStore) Free(id PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := s.chains[id]
	if ch == nil || ch.freedAt != 0 {
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	if s.observableLocked(ch.versions[0].epoch) {
		ch.freedAt = s.writer
		s.retired = append(s.retired, retiredRef{id: id, epoch: s.writer})
		return nil
	}
	delete(s.chains, id)
	return s.inner.Free(id)
}

// SetSerializedAcquire declares whether the caller serializes Acquire
// against the writer's operations (true for the Workspace, whose
// writer lock covers both). When set, a version of a published epoch
// that no live snapshot observes is recycled in place instead of
// copied — pure churn with no open views then retains no history at
// all. When unset (the default), published versions are always copied
// on write, so an Acquire may land between any two writer operations
// and still pin an intact epoch.
func (s *VersionedStore) SetSerializedAcquire(serialized bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.serialized = serialized
}

// observableLocked reports whether a version written at epoch e may
// still be resolved by a read view: a live snapshot pins an epoch at or
// after e, or — unless the caller serializes Acquire with the writer —
// a future snapshot could still pin the published epoch.
func (s *VersionedStore) observableLocked(e uint64) bool {
	if !s.serialized && e <= s.current {
		return true
	}
	for pinned := range s.readers {
		if pinned >= e {
			return true
		}
	}
	return false
}

// NumPages implements Store: live pages only (tombstoned pages awaiting
// reclamation are already logically gone).
func (s *VersionedStore) NumPages() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, ch := range s.chains {
		if ch.freedAt == 0 {
			n++
		}
	}
	return n
}

// Close implements Store. The inner store is closed and all writer-side
// operations start failing, but retained version chains stay readable:
// snapshots acquired before Close remain fully usable until released.
func (s *VersionedStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.inner.Close()
}

// CurrentPages visits the current bytes of every live page in ascending
// page ID order. The bytes come from the in-memory version chains (the
// last version of a chain always mirrors the inner store), so the walk
// performs no inner-store I/O and leaves the physical counters — the
// paper's metric — untouched. The caller must serialize with the
// writer; the data slice is only valid during the callback.
func (s *VersionedStore) CurrentPages(fn func(id PageID, data []byte) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	ids := make([]PageID, 0, len(s.chains))
	for id, ch := range s.chains {
		if ch.freedAt == 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		ch := s.chains[id]
		if err := fn(id, ch.versions[len(ch.versions)-1].data); err != nil {
			return err
		}
	}
	return nil
}

// Publish seals the epoch under construction and returns it: every
// write so far becomes visible to subsequently acquired snapshots, and
// history no snapshot can observe any more is reclaimed.
func (s *VersionedStore) Publish() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.current = s.writer
	s.writer++
	s.reclaimLocked()
	return s.current
}

// Acquire pins the latest published epoch and returns a read view on
// it. Must be serialized with the writer (see the concurrency
// contract); the returned Snapshot is then free-threaded.
func (s *VersionedStore) Acquire() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readers[s.current]++
	return &Snapshot{store: s, epoch: s.current}
}

// reclaimLocked drops retired history that no live or future snapshot
// can observe: superseded versions are pruned and tombstoned pages are
// physically freed. minRef is the oldest epoch still reachable — the
// oldest pinned snapshot, or the published epoch (the pin point of the
// next Acquire) when none is live.
func (s *VersionedStore) reclaimLocked() {
	minRef := s.current
	for pinned := range s.readers {
		if pinned < minRef {
			minRef = pinned
		}
	}
	i := 0
	for ; i < len(s.retired); i++ {
		r := s.retired[i]
		if r.epoch > minRef {
			break
		}
		ch := s.chains[r.id]
		if ch == nil {
			continue
		}
		if ch.freedAt != 0 && ch.freedAt <= minRef {
			delete(s.chains, r.id)
			if !s.closed {
				// Inner Free only fails on a missing page, which the
				// chain map rules out.
				_ = s.inner.Free(r.id)
			}
			continue
		}
		// Keep the newest version at or before minRef plus everything
		// newer; older versions can no longer be resolved by anyone.
		keep := 0
		for j, v := range ch.versions {
			if v.epoch <= minRef {
				keep = j
			}
		}
		if keep > 0 {
			ch.versions = append([]*pageVersion(nil), ch.versions[keep:]...)
		}
	}
	if i > 0 {
		s.retired = append(s.retired[:0], s.retired[i:]...)
	}
}

// VersionedStats is a point-in-time census of the version store, used
// by leak checks: after every snapshot is released (and the following
// publish), TotalVersions must equal LivePages and RetiredQueue must be
// empty.
type VersionedStats struct {
	LivePages     int    // chains not tombstoned
	TotalVersions int    // page versions retained across all chains
	RetiredQueue  int    // pages queued for reclamation
	LiveSnapshots int    // acquired and not yet released
	Writer        uint64 // epoch under construction
	Published     uint64 // latest sealed epoch
}

// DebugStats returns the current census.
func (s *VersionedStore) DebugStats() VersionedStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := VersionedStats{RetiredQueue: len(s.retired), Writer: s.writer, Published: s.current}
	for _, ch := range s.chains {
		if ch.freedAt == 0 {
			st.LivePages++
		}
		st.TotalVersions += len(ch.versions)
	}
	for _, n := range s.readers {
		st.LiveSnapshots += n
	}
	return st
}

// Snapshot is an immutable read view of a VersionedStore pinned to one
// published epoch. It is safe for concurrent use and remains valid —
// including after the store is closed — until Release is called.
// Reads are served from retained version buffers and never touch the
// writer's I/O metric.
type Snapshot struct {
	store    *VersionedStore
	epoch    uint64
	released atomic.Bool
}

// Epoch returns the published epoch this snapshot pins.
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// PageSize returns the page size of the underlying store.
func (sn *Snapshot) PageSize() int { return sn.store.inner.PageSize() }

// resolve finds the newest version of a page visible at the snapshot's
// epoch.
func (sn *Snapshot) resolve(id PageID) (*pageVersion, error) {
	if sn.released.Load() {
		return nil, fmt.Errorf("pagestore: snapshot at epoch %d already released", sn.epoch)
	}
	sn.store.mu.RLock()
	defer sn.store.mu.RUnlock()
	ch := sn.store.chains[id]
	if ch == nil || (ch.freedAt != 0 && ch.freedAt <= sn.epoch) {
		return nil, fmt.Errorf("%w: %d at epoch %d", ErrPageNotFound, id, sn.epoch)
	}
	var best *pageVersion
	for _, v := range ch.versions {
		if v.epoch <= sn.epoch {
			best = v
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: %d at epoch %d", ErrPageNotFound, id, sn.epoch)
	}
	return best, nil
}

// ReadPage copies the page bytes as of the snapshot's epoch into buf.
func (sn *Snapshot) ReadPage(id PageID, buf []byte) error {
	v, err := sn.resolve(id)
	if err != nil {
		return err
	}
	copy(buf, v.data)
	return nil
}

// GetDecoded returns the decoded form of a page as of the snapshot's
// epoch, parsing it at most once per retained version: the bytes of a
// resolvable version are immutable (the writer copies-on-write instead
// of touching anything a snapshot can observe), so the decode runs
// outside every lock and its result is shared by all snapshots that
// resolve the same version. The returned object must be treated as
// immutable; it stays valid even after the snapshot is released.
func (sn *Snapshot) GetDecoded(id PageID, decode func(PageID, []byte) (any, error)) (any, error) {
	v, err := sn.resolve(id)
	if err != nil {
		return nil, err
	}
	if d := v.decoded.Load(); d != nil {
		return d.obj, nil
	}
	obj, err := decode(id, v.data)
	if err != nil {
		return nil, err
	}
	boxed := &decodedObj{obj: obj}
	if !v.decoded.CompareAndSwap(nil, boxed) {
		// A concurrent reader decoded first; share its object.
		if d := v.decoded.Load(); d != nil {
			return d.obj, nil
		}
	}
	return obj, nil
}

// Release unpins the snapshot's epoch; the last release of an epoch
// triggers reclamation of the history only that epoch kept alive.
// Release is idempotent and safe concurrently with other snapshots.
func (sn *Snapshot) Release() {
	if !sn.released.CompareAndSwap(false, true) {
		return
	}
	s := sn.store
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.readers[sn.epoch]; n <= 1 {
		delete(s.readers, sn.epoch)
	} else {
		s.readers[sn.epoch] = n - 1
	}
	s.reclaimLocked()
}
