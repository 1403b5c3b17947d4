package pagestore

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"fairassign/internal/cow"
	"fairassign/internal/metrics"
)

// VersionedStore layers snapshot reads over a physical Store: a single
// writer keeps mutating pages through the ordinary Store interface
// while any number of readers hold Snapshots — immutable page images
// of the instant they were acquired.
//
// A copy-on-write page table (cow.Table) maps each live page to its
// current version: its bytes, the table generation that wrote them,
// and the decoded form that snapshot readers share. Acquire freezes
// the table and pins the frozen generation; a snapshot looks pages up
// in its own frozen table, so the writer's later allocations, writes
// and frees never reach it. A write overwrites the current version in
// place unless a live snapshot pinned a generation at or after the one
// that wrote it, and so holds its bytes; then the write goes into a
// fresh version. Free removes the page from the table and frees the
// inner page at once. The garbage collector frees a superseded or
// freed version with the last frozen table that holds it.
//
// Every writer ReadPage/WritePage performs (and counts) exactly one
// inner access, so the paper's physical I/O metric is that of the inner
// store; snapshot reads are served from memory and never counted.
//
// One writer calls the Store methods, CurrentPages and Acquire,
// serialized by the caller (the Workspace's writer lock). Snapshot
// reads and Release are safe from any goroutine.
type VersionedStore struct {
	inner  Store
	pages  *cow.Table[*pageVersion] // the writer's page table
	closed bool

	mu   sync.Mutex     // guards pins: snapshots are released from any goroutine
	pins map[uint64]int // live snapshot count per pinned generation
}

// pageVersion is one page image, overwritten only while no live
// snapshot holds it. decoded caches a parsed form of the bytes for
// snapshot readers (the analogue of the BufferPool's decoded tier).
type pageVersion struct {
	gen     uint64 // page table generation that wrote data
	data    []byte
	decoded atomic.Pointer[any]
}

// NewVersioned wraps a physical store with a copy-on-write page table.
func NewVersioned(inner Store) *VersionedStore {
	return &VersionedStore{
		inner: inner,
		pages: cow.New[*pageVersion](0),
		pins:  make(map[uint64]int),
	}
}

// PageSize implements Store.
func (s *VersionedStore) PageSize() int { return s.inner.PageSize() }

// IO implements Store: the inner store's counter.
func (s *VersionedStore) IO() *metrics.IOCounter { return s.inner.IO() }

// Allocate implements Store.
func (s *VersionedStore) Allocate() (PageID, error) {
	id, err := s.inner.Allocate()
	if err != nil {
		return InvalidPage, err
	}
	s.pages.Set(uint64(id), &pageVersion{gen: s.pages.Gen(), data: make([]byte, s.inner.PageSize())})
	return id, nil
}

// current returns the writer's version of a live page.
func (s *VersionedStore) current(id PageID) (*pageVersion, error) {
	if s.closed {
		return nil, ErrClosed
	}
	v, ok := s.pages.Get(uint64(id))
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	return v, nil
}

// ReadPage implements Store: the inner store serves and counts it.
func (s *VersionedStore) ReadPage(id PageID, buf []byte) error { return s.inner.ReadPage(id, buf) }

// WritePage implements Store.
func (s *VersionedStore) WritePage(id PageID, data []byte) error {
	v, err := s.current(id)
	if err != nil {
		return err
	}
	if len(data) > len(v.data) {
		return ErrPageSize
	}
	if s.pinnedSince(v.gen) {
		v = &pageVersion{data: make([]byte, len(v.data))}
		s.pages.Set(uint64(id), v)
	} else {
		v.decoded.Store(nil)
	}
	v.gen = s.pages.Gen()
	n := copy(v.data, data)
	clear(v.data[n:])
	return s.inner.WritePage(id, data)
}

// pinnedSince reports whether a live snapshot pinned generation gen or
// a later one, and so holds the current versions written by then.
func (s *VersionedStore) pinnedSince(gen uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for pinned := range s.pins {
		if pinned >= gen {
			return true
		}
	}
	return false
}

// Free implements Store.
func (s *VersionedStore) Free(id PageID) error {
	if _, err := s.current(id); err != nil {
		return err
	}
	s.pages.Del(uint64(id))
	return s.inner.Free(id)
}

// NumPages implements Store.
func (s *VersionedStore) NumPages() int { return s.pages.Len() }

// Close implements Store. Snapshots stay usable until released.
func (s *VersionedStore) Close() error {
	s.closed = true
	return s.inner.Close()
}

// CurrentPages visits the current bytes of every live page in ascending
// page ID order. They come from the page table, which mirrors the inner
// store, so the walk leaves the physical I/O counters untouched. The
// data slice is only valid during the callback.
func (s *VersionedStore) CurrentPages(fn func(id PageID, data []byte) error) error {
	if s.closed {
		return ErrClosed
	}
	ids := make([]uint64, 0, s.pages.Len())
	for id := range s.pages.All() {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		v, _ := s.pages.Get(id)
		if err := fn(PageID(id), v.data); err != nil {
			return err
		}
	}
	return nil
}

// Acquire freezes the page table and returns a read view on it, pinned
// until Release.
func (s *VersionedStore) Acquire() *Snapshot {
	sn := &Snapshot{store: s, gen: s.pages.Gen(), pages: s.pages.Freeze()}
	s.mu.Lock()
	s.pins[sn.gen]++
	s.mu.Unlock()
	return sn
}

// LivePins returns the number of acquired snapshots not yet released.
func (s *VersionedStore) LivePins() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.pins {
		n += c
	}
	return n
}

// Snapshot is an immutable read view of a VersionedStore: the page
// table as it stood when the snapshot was acquired. It is safe for
// concurrent use and remains valid, also after the store is closed,
// until Release is called.
type Snapshot struct {
	store    *VersionedStore
	gen      uint64 // the frozen generation
	pages    cow.Frozen[*pageVersion]
	released atomic.Bool
}

// resolve finds a page's version in the snapshot's frozen table.
func (sn *Snapshot) resolve(id PageID) (*pageVersion, error) {
	if sn.released.Load() {
		return nil, fmt.Errorf("pagestore: snapshot of generation %d already released", sn.gen)
	}
	v, ok := sn.pages.Get(uint64(id))
	if !ok {
		return nil, fmt.Errorf("%w: %d in generation %d", ErrPageNotFound, id, sn.gen)
	}
	return v, nil
}

// GetDecoded returns the decoded form of a page as the snapshot holds
// it, parsing it at most once per version: the writer never touches a
// version a live snapshot holds, so the decode runs outside every lock
// and its result is shared by all snapshots that hold the version. The
// returned object must be treated as immutable; it stays valid after
// the snapshot is released.
func (sn *Snapshot) GetDecoded(id PageID, decode func(PageID, []byte) (any, error)) (any, error) {
	v, err := sn.resolve(id)
	if err != nil {
		return nil, err
	}
	if d := v.decoded.Load(); d != nil {
		return *d, nil
	}
	obj, err := decode(id, v.data)
	if err != nil {
		return nil, err
	}
	if !v.decoded.CompareAndSwap(nil, &obj) {
		if d := v.decoded.Load(); d != nil {
			return *d, nil // a concurrent reader decoded first
		}
	}
	return obj, nil
}

// Release removes the snapshot's pin; it is idempotent.
func (sn *Snapshot) Release() {
	if !sn.released.CompareAndSwap(false, true) {
		return
	}
	s := sn.store
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pins[sn.gen]--; s.pins[sn.gen] == 0 {
		delete(s.pins, sn.gen)
	}
}
