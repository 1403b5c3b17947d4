package pagestore

import (
	"fmt"
	"sync"
)

// BufferPool is a write-back LRU page cache in front of a Store. All index
// traversal goes through the pool; a Get that finds the page cached is a
// pure memory access, while a miss triggers one physical read (and
// possibly one physical write to evict a dirty victim). Capacity 0 means
// "no buffering": every access is a miss, as in the paper's 0 % buffer
// experiment.
//
// On top of the byte cache the pool keeps a second, typed tier: a decoded
// object attached to each frame (see GetDecoded). The decoded tier never
// changes which accesses hit or miss — it only skips re-parsing page bytes
// that are already resident — so the paper's I/O metrics are unaffected.
type BufferPool struct {
	mu       sync.Mutex
	store    Store
	capacity int
	frames   map[PageID]*frame
	// Intrusive LRU list over the frames (head = most recently used):
	// container/list would allocate one Element per miss on the paper's
	// small-buffer configurations, where nearly every access is a miss.
	head, tail *frame
	// freeFrames recycles evicted frame structs (singly linked via next).
	// Page data buffers are NOT recycled: Get hands its buffer to the
	// caller, which may still be reading it when another goroutine evicts
	// the frame.
	freeFrames *frame

	// pinned retains decoded objects across frame eviction for pages the
	// caller has pinned (see Pin). A pinned object is only ever served
	// after the byte-tier access for its page has been accounted, so
	// pinning changes CPU/allocation cost, never I/O counts.
	pinned map[PageID]*pinEntry
}

type frame struct {
	id         PageID
	data       []byte
	dirty      bool
	obj        any // decoded form of data; nil until a GetDecoded populates it
	prev, next *frame
}

// pinEntry is the pinned side-table slot: a decoded object that survives
// eviction of its byte frame, plus the pin reference count.
type pinEntry struct {
	obj  any
	refs int
}

// NewBufferPool wraps store with an LRU cache holding up to capacity pages.
func NewBufferPool(store Store, capacity int) *BufferPool {
	if capacity < 0 {
		capacity = 0
	}
	return &BufferPool{
		store:    store,
		capacity: capacity,
		frames:   make(map[PageID]*frame),
		pinned:   make(map[PageID]*pinEntry),
	}
}

// pushFront links f as the most recently used frame.
func (b *BufferPool) pushFront(f *frame) {
	f.prev = nil
	f.next = b.head
	if b.head != nil {
		b.head.prev = f
	} else {
		b.tail = f
	}
	b.head = f
}

// unlink detaches f from the LRU list.
func (b *BufferPool) unlink(f *frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		b.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		b.tail = f.prev
	}
	f.prev, f.next = nil, nil
}

func (b *BufferPool) moveToFront(f *frame) {
	if b.head != f {
		b.unlink(f)
		b.pushFront(f)
	}
}

// takeFrame returns a recycled frame struct (fresh data buffer — see the
// freeFrames comment) or a new one.
func (b *BufferPool) takeFrame(id PageID) *frame {
	f := b.freeFrames
	if f != nil {
		b.freeFrames = f.next
		f.next = nil
		f.id, f.dirty, f.obj = id, false, nil
		f.data = make([]byte, b.store.PageSize())
		return f
	}
	return &frame{id: id, data: make([]byte, b.store.PageSize())}
}

// releaseFrame recycles an evicted frame struct, dropping its buffer and
// decoded object.
func (b *BufferPool) releaseFrame(f *frame) {
	f.data, f.obj, f.dirty = nil, nil, false
	f.prev = nil
	f.next = b.freeFrames
	b.freeFrames = f
}

// CapacityFromFraction sizes a buffer pool as a fraction of an index's
// page count, the way the paper expresses buffer sizes ("2 % of the tree
// size"). It always grants at least one page for fractions > 0.
func CapacityFromFraction(numPages int, frac float64) int {
	if frac <= 0 {
		return 0
	}
	c := int(frac * float64(numPages))
	if c < 1 {
		c = 1
	}
	return c
}

// Store returns the underlying physical store.
func (b *BufferPool) Store() Store { return b.store }

// Capacity returns the pool's frame count.
func (b *BufferPool) Capacity() int { return b.capacity }

// PageSize returns the page size of the underlying store.
func (b *BufferPool) PageSize() int { return b.store.PageSize() }

// Resize changes the pool capacity, evicting (and flushing) LRU victims if
// the pool shrinks.
func (b *BufferPool) Resize(capacity int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if capacity < 0 {
		capacity = 0
	}
	b.capacity = capacity
	for len(b.frames) > b.capacity {
		if err := b.evictLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Get returns the contents of a page. The returned slice is owned by the
// pool and must not be retained across further pool calls; copy it if
// needed. The store's logical-read counter always advances; the physical
// counter advances only on a miss.
func (b *BufferPool) Get(id PageID) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.store.IO().IncLogicalRead()
	if f, ok := b.frames[id]; ok {
		b.moveToFront(f)
		return f.data, nil
	}
	if b.capacity == 0 {
		data := make([]byte, b.store.PageSize())
		if err := b.store.ReadPage(id, data); err != nil {
			return nil, err
		}
		return data, nil
	}
	f := b.takeFrame(id)
	if err := b.store.ReadPage(id, f.data); err != nil {
		b.releaseFrame(f)
		return nil, err
	}
	if err := b.insertLocked(f); err != nil {
		return nil, err
	}
	return f.data, nil
}

// GetDecoded returns the decoded form of a page, parsing it with decode at
// most once per byte-tier residency: a warm access returns the cached
// object with zero decoding and zero allocation. The byte tier is consulted
// (and the LRU order advanced) exactly as Get would, so logical and
// physical I/O counts are identical to a Get followed by a decode.
//
// The returned object is shared: it may be handed to any number of
// concurrent callers and MUST be treated as immutable. It stays valid
// forever — invalidation only detaches it from the cache, it never mutates
// the object — so callers may retain it or alias into it freely.
//
// The object is dropped when the page is overwritten (Put), freed
// (Invalidate), or its frame is evicted; pinned pages (see Pin) keep the
// decoded object across eviction, skipping only the re-decode on the next
// (still physically counted) read.
//
// decode runs under the pool mutex (like the physical read in Get): page
// bytes may be overwritten in place by a concurrent Put, so parsing them
// outside the lock would need a defensive copy, costing more than the
// lock saves. The consequence is that concurrent cold traversals of one
// pool serialize their decodes; warm hits never decode at all.
func (b *BufferPool) GetDecoded(id PageID, decode func(PageID, []byte) (any, error)) (any, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.store.IO().IncLogicalRead()
	if f, ok := b.frames[id]; ok {
		b.moveToFront(f)
		if f.obj != nil {
			return f.obj, nil
		}
		obj, err := b.decodeLocked(id, f.data, decode)
		if err != nil {
			return nil, err
		}
		f.obj = obj
		return obj, nil
	}
	if b.capacity == 0 {
		data := make([]byte, b.store.PageSize())
		if err := b.store.ReadPage(id, data); err != nil {
			return nil, err
		}
		return b.decodeLocked(id, data, decode)
	}
	f := b.takeFrame(id)
	if err := b.store.ReadPage(id, f.data); err != nil {
		b.releaseFrame(f)
		return nil, err
	}
	obj, decErr := b.decodeLocked(id, f.data, decode)
	if decErr == nil {
		f.obj = obj
	}
	// Cache the page bytes even when decode failed — Get would have, and
	// the two must stay I/O-equivalent.
	if err := b.insertLocked(f); err != nil {
		return nil, err
	}
	if decErr != nil {
		return nil, decErr
	}
	return obj, nil
}

// decodeLocked resolves the decoded object for current page bytes: the
// pinned side-table first (its object is only present when the bytes have
// not changed since it was decoded), a fresh decode otherwise. The fresh
// object is mirrored into the pinned slot so it survives frame eviction.
func (b *BufferPool) decodeLocked(id PageID, data []byte, decode func(PageID, []byte) (any, error)) (any, error) {
	pe := b.pinned[id]
	if pe != nil && pe.obj != nil {
		return pe.obj, nil
	}
	obj, err := decode(id, data)
	if err != nil {
		return nil, err
	}
	if pe != nil {
		pe.obj = obj
	}
	return obj, nil
}

// Pin marks a page whose decoded object should be retained even while its
// byte frame is evicted (the R-tree pins its root: every traversal starts
// there, so the decode is skipped even under heavy eviction — the physical
// re-read is still performed and counted). Pins nest; each Pin needs a
// matching Unpin.
func (b *BufferPool) Pin(id PageID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	pe := b.pinned[id]
	if pe == nil {
		pe = &pinEntry{}
		b.pinned[id] = pe
	}
	pe.refs++
	if pe.obj == nil {
		if f, ok := b.frames[id]; ok {
			pe.obj = f.obj
		}
	}
}

// Unpin releases one Pin reference; at zero the retained decoded object is
// dropped (the frame-attached copy, if the page is resident, remains).
func (b *BufferPool) Unpin(id PageID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	pe := b.pinned[id]
	if pe == nil {
		return
	}
	pe.refs--
	if pe.refs <= 0 {
		delete(b.pinned, id)
	}
}

// invalidateDecodedLocked detaches any decoded object for a page whose
// bytes are about to change (write or free).
func (b *BufferPool) invalidateDecodedLocked(id PageID) {
	if pe := b.pinned[id]; pe != nil {
		pe.obj = nil
	}
}

// Put writes a page through the pool. The page becomes dirty in cache and
// reaches the store on eviction or Flush. With capacity 0 it is written
// straight through. The logical-write counter always advances.
func (b *BufferPool) Put(id PageID, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.store.IO().IncLogicalWrite()
	if len(data) > b.store.PageSize() {
		return ErrPageSize
	}
	b.invalidateDecodedLocked(id)
	if b.capacity == 0 {
		return b.store.WritePage(id, data)
	}
	if f, ok := b.frames[id]; ok {
		copy(f.data, data)
		for i := len(data); i < len(f.data); i++ {
			f.data[i] = 0
		}
		f.dirty = true
		f.obj = nil
		b.moveToFront(f)
		return nil
	}
	f := b.takeFrame(id)
	copy(f.data, data)
	f.dirty = true
	return b.insertLocked(f)
}

// Invalidate drops a page from the cache without flushing (used after
// Free). It is a no-op if the page is not cached.
func (b *BufferPool) Invalidate(id PageID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.invalidateDecodedLocked(id)
	if f, ok := b.frames[id]; ok {
		b.unlink(f)
		delete(b.frames, id)
		b.releaseFrame(f)
	}
}

// Flush writes all dirty frames to the store, keeping them cached.
func (b *BufferPool) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for f := b.head; f != nil; f = f.next {
		if f.dirty {
			if err := b.store.WritePage(f.id, f.data); err != nil {
				return err
			}
			f.dirty = false
		}
	}
	return nil
}

// Clear empties the cache, flushing dirty pages first.
func (b *BufferPool) Clear() error {
	if err := b.Flush(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.frames = make(map[PageID]*frame)
	b.head, b.tail = nil, nil
	return nil
}

// Len returns the number of cached frames.
func (b *BufferPool) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.frames)
}

func (b *BufferPool) insertLocked(f *frame) error {
	for len(b.frames) >= b.capacity {
		if err := b.evictLocked(); err != nil {
			return err
		}
	}
	b.frames[f.id] = f
	b.pushFront(f)
	return nil
}

func (b *BufferPool) evictLocked() error {
	f := b.tail
	if f == nil {
		return fmt.Errorf("pagestore: evict from empty pool")
	}
	if f.dirty {
		if err := b.store.WritePage(f.id, f.data); err != nil {
			return err
		}
	}
	b.unlink(f)
	delete(b.frames, f.id)
	b.releaseFrame(f)
	return nil
}
