package pagestore

import (
	"encoding/binary"
	"testing"
)

// decodeCounter is a decode hook that tallies invocations and returns the
// page's first 8 bytes as a uint64, so staleness is observable.
type decodeCounter struct{ calls int }

func (d *decodeCounter) decode(_ PageID, data []byte) (any, error) {
	d.calls++
	return binary.LittleEndian.Uint64(data), nil
}

func putU64(t *testing.T, b *BufferPool, id PageID, v uint64) {
	t.Helper()
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, v)
	if err := b.Put(id, buf); err != nil {
		t.Fatalf("Put(%d): %v", id, err)
	}
}

func newDecodedPool(t *testing.T, capacity, pages int) (*BufferPool, []PageID) {
	t.Helper()
	store := NewMemStore(64)
	pool := NewBufferPool(store, capacity)
	ids := make([]PageID, pages)
	for i := range ids {
		id, err := store.Allocate()
		if err != nil {
			t.Fatalf("Allocate: %v", err)
		}
		ids[i] = id
	}
	return pool, ids
}

func TestGetDecodedCachesPerResidency(t *testing.T) {
	pool, ids := newDecodedPool(t, 4, 1)
	putU64(t, pool, ids[0], 7)
	var d decodeCounter
	for i := 0; i < 5; i++ {
		v, err := pool.GetDecoded(ids[0], d.decode)
		if err != nil {
			t.Fatalf("GetDecoded: %v", err)
		}
		if v.(uint64) != 7 {
			t.Fatalf("decoded %v, want 7", v)
		}
	}
	if d.calls != 1 {
		t.Fatalf("decode ran %d times over 5 warm reads, want 1", d.calls)
	}
}

func TestGetDecodedInvalidatedByPut(t *testing.T) {
	pool, ids := newDecodedPool(t, 4, 1)
	putU64(t, pool, ids[0], 1)
	var d decodeCounter
	if _, err := pool.GetDecoded(ids[0], d.decode); err != nil {
		t.Fatal(err)
	}
	putU64(t, pool, ids[0], 2)
	v, err := pool.GetDecoded(ids[0], d.decode)
	if err != nil {
		t.Fatal(err)
	}
	if v.(uint64) != 2 {
		t.Fatalf("stale decoded node after Put: got %v, want 2", v)
	}
	if d.calls != 2 {
		t.Fatalf("decode calls = %d, want 2 (re-decode after write)", d.calls)
	}
}

func TestGetDecodedInvalidatedByEviction(t *testing.T) {
	pool, ids := newDecodedPool(t, 1, 2)
	putU64(t, pool, ids[0], 10)
	putU64(t, pool, ids[1], 20)
	var d decodeCounter
	if _, err := pool.GetDecoded(ids[0], d.decode); err != nil { // evicts ids[1]
		t.Fatal(err)
	}
	if _, err := pool.GetDecoded(ids[1], d.decode); err != nil { // evicts ids[0]
		t.Fatal(err)
	}
	if _, err := pool.GetDecoded(ids[0], d.decode); err != nil {
		t.Fatal(err)
	}
	if d.calls != 3 {
		t.Fatalf("decode calls = %d, want 3 (every access re-decodes after eviction)", d.calls)
	}
}

func TestGetDecodedInvalidatedByInvalidate(t *testing.T) {
	pool, ids := newDecodedPool(t, 4, 1)
	putU64(t, pool, ids[0], 5)
	var d decodeCounter
	if _, err := pool.GetDecoded(ids[0], d.decode); err != nil {
		t.Fatal(err)
	}
	pool.Invalidate(ids[0])
	// Write new bytes directly to the store (as a re-allocation would) and
	// verify the decoded tier does not serve the old object.
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, 6)
	if err := pool.Store().WritePage(ids[0], buf); err != nil {
		t.Fatal(err)
	}
	v, err := pool.GetDecoded(ids[0], d.decode)
	if err != nil {
		t.Fatal(err)
	}
	if v.(uint64) != 6 {
		t.Fatalf("stale decoded node after Invalidate: got %v, want 6", v)
	}
}

func TestPinRetainsDecodedAcrossEviction(t *testing.T) {
	pool, ids := newDecodedPool(t, 1, 2)
	putU64(t, pool, ids[0], 30)
	putU64(t, pool, ids[1], 40)
	pool.Pin(ids[0])
	var d decodeCounter
	if _, err := pool.GetDecoded(ids[0], d.decode); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.GetDecoded(ids[1], d.decode); err != nil { // evicts ids[0]
		t.Fatal(err)
	}
	before := pool.Store().IO().Snapshot()
	v, err := pool.GetDecoded(ids[0], d.decode)
	if err != nil {
		t.Fatal(err)
	}
	after := pool.Store().IO().Snapshot()
	if v.(uint64) != 30 {
		t.Fatalf("pinned decode = %v, want 30", v)
	}
	if d.calls != 2 {
		t.Fatalf("decode calls = %d, want 2 (pinned object reused after eviction)", d.calls)
	}
	// Pinning must not hide the physical re-read.
	if got := after.PhysicalReads - before.PhysicalReads; got != 1 {
		t.Fatalf("physical reads for pinned re-access = %d, want 1", got)
	}

	// A write still invalidates the pinned object.
	putU64(t, pool, ids[0], 31)
	v, err = pool.GetDecoded(ids[0], d.decode)
	if err != nil {
		t.Fatal(err)
	}
	if v.(uint64) != 31 {
		t.Fatalf("stale pinned node after Put: got %v, want 31", v)
	}

	pool.Unpin(ids[0])
	putU64(t, pool, ids[1], 41) // evict ids[0] again
	d.calls = 0
	if _, err := pool.GetDecoded(ids[0], d.decode); err != nil {
		t.Fatal(err)
	}
	if d.calls != 1 {
		t.Fatalf("decode calls after Unpin+eviction = %d, want 1 (retention dropped)", d.calls)
	}
}

// TestGetDecodedIOEquivalence drives an identical access sequence through
// Get and GetDecoded on twin pools and asserts the I/O counters match
// exactly: the decoded tier must be invisible to the paper's metrics.
func TestGetDecodedIOEquivalence(t *testing.T) {
	const pages = 8
	mk := func() (*BufferPool, []PageID) {
		pool, ids := newDecodedPool(t, 3, pages)
		for i, id := range ids {
			buf := make([]byte, 8)
			binary.LittleEndian.PutUint64(buf, uint64(i))
			if err := pool.Put(id, buf); err != nil {
				t.Fatal(err)
			}
		}
		return pool, ids
	}
	byteP, byteIDs := mk()
	decP, decIDs := mk()
	var d decodeCounter
	seq := []int{0, 1, 2, 0, 3, 4, 0, 1, 5, 6, 7, 0, 2, 2, 1}
	for _, i := range seq {
		if _, err := byteP.Get(byteIDs[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := decP.GetDecoded(decIDs[i], d.decode); err != nil {
			t.Fatal(err)
		}
	}
	b, g := byteP.Store().IO().Snapshot(), decP.Store().IO().Snapshot()
	if b != g {
		t.Fatalf("I/O diverged: Get=%+v GetDecoded=%+v", b, g)
	}
}

func TestClearDropsUnpinnedDecoded(t *testing.T) {
	pool, ids := newDecodedPool(t, 4, 1)
	putU64(t, pool, ids[0], 3)
	var d decodeCounter
	if _, err := pool.GetDecoded(ids[0], d.decode); err != nil {
		t.Fatal(err)
	}
	if err := pool.Clear(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.GetDecoded(ids[0], d.decode); err != nil {
		t.Fatal(err)
	}
	if d.calls != 2 {
		t.Fatalf("decode calls after Clear = %d, want 2", d.calls)
	}
}
