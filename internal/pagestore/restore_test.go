package pagestore

import (
	"sort"
	"testing"
)

func TestCurrentPages(t *testing.T) {
	vs := newVersionedMem(t, 128)
	var ids []PageID
	for i := 0; i < 5; i++ {
		id, err := vs.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		writeByte(t, vs, id, byte(i+1))
	}
	// Free one in the middle: it must not be imaged.
	if err := vs.Free(ids[2]); err != nil {
		t.Fatal(err)
	}
	// Overwrite a page after a snapshot: CurrentPages must see the
	// newest bytes, not the frozen ones.
	snap := vs.Acquire()
	defer snap.Release()
	writeByte(t, vs, ids[0], 99)

	got := map[PageID]byte{}
	var order []PageID
	err := vs.CurrentPages(func(id PageID, data []byte) error {
		got[id] = data[0]
		order = append(order, id)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("imaged %d pages, want 4", len(got))
	}
	if _, ok := got[ids[2]]; ok {
		t.Fatal("freed page imaged")
	}
	if got[ids[0]] != 99 {
		t.Fatalf("stale bytes for rewritten page: %d", got[ids[0]])
	}
	if got[ids[4]] != 5 {
		t.Fatalf("page %d byte = %d", ids[4], got[ids[4]])
	}
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Fatalf("pages not visited in ascending ID order: %v", order)
	}
	// The walk is read-only: physical I/O counters stay untouched.
	if io := vs.IO().Snapshot(); io.PhysicalReads != 0 {
		t.Fatalf("CurrentPages issued %d physical reads", io.PhysicalReads)
	}
}
