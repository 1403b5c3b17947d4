package pagestore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func newVersionedMem(t *testing.T, pageSize int) *VersionedStore {
	t.Helper()
	return NewVersioned(NewMemStore(pageSize))
}

func writeByte(t *testing.T, s Store, id PageID, b byte) {
	t.Helper()
	data := make([]byte, s.PageSize())
	for i := range data {
		data[i] = b
	}
	if err := s.WritePage(id, data); err != nil {
		t.Fatalf("WritePage(%d, %x): %v", id, b, err)
	}
}

func readByte(t *testing.T, read func(PageID, []byte) error, ps int, id PageID) byte {
	t.Helper()
	buf := make([]byte, ps)
	if err := read(id, buf); err != nil {
		t.Fatalf("ReadPage(%d): %v", id, err)
	}
	for _, b := range buf[1:] {
		if b != buf[0] {
			t.Fatalf("page %d not uniform: %x vs %x", id, buf[0], b)
		}
	}
	return buf[0]
}

// A snapshot keeps reading the bytes of its epoch while the writer
// overwrites and publishes beyond it; a snapshot taken afterwards sees
// the new bytes.
func TestVersionedSnapshotIsolation(t *testing.T) {
	vs := newVersionedMem(t, 128)
	id, err := vs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	writeByte(t, vs, id, 0xA1)
	vs.Publish()
	s1 := vs.Acquire()
	defer s1.Release()

	writeByte(t, vs, id, 0xB2)
	vs.Publish()
	s2 := vs.Acquire()
	defer s2.Release()

	writeByte(t, vs, id, 0xC3) // unpublished writer epoch

	if got := readByte(t, s1.ReadPage, vs.PageSize(), id); got != 0xA1 {
		t.Fatalf("snapshot 1 reads %x, want A1", got)
	}
	if got := readByte(t, s2.ReadPage, vs.PageSize(), id); got != 0xB2 {
		t.Fatalf("snapshot 2 reads %x, want B2", got)
	}
	if got := readByte(t, vs.ReadPage, vs.PageSize(), id); got != 0xC3 {
		t.Fatalf("writer reads %x, want C3", got)
	}
}

// With serialized acquisition and no live snapshot the store recycles
// versions in place: no history accumulates and nothing is ever
// retired, no matter how many epochs are published.
func TestVersionedNoSnapshotNoHistory(t *testing.T) {
	vs := newVersionedMem(t, 128)
	vs.SetSerializedAcquire(true)
	id, err := vs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	retiredSeen := 0
	for i := 0; i < 10; i++ {
		writeByte(t, vs, id, byte(i+1))
		retiredSeen += vs.DebugStats().RetiredQueue
		vs.Publish()
	}
	st := vs.DebugStats()
	if st.TotalVersions != 1 || st.RetiredQueue != 0 || retiredSeen != 0 {
		t.Fatalf("history accumulated without snapshots: %+v (retired seen %d)", st, retiredSeen)
	}
}

// Releasing the last snapshot of an epoch reclaims the versions and
// tombstoned pages only it observed; page IDs become reusable.
func TestVersionedReclamation(t *testing.T) {
	vs := newVersionedMem(t, 128)
	a, _ := vs.Allocate()
	b, _ := vs.Allocate()
	writeByte(t, vs, a, 0x01)
	writeByte(t, vs, b, 0x02)
	vs.Publish()
	snap := vs.Acquire()

	// New epoch: overwrite a (COW) and free b (tombstone).
	writeByte(t, vs, a, 0x11)
	if err := vs.Free(b); err != nil {
		t.Fatalf("Free(%d): %v", b, err)
	}
	vs.Publish()

	st := vs.DebugStats()
	if st.TotalVersions != 3 { // a: old+new, b: tombstoned original
		t.Fatalf("want 3 retained versions, got %+v", st)
	}
	if got := readByte(t, snap.ReadPage, vs.PageSize(), b); got != 0x02 {
		t.Fatalf("snapshot lost freed page: %x", got)
	}
	if err := vs.ReadPage(b, make([]byte, vs.PageSize())); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("writer still sees freed page: %v", err)
	}
	if vs.NumPages() != 1 {
		t.Fatalf("NumPages = %d, want 1", vs.NumPages())
	}

	snap.Release()
	st = vs.DebugStats()
	if st.LivePages != 1 || st.TotalVersions != 1 || st.RetiredQueue != 0 || st.LiveSnapshots != 0 {
		t.Fatalf("release did not reclaim: %+v", st)
	}
	// The reclaimed ID is reusable.
	c, err := vs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if c != b {
		t.Logf("allocator returned %d (old id %d) — reuse not required, only allowed", c, b)
	}
}

// A view released mid-epoch, after the writer recycled a page's newest
// version in place, leaves no history behind: the next Publish prunes
// the superseded version the view had pinned.
func TestVersionedReleaseAfterRecycle(t *testing.T) {
	vs := newVersionedMem(t, 128)
	vs.SetSerializedAcquire(true)
	id, err := vs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	writeByte(t, vs, id, 0x01)
	vs.Publish()
	s1 := vs.Acquire()
	writeByte(t, vs, id, 0x02) // copy-on-write: s1 pins the old bytes
	vs.Publish()
	writeByte(t, vs, id, 0x03) // recycle: no live view pins the newest version
	s1.Release()
	vs.Publish()
	st := vs.DebugStats()
	if st.LivePages != 1 || st.TotalVersions != 1 || st.RetiredQueue != 0 || st.LiveSnapshots != 0 {
		t.Fatalf("history leaked after release: %+v", st)
	}
	if got := readByte(t, vs.ReadPage, vs.PageSize(), id); got != 0x03 {
		t.Fatalf("writer reads %x, want 03", got)
	}
}

// A page allocated and freed in the same unpublished epoch vanishes
// immediately even while older snapshots are live.
func TestVersionedEphemeralPage(t *testing.T) {
	vs := newVersionedMem(t, 128)
	vs.Publish()
	snap := vs.Acquire()
	defer snap.Release()
	id, _ := vs.Allocate()
	if err := vs.Free(id); err != nil {
		t.Fatal(err)
	}
	st := vs.DebugStats()
	if st.LivePages != 0 || st.TotalVersions != 0 {
		t.Fatalf("ephemeral page retained: %+v", st)
	}
	if err := snap.ReadPage(id, make([]byte, vs.PageSize())); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("old snapshot sees page from a later epoch: %v", err)
	}
}

// GetDecoded parses a version at most once, shares the result across
// snapshots of the same epoch, and re-parses after the bytes change in
// a new epoch.
func TestVersionedDecodedCache(t *testing.T) {
	vs := newVersionedMem(t, 128)
	id, _ := vs.Allocate()
	writeByte(t, vs, id, 0x07)
	vs.Publish()
	s1 := vs.Acquire()
	s2 := vs.Acquire()
	defer s1.Release()
	defer s2.Release()

	decodes := 0
	decode := func(_ PageID, data []byte) (any, error) {
		decodes++
		return fmt.Sprintf("page-%x", data[0]), nil
	}
	for i := 0; i < 3; i++ {
		for _, sn := range []*Snapshot{s1, s2} {
			obj, err := sn.GetDecoded(id, decode)
			if err != nil {
				t.Fatal(err)
			}
			if obj.(string) != "page-7" {
				t.Fatalf("decoded %v", obj)
			}
		}
	}
	if decodes != 1 {
		t.Fatalf("decode ran %d times, want 1", decodes)
	}

	writeByte(t, vs, id, 0x08)
	vs.Publish()
	s3 := vs.Acquire()
	defer s3.Release()
	obj, err := s3.GetDecoded(id, decode)
	if err != nil {
		t.Fatal(err)
	}
	if obj.(string) != "page-8" || decodes != 2 {
		t.Fatalf("new epoch decoded %v after %d decodes", obj, decodes)
	}
}

// Snapshots stay fully readable after the store is closed.
func TestVersionedSnapshotSurvivesClose(t *testing.T) {
	vs := newVersionedMem(t, 128)
	id, _ := vs.Allocate()
	writeByte(t, vs, id, 0x55)
	vs.Publish()
	snap := vs.Acquire()
	defer snap.Release()
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readByte(t, snap.ReadPage, vs.PageSize(), id); got != 0x55 {
		t.Fatalf("post-close snapshot read %x", got)
	}
	if _, err := vs.Allocate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Allocate after Close: %v", err)
	}
}

// Writer I/O accounting is transparent: a versioned store performs
// exactly the same physical reads and writes as the bare inner store
// under identical traffic, with or without snapshot readers attached.
func TestVersionedIOTransparent(t *testing.T) {
	traffic := func(s Store) {
		var ids []PageID
		for i := 0; i < 8; i++ {
			id, _ := s.Allocate()
			ids = append(ids, id)
			data := make([]byte, s.PageSize())
			data[0] = byte(i)
			s.WritePage(id, data)
		}
		buf := make([]byte, s.PageSize())
		for _, id := range ids {
			s.ReadPage(id, buf)
		}
		s.Free(ids[3])
	}
	plain := NewMemStore(128)
	traffic(plain)
	vs := newVersionedMem(t, 128)
	traffic(vs)
	// Interleave snapshot churn with a second pass; reader traffic must
	// not show up on the writer counter.
	vs.Publish()
	snap := vs.Acquire()
	snap.GetDecoded(0, func(_ PageID, d []byte) (any, error) { return d[0], nil })
	snap.Release()
	if p, v := plain.IO().Snapshot(), vs.IO().Snapshot(); p != v {
		t.Fatalf("I/O diverged: plain %+v vs versioned %+v", p, v)
	}
}

// Concurrent snapshot readers against a publishing writer — run under
// -race. Readers verify they always observe the uniform page fill of
// their own epoch, never a torn or later image.
func TestVersionedConcurrentReaders(t *testing.T) {
	vs := newVersionedMem(t, 256)
	id, _ := vs.Allocate()
	writeByte(t, vs, id, 1)
	vs.Publish()

	const epochs = 200
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, vs.PageSize())
			for i := 0; i < epochs; i++ {
				snap := vs.Acquire()
				if err := snap.ReadPage(id, buf); err != nil {
					t.Errorf("reader: %v", err)
					snap.Release()
					return
				}
				if !bytes.Equal(buf, bytes.Repeat([]byte{buf[0]}, len(buf))) {
					t.Errorf("torn read at epoch %d", snap.Epoch())
				}
				if _, err := snap.GetDecoded(id, func(_ PageID, d []byte) (any, error) { return d[0], nil }); err != nil {
					t.Errorf("decode: %v", err)
				}
				snap.Release()
			}
		}()
	}
	for i := 2; i <= epochs; i++ {
		writeByte(t, vs, id, byte(i%251)+1)
		vs.Publish()
	}
	wg.Wait()
	// After all readers drop, a publish leaves exactly one version.
	vs.Publish()
	if st := vs.DebugStats(); st.TotalVersions != 1 || st.RetiredQueue != 0 {
		t.Fatalf("history leaked: %+v", st)
	}
}
