package pagestore

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"weak"
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

// snapRead reads pages as snapshot sn holds them.
func snapRead(sn *Snapshot) func(PageID, []byte) error {
	return func(id PageID, buf []byte) error {
		v, err := sn.resolve(id)
		if err == nil {
			copy(buf, v.data)
		}
		return err
	}
}

// writerVersion returns the writer's current version of a page.
func writerVersion(t *testing.T, vs *VersionedStore, id PageID) *pageVersion {
	t.Helper()
	v, ok := vs.pages.Get(uint64(id))
	if !ok {
		t.Fatalf("page %d not in the page table", id)
	}
	return v
}

// A snapshot keeps reading the bytes it froze while the writer rewrites
// the page; a snapshot taken afterwards sees the new bytes.
func TestVersionedSnapshotIsolation(t *testing.T) {
	vs := newVersionedMem(t, 128)
	id, err := vs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	writeByte(t, vs, id, 0xA1)
	s1 := vs.Acquire()
	defer s1.Release()

	writeByte(t, vs, id, 0xB2)
	s2 := vs.Acquire()
	defer s2.Release()

	writeByte(t, vs, id, 0xC3)
	writeByte(t, vs, id, 0xC4) // a second write after the last freeze

	if got := readByte(t, snapRead(s1), vs.PageSize(), id); got != 0xA1 {
		t.Fatalf("snapshot 1 reads %x, want A1", got)
	}
	if got := readByte(t, snapRead(s2), vs.PageSize(), id); got != 0xB2 {
		t.Fatalf("snapshot 2 reads %x, want B2", got)
	}
	if got := readByte(t, vs.ReadPage, vs.PageSize(), id); got != 0xC4 {
		t.Fatalf("writer reads %x, want C4", got)
	}
}

// A write to a page that no live snapshot holds overwrites its version
// in place: snapshots taken and released between writes, or a live
// snapshot that froze the table before the page's current version was
// written, leave no second version behind.
func TestVersionedNoSnapshotNoHistory(t *testing.T) {
	vs := newVersionedMem(t, 128)
	id, err := vs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	writeByte(t, vs, id, 0x01)
	v := writerVersion(t, vs, id)
	for i := 0; i < 10; i++ {
		vs.Acquire().Release()
		writeByte(t, vs, id, byte(i+2))
		if got := writerVersion(t, vs, id); got != v {
			t.Fatalf("write %d allocated a new version with no live snapshot", i)
		}
	}

	held := vs.Acquire()
	defer held.Release()
	writeByte(t, vs, id, 0x20) // held froze the current version: copy
	fresh := writerVersion(t, vs, id)
	if fresh == v {
		t.Fatal("write to a pinned version was made in place")
	}
	writeByte(t, vs, id, 0x21) // held never saw this version: in place
	if got := writerVersion(t, vs, id); got != fresh {
		t.Fatal("write to a version written after the freeze allocated a new one")
	}
	if got := readByte(t, snapRead(held), vs.PageSize(), id); got != 11 {
		t.Fatalf("held snapshot reads %x, want 0B", got)
	}
}

// Free removes a page from the writer at once and frees the inner page,
// while a snapshot that froze it keeps reading its bytes.
func TestVersionedReclamation(t *testing.T) {
	inner := NewMemStore(128)
	vs := NewVersioned(inner)
	a, _ := vs.Allocate()
	b, _ := vs.Allocate()
	writeByte(t, vs, a, 0x01)
	writeByte(t, vs, b, 0x02)
	snap := vs.Acquire()
	defer snap.Release()

	writeByte(t, vs, a, 0x11)
	if err := vs.Free(b); err != nil {
		t.Fatalf("Free(%d): %v", b, err)
	}
	if vs.NumPages() != 1 || inner.NumPages() != 1 {
		t.Fatalf("NumPages = %d (inner %d), want 1", vs.NumPages(), inner.NumPages())
	}
	if err := vs.ReadPage(b, make([]byte, vs.PageSize())); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("writer still sees freed page: %v", err)
	}
	if got := readByte(t, snapRead(snap), vs.PageSize(), b); got != 0x02 {
		t.Fatalf("snapshot lost freed page: %x", got)
	}
	if got := readByte(t, snapRead(snap), vs.PageSize(), a); got != 0x01 {
		t.Fatalf("snapshot reads %x for the rewritten page, want 01", got)
	}
	// The freed ID is reusable while the snapshot is live, and the new
	// page does not reach the snapshot.
	c, err := vs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	writeByte(t, vs, c, 0x33)
	if c == b {
		if got := readByte(t, snapRead(snap), vs.PageSize(), b); got != 0x02 {
			t.Fatalf("snapshot reads the reused page: %x", got)
		}
	}
}

// A superseded version is freed by the garbage collector once the
// snapshot holding it is released and dropped, also after the writer
// rewrote the page's newer version in place.
func TestVersionedReleaseAfterRecycle(t *testing.T) {
	vs := newVersionedMem(t, 128)
	id, err := vs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	writeByte(t, vs, id, 0x01)
	s1 := vs.Acquire()
	old := weak.Make(writerVersion(t, vs, id))
	writeByte(t, vs, id, 0x02) // copy-on-write: s1 holds the old bytes
	writeByte(t, vs, id, 0x03) // in place: no live snapshot holds the new version
	if got := readByte(t, snapRead(s1), vs.PageSize(), id); got != 0x01 {
		t.Fatalf("snapshot reads %x, want 01", got)
	}
	s1.Release()
	s1 = nil
	runtime.GC()
	if old.Value() != nil {
		t.Fatal("superseded version outlived the released snapshot")
	}
	if n := vs.LivePins(); n != 0 {
		t.Fatalf("%d pins after release", n)
	}
	if got := readByte(t, vs.ReadPage, vs.PageSize(), id); got != 0x03 {
		t.Fatalf("writer reads %x, want 03", got)
	}
}

// A page allocated and freed after a snapshot vanishes immediately and
// never reaches the snapshot.
func TestVersionedEphemeralPage(t *testing.T) {
	vs := newVersionedMem(t, 128)
	snap := vs.Acquire()
	defer snap.Release()
	id, _ := vs.Allocate()
	if err := vs.Free(id); err != nil {
		t.Fatal(err)
	}
	if n := vs.NumPages(); n != 0 {
		t.Fatalf("ephemeral page retained: %d pages", n)
	}
	if err := snapRead(snap)(id, make([]byte, vs.PageSize())); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("old snapshot sees page allocated after it: %v", err)
	}
}

// GetDecoded parses a version at most once, shares the result across
// snapshots that hold it, and re-parses after the writer rewrites the
// page.
func TestVersionedDecodedCache(t *testing.T) {
	vs := newVersionedMem(t, 128)
	id, _ := vs.Allocate()
	writeByte(t, vs, id, 0x07)
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
	s3 := vs.Acquire()
	defer s3.Release()
	obj, err := s3.GetDecoded(id, decode)
	if err != nil {
		t.Fatal(err)
	}
	if obj.(string) != "page-8" || decodes != 2 {
		t.Fatalf("rewritten page decoded %v after %d decodes", obj, decodes)
	}
}

// Snapshots stay fully readable after the store is closed.
func TestVersionedSnapshotSurvivesClose(t *testing.T) {
	vs := newVersionedMem(t, 128)
	id, _ := vs.Allocate()
	writeByte(t, vs, id, 0x55)
	snap := vs.Acquire()
	defer snap.Release()
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readByte(t, snapRead(snap), vs.PageSize(), id); got != 0x55 {
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
	// Snapshot reader traffic must not show up on the writer counter.
	snap := vs.Acquire()
	snap.GetDecoded(0, func(_ PageID, d []byte) (any, error) { return d[0], nil })
	snap.Release()
	if p, v := plain.IO().Snapshot(), vs.IO().Snapshot(); p != v {
		t.Fatalf("I/O diverged: plain %+v vs versioned %+v", p, v)
	}
}

// Concurrent snapshot readers against a rewriting writer — run under
// -race. The writer acquires every snapshot between its writes and
// hands it to a reader, which must observe the uniform page fill the
// snapshot froze, never a torn or later image, and then releases it.
func TestVersionedConcurrentReaders(t *testing.T) {
	vs := newVersionedMem(t, 256)
	id, _ := vs.Allocate()

	type pinned struct {
		snap *Snapshot
		fill byte
	}
	snaps := make(chan pinned)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, vs.PageSize())
			for p := range snaps {
				if err := snapRead(p.snap)(id, buf); err != nil {
					t.Errorf("reader: %v", err)
				} else if !bytes.Equal(buf, bytes.Repeat([]byte{p.fill}, len(buf))) {
					t.Errorf("snapshot of fill %x read %x...", p.fill, buf[:4])
				}
				obj, err := p.snap.GetDecoded(id, func(_ PageID, d []byte) (any, error) { return d[0], nil })
				if err != nil || obj.(byte) != p.fill {
					t.Errorf("decode: %v, %v; want %x", obj, err, p.fill)
				}
				p.snap.Release()
			}
		}()
	}
	for i := 1; i <= 200; i++ {
		fill := byte(i%251) + 1
		writeByte(t, vs, id, fill)
		snaps <- pinned{snap: vs.Acquire(), fill: fill}
	}
	close(snaps)
	wg.Wait()
	if n := vs.LivePins(); n != 0 {
		t.Fatalf("%d pins after every reader released", n)
	}
}
