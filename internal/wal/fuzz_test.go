package wal

import (
	"bytes"
	"errors"
	"testing"

	"fairassign/internal/vfs"
)

// FuzzWALReadSegment feeds arbitrary bytes to the segment reader as a
// whole file. Recovery opens these files after a crash, so the reader
// must never panic or allocate past the file's actual size, must
// reject bad headers with ErrBadSegment, report tail damage only as
// ErrTornWrite, and keep the intact record prefix epoch-contiguous.
func FuzzWALReadSegment(f *testing.F) {
	fs := vfs.NewMem()
	if err := fs.MkdirAll("d"); err != nil {
		f.Fatal(err)
	}
	w, err := Create(fs, "d", 1, 7)
	if err != nil {
		f.Fatal(err)
	}
	if err := w.Append(8, []byte("payload-a")); err != nil {
		f.Fatal(err)
	}
	if err := w.Append(9, bytes.Repeat([]byte{0xAB}, 100)); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := fs.ReadAll("d/" + SegmentName(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:headerSize])   // header only, no records
	f.Add(valid[:headerSize+5]) // torn record header
	f.Add(valid[:len(valid)-1]) // torn record payload
	f.Add([]byte{})             // no header at all
	f.Add([]byte("FAWAL001"))   // magic alone
	huge := append([]byte(nil), valid[:headerSize]...)
	huge = append(huge, 0xFF, 0xFF, 0xFF, 0x0F) // plen near maxRecordSize, no data
	f.Add(huge)
	flipped := append([]byte(nil), valid...)
	flipped[headerSize+recHdrSize+2] ^= 0x10 // corrupt first payload
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		mfs := vfs.NewMem()
		if err := mfs.MkdirAll("d"); err != nil {
			t.Fatal(err)
		}
		name := SegmentName(1)
		mfs.WriteAll("d/"+name, data)
		sd, err := ReadSegment(mfs, "d", name)
		if err != nil {
			if !errors.Is(err, ErrBadSegment) {
				t.Fatalf("untyped read error: %v", err)
			}
			return
		}
		if sd.TornError != nil && !errors.Is(sd.TornError, ErrTornWrite) {
			t.Fatalf("untyped torn-tail error: %v", sd.TornError)
		}
		for i, rec := range sd.Records {
			if rec.Epoch != sd.BaseEpoch+1+uint64(i) {
				t.Fatalf("record %d epoch %d breaks contiguity from base %d", i, rec.Epoch, sd.BaseEpoch)
			}
		}
		// The cheap header-only reader must agree with the full decode.
		seq, base, err := ReadHeader(mfs, "d", name)
		if err != nil || seq != sd.Seq || base != sd.BaseEpoch {
			t.Fatalf("ReadHeader (%d, %d, %v) disagrees with ReadSegment (%d, %d)", seq, base, err, sd.Seq, sd.BaseEpoch)
		}
	})
}
