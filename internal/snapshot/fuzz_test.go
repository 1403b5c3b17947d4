package snapshot

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzSnapshotDecode drives the snapshot decoder with arbitrary bytes.
// The decoder guards every recovery path, so the contract is absolute:
// no panic, no unbounded allocation, and every rejection is a typed
// ErrBadSnapshot. Anything it accepts must round-trip stably through
// the canonical encoding.
func FuzzSnapshotDecode(f *testing.F) {
	valid := Encode(sampleData())
	f.Add(valid)
	f.Add(valid[:headerSize])     // header only, no sections
	f.Add(valid[:len(valid)/2])   // truncated mid-section
	f.Add(append(valid, 0))       // trailing garbage
	f.Add([]byte{})               // empty
	f.Add([]byte("FASNAP01"))     // magic alone
	f.Add(bytes.Repeat(valid, 2)) // doubled file
	flipped := append([]byte(nil), valid...)
	flipped[headerSize+9] ^= 0x40 // corrupt a section header byte
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// Accepted input: the canonical re-encoding must decode cleanly
		// and be a fixed point.
		b1 := Encode(d)
		d2, err := Decode(b1)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if !bytes.Equal(Encode(d2), b1) {
			t.Fatal("canonical encoding is not stable")
		}
	})
}

// FuzzBatchDecode drives the WAL batch payload decoder. The WAL record
// checksum normally guards these bytes, but replay must stay safe even
// against a log written by a diverged or hostile process: typed
// ErrBadBatch on rejection, allocations bounded by the input, no panic.
func FuzzBatchDecode(f *testing.F) {
	sample := []MutationRec{
		{Kind: BatchAddObject, Object: ObjectRec{ID: 7, Capacity: 2, Point: []float64{0.5, 0.25, 0.125}}},
		{Kind: BatchAddFunction, Function: FunctionRec{ID: 9, Capacity: 1, Gamma: 0.5, FamKind: 1, FamP: 2, Weights: []float64{0.5, 0.5}}},
		{Kind: BatchRemoveObject, ID: 3},
		{Kind: BatchRemoveFunction, ID: 4},
	}
	valid := EncodeBatch(sample)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])           // truncated final mutation
	f.Add(append(valid, 1, 2, 3))         // trailing bytes
	f.Add([]byte{})                       // short payload
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // implausible count
	f.Add(EncodeBatch(nil))               // empty batch
	f.Fuzz(func(t *testing.T, data []byte) {
		muts, err := DecodeBatch(data)
		if err != nil {
			if !errors.Is(err, ErrBadBatch) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		b1 := EncodeBatch(muts)
		m2, err := DecodeBatch(b1)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if !bytes.Equal(EncodeBatch(m2), b1) {
			t.Fatal("canonical batch encoding is not stable")
		}
	})
}
