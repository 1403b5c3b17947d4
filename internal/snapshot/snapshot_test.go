package snapshot

import (
	"errors"
	"path"
	"reflect"
	"testing"

	"fairassign/internal/vfs"
)

func sampleData() *Data {
	return &Data{
		Epoch: 12,
		Dims:  2,
		Counters: Counters{
			Mutations: 3, Commits: 12, ChainSteps: 7, Searches: 40, Resolves: 5,
		},
		Objects: []ObjectRec{
			{ID: 1, Capacity: 1, Point: []float64{0.1, 0.9}},
			{ID: 2, Capacity: 3, Point: []float64{0.5, 0.5}},
		},
		Functions: []FunctionRec{
			{ID: 10, Capacity: 1, Gamma: 1.5, FamKind: 0, FamP: 0, Weights: []float64{0.3, 0.7}},
			{ID: 11, Capacity: 2, Gamma: 0, FamKind: 3, FamP: 2, Weights: []float64{0.6, 0.4}},
		},
		Pairs:    []Pair{{FuncID: 10, ObjID: 1, Score: 0.66}, {FuncID: 11, ObjID: 2, Score: 0.5}},
		ObjCaps:  []CapEntry{{ID: 1, Remaining: 0}, {ID: 2, Remaining: 2}},
		FuncCaps: []CapEntry{{ID: 10, Remaining: 0}, {ID: 11, Remaining: 1}},
		Avail:    []uint64{2},
		ObjStore: StoreImage{
			PageSize: 256, Next: 3, Root: 2, Height: 1, Size: 2,
			Pages: []PageImage{{ID: 0, Data: []byte{1, 2, 3}}, {ID: 2, Data: []byte{9}}},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := sampleData()
	got, err := Decode(Encode(d))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, got) {
		t.Fatalf("roundtrip mismatch:\n want %+v\n got  %+v", d, got)
	}
}

func TestDecodeCorruptionDetected(t *testing.T) {
	buf := Encode(sampleData())
	// Every single-bit flip anywhere in the file must be rejected with a
	// typed error (header crc, section crc, or structural check) — and
	// never panic.
	for bit := 0; bit < len(buf)*8; bit += 5 {
		mut := make([]byte, len(buf))
		copy(mut, buf)
		mut[bit/8] ^= 1 << (bit % 8)
		if _, err := Decode(mut); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("bit %d: err = %v, want ErrBadSnapshot", bit, err)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	buf := Encode(sampleData())
	for cut := 0; cut < len(buf); cut++ {
		if _, err := Decode(buf[:cut]); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("cut %d: err = %v, want ErrBadSnapshot", cut, err)
		}
	}
	// Trailing garbage is also rejected.
	if _, err := Decode(append(append([]byte{}, buf...), 0)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("trailing byte accepted")
	}
}

func TestFileRoundTrip(t *testing.T) {
	fs := vfs.NewMem()
	fs.MkdirAll("dur")
	d := sampleData()
	name, err := WriteFile(fs, "dur", d)
	if err != nil {
		t.Fatal(err)
	}
	if name != FileName(d.Epoch) {
		t.Fatalf("name = %s", name)
	}
	got, err := ReadFile(fs, "dur", d.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, got) {
		t.Fatal("file roundtrip mismatch")
	}
	epochs, err := List(fs, "dur")
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 1 || epochs[0] != 12 {
		t.Fatalf("epochs = %v", epochs)
	}
}

func TestReadFileEpochNameMismatch(t *testing.T) {
	fs := vfs.NewMem()
	fs.MkdirAll("dur")
	d := sampleData()
	if _, err := WriteFile(fs, "dur", d); err != nil {
		t.Fatal(err)
	}
	// A file renamed to the wrong epoch must not be trusted.
	raw, _ := fs.ReadAll(path.Join("dur", FileName(12)))
	fs.WriteAll(path.Join("dur", FileName(13)), raw)
	if _, err := ReadFile(fs, "dur", 13); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("epoch mismatch: err = %v", err)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	recs := []MutationRec{
		{Kind: BatchAddObject, Object: ObjectRec{ID: 5, Capacity: 2, Point: []float64{1, 2, 3}}},
		{Kind: BatchRemoveObject, ID: 4},
		{Kind: BatchAddFunction, Function: FunctionRec{ID: 9, Capacity: 1, Gamma: 2, FamKind: 1, FamP: 0, Weights: []float64{0.5, 0.25, 0.25}}},
		{Kind: BatchRemoveFunction, ID: 9},
	}
	got, err := DecodeBatch(EncodeBatch(recs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, got) {
		t.Fatalf("batch roundtrip mismatch:\n want %+v\n got  %+v", recs, got)
	}
}

func TestBatchCorruptionTyped(t *testing.T) {
	buf := EncodeBatch([]MutationRec{
		{Kind: BatchAddObject, Object: ObjectRec{ID: 1, Point: []float64{0.5}}},
		{Kind: BatchRemoveFunction, ID: 2},
	})
	for cut := 0; cut < len(buf); cut++ {
		if _, err := DecodeBatch(buf[:cut]); !errors.Is(err, ErrBadBatch) {
			t.Fatalf("cut %d: err = %v, want ErrBadBatch", cut, err)
		}
	}
	for bit := 0; bit < len(buf)*8; bit++ {
		mut := make([]byte, len(buf))
		copy(mut, buf)
		mut[bit/8] ^= 1 << (bit % 8)
		if out, err := DecodeBatch(mut); err != nil && !errors.Is(err, ErrBadBatch) {
			t.Fatalf("bit %d: err = %v, want ErrBadBatch", bit, err)
		} else {
			_ = out // batches have no checksum of their own (the WAL record
			// covers them); a flip may decode to different values, but it
			// must never panic or return an untyped error.
		}
	}
}

func TestDecodeHugeCountsRejected(t *testing.T) {
	// A forged section claiming 2^32-ish element counts must be rejected
	// by plausibility checks before any allocation (OOM safety), not
	// after attempting to allocate.
	d := sampleData()
	buf := Encode(d)
	// Decode must handle arbitrary prefixes of valid data plus garbage
	// without allocating absurd amounts; exercised more deeply by the
	// fuzz targets — this is the deterministic smoke.
	garbage := make([]byte, 64)
	for i := range garbage {
		garbage[i] = 0xFF
	}
	if _, err := Decode(garbage); !errors.Is(err, ErrBadSnapshot) {
		t.Fatal("garbage accepted")
	}
	if _, err := Decode(append(buf[:20:20], garbage...)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatal("mixed garbage accepted")
	}
}
