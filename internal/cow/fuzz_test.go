package cow

import (
	"maps"
	"testing"
)

// fuzzOp encodes one FuzzTable operation: three bytes, the kind in the
// low three bits of the first, a run length in its high five bits, and
// a 16-bit key in the other two.
func fuzzOp(kind, run byte, key uint16) []byte {
	return []byte{run<<3 | kind, byte(key >> 8), byte(key)}
}

// FuzzTable decodes bytes into a script of table operations — sets,
// deletes, runs of up to 512 sets or deletes that take the table
// through several doublings and past one directory page, freezes, and
// dropping a frozen copy — and checks the writer against a map after
// each operation, and every live frozen copy against what it held when
// it was frozen (Get at the touched keys and Len after each operation,
// then Get, Len, and All with no key twice at the end).
func FuzzTable(f *testing.F) {
	f.Add([]byte{})
	f.Add(append(append(fuzzOp(0, 0, 7), fuzzOp(5, 0, 0)...), fuzzOp(2, 0, 7)...))
	var grow []byte
	for i := range 10 {
		grow = append(grow, fuzzOp(3, 31, uint16(i)*500)...) // 512 sets
		grow = append(grow, fuzzOp(5, 0, 0)...)              // freeze
		grow = append(grow, fuzzOp(4, 3, uint16(i)*350)...)  // 64 deletes
		grow = append(grow, fuzzOp(0, 0, uint16(i)*977)...)
	}
	grow = append(grow, fuzzOp(6, 0, 1)...) // drop a frozen copy
	grow = append(grow, fuzzOp(7, 0, 0xBEEF)...)
	f.Add(grow)
	var churn []byte
	for i := range 40 {
		churn = append(churn, fuzzOp(byte(i%8), byte(i%4), uint16(i*i*131))...)
	}
	f.Add(churn)

	f.Fuzz(func(t *testing.T, data []byte) {
		const (
			maxOps    = 64 // bounds the work of one input
			maxFrozen = 4
		)
		type frozen struct {
			f    Frozen[int]
			want map[uint64]int
		}
		var frozens []frozen
		tab := New[int](0)
		ref := map[uint64]int{}
		for step := 0; len(data) >= 3 && step < maxOps; step++ {
			kind, run := data[0]&7, 16*(int(data[0]>>3)+1)
			k := uint64(data[1])<<8 | uint64(data[2])
			data = data[3:]
			lo, hi := k, k+1 // the keys the operation touched
			switch kind {
			case 0, 1:
				tab.Set(k, step)
				ref[k] = step
			case 2:
				tab.Del(k)
				delete(ref, k)
			case 3:
				hi = k + uint64(run)
				for x := lo; x < hi; x++ {
					tab.Set(x, step)
					ref[x] = step
				}
			case 4:
				hi = k + uint64(run)
				for x := lo; x < hi; x++ {
					tab.Del(x)
					delete(ref, x)
				}
			case 5:
				if len(frozens) == maxFrozen {
					frozens = frozens[1:]
				}
				frozens = append(frozens, frozen{f: tab.Freeze(), want: maps.Clone(ref)})
			case 6:
				if len(frozens) > 0 {
					i := int(k) % len(frozens)
					frozens = append(frozens[:i], frozens[i+1:]...)
				}
			case 7:
				// A key far above the dense range shares chunks with it.
				k = k<<48 | k
				lo, hi = k, k+1
				tab.Set(k, -step)
				ref[k] = -step
			}
			// The writer in full; the frozen copies at the touched keys,
			// and in full once the script ends.
			for x := lo; x < hi; x++ {
				sameGet(t, step, &tab.Frozen, ref, x)
				for _, fr := range frozens {
					sameGet(t, step, &fr.f, fr.want, x)
				}
			}
			if err := diffTable(&tab.Frozen, ref); err != nil {
				t.Fatalf("step %d: writer: %v", step, err)
			}
			for _, fr := range frozens {
				if fr.f.Len() != len(fr.want) {
					t.Fatalf("step %d: frozen copy Len() = %d, want %d", step, fr.f.Len(), len(fr.want))
				}
			}
		}
		for _, fr := range frozens {
			if err := diffTable(&fr.f, fr.want); err != nil {
				t.Fatalf("frozen copy: %v", err)
			}
		}
	})
}

// sameGet checks one lookup against the map a table should hold.
func sameGet(t *testing.T, step int, f *Frozen[int], want map[uint64]int, k uint64) {
	t.Helper()
	got, ok := f.Get(k)
	w, wok := want[k]
	if ok != wok || got != w {
		t.Fatalf("step %d: Get(%d) = %d, %v; want %d, %v", step, k, got, ok, w, wok)
	}
}
