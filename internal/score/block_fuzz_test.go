package score

import (
	"math"
	"testing"

	"fairassign/internal/simd"
)

// FuzzEvalBlockSIMD bit-compares the SIMD and portable kernel paths
// under every family's EvalBlock and under the FuncBlocks.Best dual
// scan, on arbitrary lengths, weights, and raw float64 bit patterns
// (NaN payloads, infinities, denormals, signed zeros). NaN outputs are
// compared as "both NaN": arithmetic NaN payloads are outside the
// kernel contract, everything else must match bit for bit.
func FuzzEvalBlockSIMD(f *testing.F) {
	f.Add(uint8(0), uint8(2), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Add(uint8(1), uint8(3), []byte{1, 0, 0, 0, 0, 0, 0xf8, 0xff, 0x55, 0xAA, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(2), uint8(1), []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(3), uint8(4), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f})
	f.Add(uint8(7), uint8(2), make([]byte, 8*41))
	f.Fuzz(func(t *testing.T, famSel, dimSel uint8, raw []byte) {
		if !simd.Available() {
			t.Skip("no assembly kernels for this CPU")
		}
		defer simd.SetEnabled(true)
		dims := 1 + int(dimSel)%6
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			var u uint64
			for b := 0; b < 8; b++ {
				u |= uint64(raw[8*i+b]) << (8 * b)
			}
			vals[i] = math.Float64frombits(u)
		}
		if len(vals) < 2*dims {
			t.Skip("not enough data")
		}
		fam := Family{Kind: Kind(famSel % 4)}
		if fam.Kind == Lp {
			p := math.Abs(vals[0])
			if !(p >= 1 && p <= 64) {
				p = 2
			}
			fam.P = p
		}
		w := vals[:dims]
		rest := vals[dims:]
		n := len(rest) / dims
		cols := make([][]float64, dims)
		for d := range cols {
			cols[d] = rest[d*n : (d+1)*n]
		}

		out1 := make([]float64, n)
		out2 := make([]float64, n)
		simd.SetEnabled(true)
		EvalBlock(fam, w, cols, out1)
		simd.SetEnabled(false)
		EvalBlock(fam, w, cols, out2)
		for i := range out1 {
			if math.Float64bits(out1[i]) != math.Float64bits(out2[i]) &&
				!(math.IsNaN(out1[i]) && math.IsNaN(out2[i])) {
				t.Fatalf("EvalBlock %v dims=%d n=%d row %d: SIMD %x portable %x",
					fam, dims, n, i, math.Float64bits(out1[i]), math.Float64bits(out2[i]))
			}
		}

		// Dual scan: the same raw rows become function weights, the
		// weight vector becomes the probe object.
		fb := NewFuncBlocks(dims)
		row := make([]float64, dims)
		for i := 0; i < n && i < 64; i++ {
			for d := 0; d < dims; d++ {
				row[d] = cols[d][i]
			}
			fb.Add(uint64(i), fam, row)
		}
		simd.SetEnabled(true)
		id1, s1, ok1 := fb.Best(w, 0)
		simd.SetEnabled(false)
		id2, s2, ok2 := fb.Best(w, 0)
		if ok1 != ok2 || id1 != id2 {
			t.Fatalf("FuncBlocks.Best %v dims=%d: SIMD (%d,%v,%v) portable (%d,%v,%v)",
				fam, dims, id1, s1, ok1, id2, s2, ok2)
		}
		if ok1 && math.Float64bits(s1) != math.Float64bits(s2) &&
			!(math.IsNaN(s1) && math.IsNaN(s2)) {
			t.Fatalf("FuncBlocks.Best %v dims=%d: score %x (SIMD) vs %x (portable)",
				fam, dims, math.Float64bits(s1), math.Float64bits(s2))
		}
	})
}
