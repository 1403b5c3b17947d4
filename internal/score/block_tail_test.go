package score

import (
	"math"
	"math/rand"
	"testing"

	"fairassign/internal/geom"
	"fairassign/internal/simd"
)

// Lane-tail edge cases for the SIMD kernels: block lengths of 0, below
// the vector width, every residue mod 4, and operands that are
// unaligned sub-slices — each checked bit-exact against row-wise Eval
// with kernel dispatch both on and off.

func withSIMDModes(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer simd.SetEnabled(true)
	for _, on := range []bool{true, false} {
		simd.SetEnabled(on)
		t.Run(map[bool]string{true: "simd", false: "portable"}[on], f)
	}
}

func TestEvalBlockLaneTails(t *testing.T) {
	withSIMDModes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(77))
		for _, fam := range testFamilies {
			for _, dims := range []int{1, 3} {
				for n := 0; n <= 13; n++ {
					cols, rows := randCols(rng, n, dims)
					w := randWeights(rng, dims)
					out := make([]float64, n)
					EvalBlock(fam, w, cols, out)
					for i, row := range rows {
						want := Eval(fam, w, row)
						if math.Float64bits(out[i]) != math.Float64bits(want) {
							t.Fatalf("fam=%v dims=%d n=%d row %d: EvalBlock=%x Eval=%x",
								fam, dims, n, i, math.Float64bits(out[i]), math.Float64bits(want))
						}
					}
				}
			}
		}
	})
}

// TestEvalBlockUnaligned: reused scratch hands the kernels sub-slices
// at arbitrary element offsets; vector loads must not assume alignment.
func TestEvalBlockUnaligned(t *testing.T) {
	withSIMDModes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(78))
		for _, fam := range testFamilies {
			for _, n := range []int{9, 17, 31} {
				dims := 3
				cols, rows := randCols(rng, n, dims)
				for d := range cols {
					shifted := make([]float64, n+1)
					copy(shifted[1:], cols[d])
					cols[d] = shifted[1:]
				}
				w := randWeights(rng, dims)
				buf := make([]float64, n+3)
				out := buf[3:]
				EvalBlock(fam, w, cols, out)
				for i, row := range rows {
					want := Eval(fam, w, row)
					if math.Float64bits(out[i]) != math.Float64bits(want) {
						t.Fatalf("fam=%v n=%d row %d: EvalBlock=%x Eval=%x",
							fam, n, i, math.Float64bits(out[i]), math.Float64bits(want))
					}
				}
			}
		}
	})
}

// TestFuncBlocksTinyFamilies: family groups holding a single function
// (and other sub-vector-width counts) take the scalar dispatch path;
// the winner must still match a row-wise scan across all groups.
func TestFuncBlocksTinyFamilies(t *testing.T) {
	withSIMDModes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(79))
		dims := 3
		type fn struct {
			id  uint64
			fam Family
			w   []float64
		}
		var fns []fn
		fb := NewFuncBlocks(dims)
		id := uint64(0)
		// One function per family, then uneven counts: 2, 3, 5, 9.
		counts := []int{1, 1, 1, 2, 3, 5}
		counts = append(counts, 9)
		for fi, fam := range testFamilies {
			for k := 0; k < counts[fi%len(counts)]; k++ {
				w := randWeights(rng, dims)
				fb.Add(id, fam, w)
				fns = append(fns, fn{id, fam, w})
				id++
			}
		}
		for trial := 0; trial < 50; trial++ {
			o := geom.Point(randWeights(rng, dims))
			bestID, bestS, ok := fb.Best(o, 0)
			if !ok {
				t.Fatal("Best found nothing")
			}
			wantID, wantS := uint64(0), math.Inf(-1)
			for _, f := range fns {
				s := Eval(f.fam, f.w, o)
				if s > wantS || (s == wantS && f.id < wantID) {
					wantID, wantS = f.id, s
				}
			}
			if bestID != wantID || math.Float64bits(bestS) != math.Float64bits(wantS) {
				t.Fatalf("trial %d: Best=(%d,%x) row-wise=(%d,%x)",
					trial, bestID, math.Float64bits(bestS), wantID, math.Float64bits(wantS))
			}
		}
	})
}
