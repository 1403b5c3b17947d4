package score

import (
	"math"
	"math/rand"
	"testing"

	"fairassign/internal/geom"
)

// testFamilies is the kernel sweep: every family the stack scores,
// including both Lp special cases.
var testFamilies = []Family{
	{Kind: Linear},
	{Kind: OWA},
	{Kind: Chebyshev},
	{Kind: Lp, P: 1},
	{Kind: Lp, P: 2},
	{Kind: Lp, P: 3.5},
}

// randCols builds n random points in columnar and row layout, seeding
// ties and duplicates so the kernels' comparisons are exercised on
// exact-equality paths.
func randCols(rng *rand.Rand, n, dims int) (cols [][]float64, rows []geom.Point) {
	cols = make([][]float64, dims)
	for d := range cols {
		cols[d] = make([]float64, n)
	}
	rows = make([]geom.Point, n)
	for i := 0; i < n; i++ {
		rows[i] = make(geom.Point, dims)
		for d := 0; d < dims; d++ {
			v := rng.Float64()
			switch rng.Intn(8) {
			case 0:
				v = 0.5 // cross-point ties
			case 1:
				if d > 0 {
					v = rows[i][d-1] // within-point ties (OWA sort order)
				}
			}
			cols[d][i] = v
			rows[i][d] = v
		}
		if i > 0 && rng.Intn(10) == 0 {
			// Exact duplicate of an earlier point.
			j := rng.Intn(i)
			for d := 0; d < dims; d++ {
				cols[d][i] = cols[d][j]
				rows[i][d] = cols[d][i]
			}
		}
	}
	return cols, rows
}

// TestEvalBlockMatchesEval: the columnar object-block kernel must be
// bit-identical to row-wise Eval for every family, dimensionality, and
// tie pattern.
func TestEvalBlockMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, fam := range testFamilies {
		for _, dims := range []int{1, 2, 3, 4, 5, 9} {
			cols, rows := randCols(rng, 257, dims)
			w := randWeights(rng, dims)
			out := make([]float64, len(rows))
			EvalBlock(fam, w, cols, out)
			for i, row := range rows {
				want := Eval(fam, w, row)
				if math.Float64bits(out[i]) != math.Float64bits(want) {
					t.Fatalf("fam=%v dims=%d row %d: EvalBlock=%x Eval=%x", fam, dims, i,
						math.Float64bits(out[i]), math.Float64bits(want))
				}
			}
		}
	}
}

// TestEvalPreparedMatchesEval: the prepared-object evaluation (sorted
// attributes precomputed once per reverse search) is bit-identical to
// Eval for every family.
func TestEvalPreparedMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, fam := range testFamilies {
		for _, dims := range []int{1, 2, 4, 5} {
			for trial := 0; trial < 50; trial++ {
				o := geom.Point(randWeights(rng, dims))
				w := randWeights(rng, dims)
				osorted := sortedDesc(o, make([]float64, dims))
				got := EvalPrepared(fam, w, o, osorted)
				want := Eval(fam, w, o)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("fam=%v dims=%d: EvalPrepared=%v Eval=%v", fam, dims, got, want)
				}
			}
		}
	}
}

// TestFuncBlocksBestMatchesScan: the batched function-direction Best
// must agree with an exhaustive row-wise Eval scan — same winner, same
// score bits — on mixed-family populations with score ties, under both
// nil and restrictive accept filters.
func TestFuncBlocksBestMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, dims := range []int{2, 4, 5} {
		fb := NewFuncBlocks(dims)
		type fn struct {
			id  uint64
			fam Family
			w   []float64
		}
		var funcs []fn
		for i := 0; i < 300; i++ {
			fam := testFamilies[rng.Intn(len(testFamilies))]
			w := randWeights(rng, dims)
			if i > 0 && rng.Intn(6) == 0 {
				// Duplicate weights under the same family: forces exact
				// score ties, which must break to the lower ID.
				j := rng.Intn(i)
				fam = funcs[j].fam
				w = append([]float64(nil), funcs[j].w...)
			}
			f := fn{id: uint64(1000 + i), fam: fam, w: w}
			funcs = append(funcs, f)
			fb.Add(f.id, f.fam, f.w)
		}
		// Exercise swap-delete: remove a third, keep scanning the rest.
		for i := 0; i < len(funcs); i += 3 {
			if !fb.Remove(funcs[i].id) {
				t.Fatalf("Remove(%d) reported absent", funcs[i].id)
			}
		}
		live := make([]fn, 0, len(funcs))
		for i, f := range funcs {
			if i%3 != 0 {
				live = append(live, f)
			}
		}
		if fb.Len() != len(live) {
			t.Fatalf("Len=%d want %d", fb.Len(), len(live))
		}

		filters := []func(id uint64, s float64) bool{
			nil,
			func(id uint64, s float64) bool { return id%2 == 0 },
			func(id uint64, s float64) bool { return s > 0.5 },
			func(id uint64, s float64) bool { return false },
		}
		for trial := 0; trial < 40; trial++ {
			o := geom.Point(randWeights(rng, dims))
			for fi, accept := range filters {
				gotID, gotS, gotOK := fb.Best(o, accept)
				var wantID uint64
				var wantS float64
				wantOK := false
				for _, f := range live {
					s := Eval(f.fam, f.w, o)
					if accept != nil && !accept(f.id, s) {
						continue
					}
					if !wantOK || s > wantS || (s == wantS && f.id < wantID) {
						wantID, wantS, wantOK = f.id, s, true
					}
				}
				if gotOK != wantOK || (gotOK && (gotID != wantID ||
					math.Float64bits(gotS) != math.Float64bits(wantS))) {
					t.Fatalf("dims=%d filter=%d: Best=(%d,%x,%v) scan=(%d,%x,%v)",
						dims, fi, gotID, math.Float64bits(gotS), gotOK,
						wantID, math.Float64bits(wantS), wantOK)
				}
			}
		}
	}
}

// TestFuncBlocksRemoveUnknown: removing an absent ID must report false
// and leave the index intact.
func TestFuncBlocksRemoveUnknown(t *testing.T) {
	fb := NewFuncBlocks(2)
	fb.Add(1, Family{}, []float64{0.3, 0.7})
	if fb.Remove(2) {
		t.Fatal("Remove(2) on absent ID reported true")
	}
	if fb.Len() != 1 || !fb.Contains(1) {
		t.Fatal("index damaged by absent-ID remove")
	}
}

// TestKernelAllocs: the kernels must be allocation-free at steady state
// — EvalBlock with caller-owned buffers always, FuncBlocks.Best once
// its scratch is warm.
func TestKernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dims := 4
	cols, _ := randCols(rng, 512, dims)
	w := randWeights(rng, dims)
	out := make([]float64, 512)
	for _, fam := range testFamilies {
		fam := fam
		if n := testing.AllocsPerRun(20, func() { EvalBlock(fam, w, cols, out) }); n != 0 {
			t.Errorf("EvalBlock(%v) allocates %.1f/op, want 0", fam, n)
		}
	}

	fb := NewFuncBlocks(dims)
	for i := 0; i < 256; i++ {
		fb.Add(uint64(i), testFamilies[i%len(testFamilies)], randWeights(rng, dims))
	}
	o := geom.Point(randWeights(rng, dims))
	fb.Best(o, nil) // warm the scratch
	if n := testing.AllocsPerRun(20, func() { fb.Best(o, nil) }); n != 0 {
		t.Errorf("FuncBlocks.Best allocates %.1f/op, want 0", n)
	}
}

// BenchmarkEvalBlock compares the columnar kernel against the row-wise
// Eval loop it replaces, per family.
func BenchmarkEvalBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n, dims = 4096, 4
	cols, rows := randCols(rng, n, dims)
	w := randWeights(rng, dims)
	out := make([]float64, n)
	for _, fam := range testFamilies {
		fam := fam
		b.Run("columnar/"+famLabel(fam), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				EvalBlock(fam, w, cols, out)
			}
		})
		b.Run("rowwise/"+famLabel(fam), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j, row := range rows {
					out[j] = Eval(fam, w, row)
				}
			}
		})
	}
}

// BenchmarkFuncBlocksBest compares the batched function-direction scan
// against row-wise Eval over the same population.
func BenchmarkFuncBlocksBest(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const n, dims = 4096, 4
	for _, fam := range testFamilies {
		fam := fam
		fb := NewFuncBlocks(dims)
		ws := make([][]float64, n)
		for i := 0; i < n; i++ {
			ws[i] = randWeights(rng, dims)
			fb.Add(uint64(i), fam, ws[i])
		}
		o := geom.Point(randWeights(rng, dims))
		b.Run("blocked/"+famLabel(fam), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fb.Best(o, nil)
			}
		})
		b.Run("rowwise/"+famLabel(fam), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var bestID uint64
				var bestS float64
				ok := false
				for j := range ws {
					s := Eval(fam, ws[j], o)
					if !ok || s > bestS || (s == bestS && uint64(j) < bestID) {
						bestID, bestS, ok = uint64(j), s, true
					}
				}
				_ = bestID
			}
		})
	}
}

func famLabel(f Family) string {
	if f.Kind == Lp {
		switch f.P {
		case 1:
			return "lp1"
		case 2:
			return "lp2"
		default:
			return "lpX"
		}
	}
	return f.Kind.String()
}
