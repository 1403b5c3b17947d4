package score

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// floorFunc is one function of the Best reference scan, with the floor
// the test gave it: free unless floored.
type floorFunc struct {
	id      uint64
	fam     Family
	w       []float64
	floored bool
	floorS  float64
	floorO  uint64
}

// scanBest is the row-wise reference for FuncBlocks.Best: every function
// in order, admitted by its floor, and taken unless it scores lower than
// the incumbent or ties it with a higher ID — the kernels' replacement
// rule, which also fixes what a NaN score does.
func scanBest(fns []floorFunc, o geom.Point, oid uint64) (bestID uint64, bestS float64, ok bool) {
	for _, f := range fns {
		s := Eval(f.fam, f.w, o)
		if f.floored && !(s > f.floorS || (s == f.floorS && oid < f.floorO)) {
			continue
		}
		if ok && (s < bestS || (s == bestS && f.id >= bestID)) {
			continue
		}
		bestID, bestS, ok = f.id, s, true
	}
	return bestID, bestS, ok
}

// setFloors installs each function's floor in fb.
func setFloors(fb *FuncBlocks, fns []floorFunc) {
	for _, f := range fns {
		if f.floored {
			fb.SetFloor(f.id, f.floorS, f.floorO)
		} else {
			fb.ClearFloor(f.id)
		}
	}
}

// checkBest compares fb.Best with scanBest, score bits included.
func checkBest(t *testing.T, label string, fb *FuncBlocks, fns []floorFunc, o geom.Point, oid uint64) {
	t.Helper()
	gotID, gotS, gotOK := fb.Best(o, oid)
	wantID, wantS, wantOK := scanBest(fns, o, oid)
	if gotOK != wantOK || (gotOK && (gotID != wantID ||
		math.Float64bits(gotS) != math.Float64bits(wantS))) {
		t.Fatalf("%s: Best=(%d,%x,%v) scan=(%d,%x,%v)", label,
			gotID, math.Float64bits(gotS), gotOK, wantID, math.Float64bits(wantS), wantOK)
	}
}

// TestFuncBlocksBestMatchesScan: the batched function-direction Best
// must agree with an exhaustive row-wise Eval scan — same winner, same
// score bits — on mixed-family populations with score ties, under
// floor settings that admit fixed sets (none floored, odd IDs
// rejected, s > 0.5, nothing) and under random floors drawn from each
// function's own score at the probe, so both sides of the object-ID
// tie-break run. Floors set before the removals must move with their
// functions through swap-delete. A last probe scores +Inf, -Inf and NaN.
func TestFuncBlocksBestMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	inf := math.Inf(1)
	for _, dims := range []int{2, 4, 5} {
		fb := NewFuncBlocks(dims)
		var funcs []floorFunc
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
			f := floorFunc{id: uint64(1000 + i), fam: fam, w: w}
			funcs = append(funcs, f)
			fb.Add(f.id, f.fam, f.w)
			// Floor every function that stays, so the swap-deletes below
			// must carry floors; the settings then overwrite them.
			if i%3 != 0 {
				fb.SetFloor(f.id, inf, 0)
			}
		}
		// Exercise swap-delete: remove a third, keep scanning the rest.
		for i := 0; i < len(funcs); i += 3 {
			if !fb.Remove(funcs[i].id) {
				t.Fatalf("Remove(%d) reported absent", funcs[i].id)
			}
		}
		live := make([]floorFunc, 0, len(funcs))
		for i, f := range funcs {
			if i%3 != 0 {
				live = append(live, f)
			}
		}
		if fb.Len() != len(live) {
			t.Fatalf("Len=%d want %d", fb.Len(), len(live))
		}
		if _, _, ok := fb.Best(geom.Point(randWeights(rng, dims)), 0); ok {
			t.Fatalf("dims=%d: a floor at +Inf admitted a function", dims)
		}

		settings := []struct {
			name  string
			floor func(f *floorFunc, s float64, oid uint64)
		}{
			{"free", func(f *floorFunc, _ float64, _ uint64) {}},
			{"odd rejected", func(f *floorFunc, _ float64, _ uint64) {
				if f.id%2 == 1 {
					f.floored, f.floorS = true, inf
				}
			}},
			{"s > 0.5", func(f *floorFunc, _ float64, _ uint64) { f.floored, f.floorS = true, 0.5 }},
			{"nothing", func(f *floorFunc, _ float64, _ uint64) { f.floored, f.floorS = true, inf }},
			{"own score", func(f *floorFunc, s float64, oid uint64) {
				if rng.Intn(5) == 0 {
					return // free
				}
				f.floored = true
				f.floorS = [...]float64{s, s, s, math.Nextafter(s, -inf), math.Nextafter(s, inf)}[rng.Intn(5)]
				f.floorO = oid - 1 + uint64(rng.Intn(3)) // below, at or above oid
			}},
		}
		for trial := 0; trial < 40; trial++ {
			o := geom.Point(randWeights(rng, dims))
			oid := uint64(1 + rng.Intn(1000))
			for _, st := range settings {
				fns := slices.Clone(live)
				for i := range fns {
					st.floor(&fns[i], Eval(fns[i].fam, fns[i].w, o), oid)
				}
				setFloors(fb, fns)
				checkBest(t, fmt.Sprintf("dims=%d trial %d %s", dims, trial, st.name), fb, fns, o, oid)
			}
		}
	}

	// Overflowing scores: at {MaxFloat64, -MaxFloat64} the linear weights
	// below score NaN, +Inf twice, -Inf twice and 0. Each trial inserts
	// them in a random order into a fresh single-family block; under
	// eight functions both Best paths scan in that order, so the
	// reference does too, and NaN's place in it is part of the result.
	o := geom.Point{math.MaxFloat64, -math.MaxFloat64}
	ws := [][]float64{{2, 2}, {2, 0}, {3, 0}, {0, 2}, {0, 3}, {1, 1}}
	for trial := 0; trial < 200; trial++ {
		fb := NewFuncBlocks(2)
		var fns []floorFunc
		for _, i := range rng.Perm(len(ws)) {
			f := floorFunc{id: uint64(10 + i), fam: Family{Kind: Linear}, w: ws[i]}
			fb.Add(f.id, f.fam, f.w)
			fns = append(fns, f)
		}
		oid := uint64(5 + rng.Intn(3))
		checkBest(t, fmt.Sprintf("overflow trial %d free", trial), fb, fns, o, oid)
		for i := range fns {
			if rng.Intn(3) > 0 {
				fns[i].floored = true
				fns[i].floorS = Eval(fns[i].fam, fns[i].w, o)
				fns[i].floorO = uint64(5 + rng.Intn(3))
			}
		}
		setFloors(fb, fns)
		checkBest(t, fmt.Sprintf("overflow trial %d floored", trial), fb, fns, o, oid)
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
	fb.Best(o, 7) // warm the scratch
	if n := testing.AllocsPerRun(20, func() { fb.Best(o, 7) }); n != 0 {
		t.Errorf("FuncBlocks.Best allocates %.1f/op, want 0", n)
	}
	for i := 0; i < 256; i += 2 {
		fb.SetFloor(uint64(i), 0.5, 7)
	}
	if n := testing.AllocsPerRun(20, func() { fb.Best(o, 7) }); n != 0 {
		t.Errorf("FuncBlocks.Best with floors allocates %.1f/op, want 0", n)
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
				fb.Best(o, 0)
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
