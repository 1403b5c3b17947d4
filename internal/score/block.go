package score

import (
	"math"

	"fairassign/internal/geom"
	"fairassign/internal/simd"
)

// This file holds the columnar (structure-of-arrays) scoring kernels.
// The row-wise Eval scores one (function, object) pair per call; the
// hot reverse scans of the assignment stack score one function against
// a whole block of objects (EvalBlock) or one object against a whole
// block of functions (FuncBlocks). Laying the operands out as
// per-dimension contiguous columns turns both into tight
// multiply-accumulate loops over []float64 that the compiler can keep
// in registers and auto-vectorize, with no per-pair dispatch.
//
// Every kernel is bit-identical to calling Eval pair by pair: each one
// accumulates the same products in the same dimension order as the
// corresponding Eval branch, so the conformance sweeps (which compare
// matchings against definitional oracles) see no difference between the
// columnar and row-wise paths.

// EvalBlock scores one function (family fam, weights w) against a block
// of objects stored as per-dimension columns: cols[d][i] is attribute d
// of object i. The scores of objects 0..len(out)-1 are written to out.
// Every cols[d] must have at least len(out) entries.
//
// out[i] is bit-identical to Eval(fam, w, objectRow(i)). Linear,
// Chebyshev, and Lp at p = 1 and p = 2 run columnar kernels; OWA and
// other Lp exponents gather each row and call Eval, because their
// per-row sort or math.Pow dominates and columns do not speed it up.
func EvalBlock(fam Family, w []float64, cols [][]float64, out []float64) {
	n := len(out)
	switch {
	case fam.Kind == Linear, fam.Kind == Lp && fam.P == 1:
		linearBlock(w, cols, out)
	case fam.Kind == Chebyshev:
		if len(w) == 0 {
			for i := range out[:n] {
				out[i] = 0
			}
			return
		}
		simd.ScaleMaxZ(out[:n], cols[0][:n], w[0])
		for d := 1; d < len(w); d++ {
			simd.ScaleMax(out[:n], cols[d][:n], w[d])
		}
	case fam.Kind == Lp && fam.P == 2 && len(w) > 0:
		// powNonNeg at p == 2 is the clamped square — a pure multiply
		// the SIMD kernel performs inline, keeping the whole
		// power-column accumulation off the math.Pow path.
		simd.AxpySqClampZ(out[:n], cols[0][:n], w[0])
		for d := 1; d < len(w); d++ {
			simd.AxpySqClamp(out[:n], cols[d][:n], w[d])
		}
		for i := range out[:n] {
			out[i] = math.Pow(out[i], 0.5)
		}
	default:
		var buf [maxStackDims]float64
		row := buf[:]
		if len(w) > maxStackDims {
			row = make([]float64, len(w))
		}
		row = row[:len(w)]
		for i := range out[:n] {
			for d := range row {
				row[d] = cols[d][i]
			}
			out[i] = Eval(fam, w, row)
		}
	}
}

// linearBlock is the shared dot-product kernel: column-by-column
// accumulation in ascending dimension order reproduces geom.Dot's
// summation order for every row (AxpyZ writes the dimension-0 products
// as fresh sums, Axpy folds the rest in — each out[i] receives exactly
// the additions geom.Dot performs, in the same order).
func linearBlock(w []float64, cols [][]float64, out []float64) {
	n := len(out)
	if len(w) == 0 {
		for i := range out[:n] {
			out[i] = 0
		}
		return
	}
	simd.AxpyZ(out[:n], cols[0][:n], w[0])
	for d := 1; d < len(w); d++ {
		simd.Axpy(out[:n], cols[d][:n], w[d])
	}
}

// EvalPrepared is Eval with the object's descending-sorted attribute
// values already in hand. A reverse search holds one object fixed while
// scoring many candidate functions; for OWA families the per-call
// attribute sort is the dominant cost, and it depends only on the
// object — so callers sort once and reuse. Bit-identical to Eval: OWA's
// Eval is exactly Dot(w, sortedDesc(o)).
func EvalPrepared(fam Family, w []float64, o geom.Point, osorted []float64) float64 {
	if fam.Kind == OWA {
		return geom.Dot(w, osorted)
	}
	return Eval(fam, w, o)
}

// FuncBlocks holds a function population as per-family columnar blocks:
// within each block, wcols[d][i] is weight d of function i. It answers
// the reverse exhaustive scan — "best function for this object" — with
// one batched kernel pass per family instead of one Eval call per
// function. Blocks support incremental Add/Remove (swap-delete), so a
// long-lived index (Workspace, Chain's non-linear side list) maintains
// them across mutations.
//
// Beside its weights each function carries a floor: free (the default)
// or a score and object ID — for the Workspace, its worst assignment —
// which Best's object must beat, so a reverse search skips a fully
// assigned function with one compare.
//
// A FuncBlocks is single-goroutine: Best keeps its score scratch on the
// index, so it allocates nothing at steady state.
type FuncBlocks struct {
	dims   int
	groups []*funcGroup
	loc    map[uint64]funcLoc

	out  []float64 // Best's per-group scores
	prep []float64 // Best's per-object preprocessing
}

type funcLoc struct{ g, i int }

type funcGroup struct {
	fam   Family
	ids   []uint64
	wcols [][]float64

	// Floor columns (see Best); nfloor counts the floored functions.
	floored []bool
	floorS  []float64
	floorO  []uint64
	nfloor  int
}

// NewFuncBlocks returns an empty function-block index for the given
// dimensionality.
func NewFuncBlocks(dims int) *FuncBlocks {
	return &FuncBlocks{dims: dims, loc: make(map[uint64]funcLoc), prep: make([]float64, dims)}
}

// Len returns the number of indexed functions.
func (fb *FuncBlocks) Len() int { return len(fb.loc) }

// Contains reports whether the function is indexed.
func (fb *FuncBlocks) Contains(id uint64) bool {
	_, ok := fb.loc[id]
	return ok
}

// Add indexes a function with a free floor. The weight slice is copied
// into the columns, so callers may reuse it. Adding an ID twice is a
// no-op for the second add.
func (fb *FuncBlocks) Add(id uint64, fam Family, w []float64) {
	if _, dup := fb.loc[id]; dup {
		return
	}
	gi := -1
	for i, g := range fb.groups {
		if g.fam == fam {
			gi = i
			break
		}
	}
	if gi == -1 {
		g := &funcGroup{fam: fam, wcols: make([][]float64, fb.dims)}
		fb.groups = append(fb.groups, g)
		gi = len(fb.groups) - 1
	}
	g := fb.groups[gi]
	fb.loc[id] = funcLoc{g: gi, i: len(g.ids)}
	g.ids = append(g.ids, id)
	for d := 0; d < fb.dims; d++ {
		g.wcols[d] = append(g.wcols[d], w[d])
	}
	g.floored = append(g.floored, false)
	g.floorS = append(g.floorS, 0)
	g.floorO = append(g.floorO, 0)
}

// Remove drops a function from the index (swap-delete within its family
// block). It reports whether the ID was present.
func (fb *FuncBlocks) Remove(id uint64) bool {
	l, ok := fb.loc[id]
	if !ok {
		return false
	}
	g := fb.groups[l.g]
	if g.floored[l.i] {
		g.nfloor--
	}
	last := len(g.ids) - 1
	if l.i != last {
		moved := g.ids[last]
		g.ids[l.i] = moved
		for d := range g.wcols {
			g.wcols[d][l.i] = g.wcols[d][last]
		}
		g.floored[l.i], g.floorS[l.i], g.floorO[l.i] = g.floored[last], g.floorS[last], g.floorO[last]
		fb.loc[moved] = funcLoc{g: l.g, i: l.i}
	}
	g.ids = g.ids[:last]
	for d := range g.wcols {
		g.wcols[d] = g.wcols[d][:last]
	}
	g.floored, g.floorS, g.floorO = g.floored[:last], g.floorS[:last], g.floorO[:last]
	delete(fb.loc, id)
	return true
}

// SetFloor gives an indexed function the floor (s, oid). Unknown IDs
// are ignored.
func (fb *FuncBlocks) SetFloor(id uint64, s float64, oid uint64) {
	l, ok := fb.loc[id]
	if !ok {
		return
	}
	g := fb.groups[l.g]
	if !g.floored[l.i] {
		g.floored[l.i] = true
		g.nfloor++
	}
	g.floorS[l.i], g.floorO[l.i] = s, oid
}

// ClearFloor makes an indexed function free. Unknown IDs are ignored.
func (fb *FuncBlocks) ClearFloor(id uint64) {
	l, ok := fb.loc[id]
	if !ok {
		return
	}
	if g := fb.groups[l.g]; g.floored[l.i] {
		g.floored[l.i] = false
		g.nfloor--
	}
}

// Floor returns a function's floor; floored is false for a free or
// unknown one.
func (fb *FuncBlocks) Floor(id uint64) (s float64, oid uint64, floored bool) {
	l, ok := fb.loc[id]
	if !ok {
		return 0, 0, false
	}
	g := fb.groups[l.g]
	return g.floorS[l.i], g.floorO[l.i], g.floored[l.i]
}

// Best returns the indexed function maximizing its family score at o,
// the object with ID oid, among the functions that admit it: a free
// function admits every object, a floored one only a score s with
// s > floorS, or s == floorS and oid < floorO (a NaN score passes no
// floor). Ties break to the lower function ID. On NaN-free scores the
// result does not depend on block or group order — selection is by the
// total order (score, -id) — and each score is bit-identical to Eval on
// the same function, so Best matches a row-wise scan exactly. A group
// with no floor takes the argmax kernel. ok is false when no function
// admits o.
func (fb *FuncBlocks) Best(o geom.Point, oid uint64) (bestID uint64, bestS float64, ok bool) {
	for _, g := range fb.groups {
		n := len(g.ids)
		if n == 0 {
			continue
		}
		if cap(fb.out) < n {
			fb.out = make([]float64, n)
		}
		out := fb.out[:n]
		g.evalDual(o, fb.prep, out)
		if g.nfloor == 0 {
			// Unfiltered: the group winner under (score, -id) comes
			// from the strided argmax kernel, and only winners cross
			// the group merge.
			bi := simd.SelectBest(out, g.ids)
			id, s := g.ids[bi], out[bi]
			if ok && (s < bestS || (s == bestS && id >= bestID)) {
				continue
			}
			bestID, bestS, ok = id, s, true
			continue
		}
		for i, s := range out {
			id := g.ids[i]
			if ok && (s < bestS || (s == bestS && id >= bestID)) {
				continue
			}
			if fs := g.floorS[i]; g.floored[i] && !(s > fs || (s == fs && oid < g.floorO[i])) {
				continue
			}
			bestID, bestS, ok = id, s, true
		}
	}
	return bestID, bestS, ok
}

// evalDual scores every function in the group against the fixed object:
// out[i] = Eval(g.fam, weightsRow(i), o), bit for bit. It is the dual
// of EvalBlock — per-dimension accumulation over the weight columns,
// exploiting that each family's per-object preprocessing (OWA's sort,
// Lp's attribute powers) depends only on o and is hoisted out of the
// block entirely. prep must have dims capacity.
func (g *funcGroup) evalDual(o geom.Point, prep, out []float64) {
	n := len(out)
	switch g.fam.Kind {
	case OWA:
		// Eval is Dot(w, sortedDesc(o)): sort o once, then the linear
		// kernel over the weight columns reproduces position order.
		osort := sortedDesc(o, prep)
		dualLinear(osort, g.wcols, out)
	case Chebyshev:
		if len(o) == 0 {
			for i := range out[:n] {
				out[i] = 0
			}
			return
		}
		simd.ScaleMaxZ(out[:n], g.wcols[0][:n], o[0])
		for d := 1; d < len(o); d++ {
			simd.ScaleMax(out[:n], g.wcols[d][:n], o[d])
		}
	case Lp:
		if g.fam.P == 1 {
			dualLinear(o, g.wcols, out)
			return
		}
		// powNonNeg(o[d], p) depends only on the object: one pass.
		op := prep[:len(o)]
		for d, v := range o {
			op[d] = powNonNeg(v, g.fam.P)
		}
		dualLinear(op, g.wcols, out)
		inv := 1 / g.fam.P
		for i := range out[:n] {
			out[i] = math.Pow(out[i], inv)
		}
	default: // Linear
		dualLinear(o, g.wcols, out)
	}
}

// dualLinear is the weight-side dot kernel: out[i] = Σ_d wcols[d][i]·x[d]
// accumulated in ascending dimension order — geom.Dot's order, with the
// factors of each product merely swapped (multiplication commutes, so
// the result bits are identical).
func dualLinear(x []float64, wcols [][]float64, out []float64) {
	n := len(out)
	if len(x) == 0 {
		for i := range out[:n] {
			out[i] = 0
		}
		return
	}
	simd.AxpyZ(out[:n], wcols[0][:n], x[0])
	for d := 1; d < len(x); d++ {
		simd.Axpy(out[:n], wcols[d][:n], x[d])
	}
}
