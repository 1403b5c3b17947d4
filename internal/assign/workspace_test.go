package assign

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fairassign/internal/geom"
	"fairassign/internal/rtree"
	"fairassign/internal/skyline"
)

func newTestWorkspace(t *testing.T, p *Problem) *Workspace {
	t.Helper()
	w, err := NewWorkspace(p, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// checkAgainstResolve asserts the workspace matching equals a cold SB
// solve of the current snapshot and is stable for it.
func checkAgainstResolve(t *testing.T, w *Workspace, label string) {
	t.Helper()
	snap := w.ProblemSnapshot()
	cold, err := SB(snap, testCfg())
	if err != nil {
		t.Fatalf("%s: cold solve: %v", label, err)
	}
	samePairs(t, label, w.Pairs(), cold.Pairs)
	if err := IsStable(snap, w.Pairs()); err != nil {
		t.Fatalf("%s: workspace matching unstable: %v", label, err)
	}
}

func TestWorkspaceInitialMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := randProblem(rng, 12, 80, 3)
	w := newTestWorkspace(t, p)
	checkAgainstResolve(t, w, "initial")
	st := w.Stats()
	if st.Objects != 80 || st.Functions != 12 || st.AssignedUnits != 12 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Resolves != 1 {
		t.Fatalf("resolves = %d, want 1 (only the initial build)", st.Resolves)
	}
}

// TestWorkspaceBuildMatchesOracleOnTies builds workspaces over 2-D
// integer-grid instances, where exact score ties are everywhere:
// objects on the {0, ¼, ½, ¾}² grid (so many share a point) and linear
// functions from three weight profiles (so many score every object
// identically). Every weight is positive, so an object that dominates
// another outscores it under every function. The built matching must
// be Oracle's, pair for pair in the definitional order.
func TestWorkspaceBuildMatchesOracleOnTies(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(2700 + seed))
		p := &Problem{Dims: 2}
		for i := 0; i < 60; i++ {
			pt := geom.Point{float64(rng.Intn(4)) / 4, float64(rng.Intn(4)) / 4}
			p.Objects = append(p.Objects, Object{ID: uint64(i + 1), Point: pt, Capacity: 1 + rng.Intn(2)})
		}
		for i := 0; i < 20; i++ {
			a := float64(1+rng.Intn(3)) / 4
			p.Functions = append(p.Functions, Function{ID: uint64(i + 1), Weights: []float64{a, 1 - a}, Capacity: 1 + rng.Intn(2)})
		}
		want, err := Oracle(p)
		if err != nil {
			t.Fatal(err)
		}
		sortPairsDefinitional(want.Pairs)
		w, err := NewWorkspace(p, testCfg())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := w.Pairs()
		w.Close()
		if !slices.Equal(got, want.Pairs) {
			t.Errorf("seed %d: built matching differs from Oracle's\n got  %v\n want %v", seed, got, want.Pairs)
		}
	}
}

func TestWorkspaceAddFunctionChains(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := randProblem(rng, 10, 60, 2)
	w := newTestWorkspace(t, p)
	// Arrivals, one at a time, each validated against a cold solve.
	for i := 0; i < 8; i++ {
		weights := make([]float64, 2)
		sum := 0.0
		for d := range weights {
			weights[d] = rng.Float64()
			sum += weights[d]
		}
		for d := range weights {
			weights[d] /= sum
		}
		f := Function{ID: uint64(100 + i), Weights: weights}
		if err := w.AddFunction(f); err != nil {
			t.Fatal(err)
		}
		checkAgainstResolve(t, w, "after AddFunction")
	}
	if w.Stats().Resolves != 1 {
		t.Fatal("arrivals must repair, not re-solve")
	}
}

func TestWorkspaceRemoveObjectRechains(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	p := randProblem(rng, 15, 50, 3)
	w := newTestWorkspace(t, p)
	// Remove the objects that are actually assigned — each removal frees
	// a function that must re-chain.
	for i := 0; i < 10; i++ {
		pairs := w.Pairs()
		if len(pairs) == 0 {
			break
		}
		if err := w.RemoveObject(pairs[0].ObjectID); err != nil {
			t.Fatal(err)
		}
		checkAgainstResolve(t, w, "after RemoveObject")
	}
}

func TestWorkspaceAddObjectFillsVacancies(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	// More functions than objects: every arrival should be taken.
	p := randProblem(rng, 30, 20, 2)
	w := newTestWorkspace(t, p)
	for i := 0; i < 10; i++ {
		pt := geom.Point{rng.Float64(), rng.Float64()}
		if err := w.AddObject(Object{ID: uint64(1000 + i), Point: pt}); err != nil {
			t.Fatal(err)
		}
		checkAgainstResolve(t, w, "after AddObject")
	}
	if got := w.Stats().AssignedUnits; got != 30 {
		t.Fatalf("assigned units = %d, want 30 (functions all matched)", got)
	}
}

func TestWorkspaceRemoveFunctionVacancyChains(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	p := randProblem(rng, 25, 20, 3) // oversubscribed: removals promote waiters
	w := newTestWorkspace(t, p)
	for i := 0; i < 12; i++ {
		pairs := w.Pairs()
		if len(pairs) == 0 {
			break
		}
		if err := w.RemoveFunction(pairs[len(pairs)/2].FuncID); err != nil {
			t.Fatal(err)
		}
		checkAgainstResolve(t, w, "after RemoveFunction")
	}
}

func TestWorkspaceRandomizedMixedMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	p := randProblem(rng, 10, 40, 3)
	// Random capacities and priorities to exercise the full variant space.
	for i := range p.Objects {
		p.Objects[i].Capacity = 1 + rng.Intn(3)
	}
	for i := range p.Functions {
		p.Functions[i].Capacity = 1 + rng.Intn(3)
		p.Functions[i].Gamma = float64(1 + rng.Intn(3))
	}
	w := newTestWorkspace(t, p)
	nextID := uint64(10_000)
	for step := 0; step < 60; step++ {
		switch rng.Intn(4) {
		case 0:
			pt := make(geom.Point, 3)
			for d := range pt {
				pt[d] = rng.Float64()
			}
			nextID++
			if err := w.AddObject(Object{ID: nextID, Point: pt, Capacity: 1 + rng.Intn(3)}); err != nil {
				t.Fatal(err)
			}
		case 1:
			weights := make([]float64, 3)
			sum := 0.0
			for d := range weights {
				weights[d] = rng.Float64()
				sum += weights[d]
			}
			for d := range weights {
				weights[d] /= sum
			}
			nextID++
			if err := w.AddFunction(Function{ID: nextID, Weights: weights, Capacity: 1 + rng.Intn(3), Gamma: float64(1 + rng.Intn(3))}); err != nil {
				t.Fatal(err)
			}
		case 2:
			snap := w.ProblemSnapshot()
			if len(snap.Objects) <= 2 {
				continue
			}
			if err := w.RemoveObject(snap.Objects[rng.Intn(len(snap.Objects))].ID); err != nil {
				t.Fatal(err)
			}
		default:
			snap := w.ProblemSnapshot()
			if len(snap.Functions) <= 1 {
				continue
			}
			if err := w.RemoveFunction(snap.Functions[rng.Intn(len(snap.Functions))].ID); err != nil {
				t.Fatal(err)
			}
		}
		checkAgainstResolve(t, w, "mixed mutation")
	}
	if w.Stats().Mutations == 0 {
		t.Fatal("mutations not counted")
	}
}

// TestWorkspaceObjectIDReuseNewPoint pins a review finding: removing
// an object and re-adding its ID at a different point must not let a
// stale parked skyline entry resurrect the OLD coordinates onto the
// availability frontier.
func TestWorkspaceObjectIDReuseNewPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	p := randProblem(rng, 6, 40, 2)
	w := newTestWorkspace(t, p)
	snap := w.ProblemSnapshot()
	for round := 0; round < 25; round++ {
		// Remove a random live object and re-add the SAME ID somewhere
		// else, repeatedly — stale parked entries for reused IDs pile up
		// and must never resurface with old coordinates.
		id := snap.Objects[rng.Intn(len(snap.Objects))].ID
		if _, ok := w.obj.objs.Get(id); !ok {
			continue
		}
		if err := w.RemoveObject(id); err != nil {
			t.Fatal(err)
		}
		pt := geom.Point{rng.Float64(), rng.Float64()}
		if err := w.AddObject(Object{ID: id, Point: pt}); err != nil {
			t.Fatal(err)
		}
		// Churn a function too so dominator removals resurface parked
		// entries.
		pairs := w.Pairs()
		if len(pairs) > 0 {
			oid := pairs[rng.Intn(len(pairs))].ObjectID
			if _, ok := w.obj.objs.Get(oid); ok {
				opt, _ := w.ObjectPoint(oid)
				keep := opt.Clone()
				if err := w.RemoveObject(oid); err != nil {
					t.Fatal(err)
				}
				if err := w.AddObject(Object{ID: oid, Point: keep}); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkAgainstResolve(t, w, "after ID reuse")
		// The frontier must only report current coordinates.
		for _, it := range w.obj.avail.Skyline() {
			cur, ok := w.ObjectPoint(it.ID)
			if !ok {
				t.Fatalf("frontier holds departed object %d", it.ID)
			}
			if !cur.Equal(it.Point) {
				t.Fatalf("frontier holds stale coordinates for %d: %v vs %v", it.ID, it.Point, cur)
			}
		}
	}
}

func TestWorkspaceMutationErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	p := randProblem(rng, 4, 10, 2)
	w := newTestWorkspace(t, p)
	if err := w.AddObject(Object{ID: 1, Point: geom.Point{0.5, 0.5}}); err == nil {
		t.Fatal("duplicate object accepted")
	}
	if err := w.AddObject(Object{ID: 999, Point: geom.Point{0.5}}); err == nil {
		t.Fatal("wrong-dims object accepted")
	}
	if err := w.AddFunction(Function{ID: 1, Weights: []float64{0.5, 0.5}}); err == nil {
		t.Fatal("duplicate function accepted")
	}
	if err := w.AddFunction(Function{ID: 999, Weights: []float64{-0.5, 1.5}}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := w.RemoveObject(424242); err == nil {
		t.Fatal("unknown object removal accepted")
	}
	if err := w.RemoveFunction(424242); err == nil {
		t.Fatal("unknown function removal accepted")
	}
	w.Close()
	if err := w.AddObject(Object{ID: 5000, Point: geom.Point{0.1, 0.1}}); err == nil {
		t.Fatal("mutation on closed workspace accepted")
	}
}

// TestDisplacementBlockMatchesRowScan drives the repair-lock scripts,
// plus a capacity-heavy variant and a crowded one (more function units
// than object units), one mutation per Apply, and checks the repair
// indexes after each. The displacement block's rows are exactly the
// full objects, with their points bit for bit and their current worst
// assignments, and its pick for every live function equals a row-wise
// scan of all live objects. No frontier change is left pending, and
// the frontier's ID set is the skyline (SFS) of the live objects with
// spare capacity. Every live function's floor in the reverse-search
// blocks is free exactly when it has a spare unit, and otherwise its
// worst assignment; and the reverse search's pick for every live
// object equals a row-wise scan of all live functions under the
// definitional "wants" rule. Warm bestEntry and bestTaker calls
// allocate nothing.
func TestDisplacementBlockMatchesRowScan(t *testing.T) {
	const steps = 60
	ins := repairInstances()
	for _, crowded := range []bool{false, true} {
		// The tie-heavy instance with two or three units on every object,
		// so full objects hold several assignments and a displacement
		// moves their worst one.
		in := repairInstances()[0]
		in.name = "ties-2d-capacity"
		for i := range in.p.Objects {
			in.p.Objects[i].Capacity = 2 + i%2
		}
		newObj := in.s.newObj
		in.s.newObj = func(rng *rand.Rand, id uint64) Object {
			o := newObj(rng, id)
			o.Capacity = 2 + int(id%2)
			return o
		}
		if crowded {
			// Two or three units on every function too, and only the
			// first 20 objects, so function units outnumber object
			// units: a displaced function can stay unplaced with a
			// spare unit while it still holds others.
			in.name = "ties-2d-crowded"
			in.p.Objects, in.s.objs = in.p.Objects[:20], in.s.objs[:20]
			for i := range in.p.Functions {
				in.p.Functions[i].Capacity = 2 + i%2
			}
			newFunc := in.s.newFunc
			in.s.newFunc = func(rng *rand.Rand, id uint64) Function {
				f := newFunc(rng, id)
				f.Capacity = 2 + int(id%2)
				return f
			}
		}
		ins = append(ins, in)
	}
	for _, in := range ins {
		w, err := NewWorkspace(in.p, testCfg())
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		checkDisplacementBlock(t, w, in.name+" initial")
		checkFrontierAndFloors(t, w, in.name+" initial")
		for step := 0; step < steps; step++ {
			if err := w.Apply(in.s.batch(1)); err != nil {
				t.Fatalf("%s step %d: %v", in.name, step, err)
			}
			label := fmt.Sprintf("%s step %d", in.name, step)
			checkDisplacementBlock(t, w, label)
			checkFrontierAndFloors(t, w, label)
		}
		for fid := range w.eff {
			if allocs := testing.AllocsPerRun(20, func() { w.bestEntry(fid) }); allocs != 0 {
				t.Errorf("%s: warm bestEntry for function %d allocates %v times per call", in.name, fid, allocs)
			}
		}
		for id, o := range w.obj.objs.All() {
			if allocs := testing.AllocsPerRun(20, func() { w.bestTaker(id, o.Point) }); allocs != 0 {
				t.Errorf("%s: warm bestTaker for object %d allocates %v times per call", in.name, id, allocs)
			}
		}
		w.Close()
	}
}

// checkDisplacementBlock compares the displacement block with the
// workspace's tables and a row-wise displacement scan.
func checkDisplacementBlock(t *testing.T, w *Workspace, label string) {
	t.Helper()
	pt, b := w.obj, w.obj.full
	full := 0
	for id, o := range pt.objs.All() {
		if pt.caps.remaining[id] > 0 {
			continue
		}
		full++
		i, ok := b.row[id]
		if !ok || i >= len(b.ids) || b.ids[i] != id {
			t.Fatalf("%s: full object %d has no row", label, id)
		}
		for d, v := range o.Point {
			if math.Float64bits(b.cols[d][i]) != math.Float64bits(v) {
				t.Fatalf("%s: object %d column %d is %v, want %v", label, id, d, b.cols[d][i], v)
			}
		}
		worst := worstOfObj(pt.byObj[id])
		if math.Float64bits(b.worstS[i]) != math.Float64bits(worst.score) || b.worstF[i] != worst.fid {
			t.Fatalf("%s: object %d worst row (%v,%d) want (%v,%d)", label, id, b.worstS[i], b.worstF[i], worst.score, worst.fid)
		}
	}
	if len(b.ids) != full || len(b.row) != full || len(b.worstS) != full || len(b.worstF) != full {
		t.Fatalf("%s: block has %d rows (%d indexed), want the %d full objects", label, len(b.ids), len(b.row), full)
	}
	for d, col := range b.cols {
		if len(col) != full {
			t.Fatalf("%s: column %d has %d rows, want %d", label, d, len(col), full)
		}
	}
	for fid := range w.eff {
		sc := w.scorerOf(fid)
		var wantID uint64
		var wantS float64
		wantOK := false
		for id, o := range pt.objs.All() {
			if pt.caps.remaining[id] > 0 {
				continue
			}
			s := sc.Score(o.Point)
			worst := worstOfObj(pt.byObj[id])
			if !(s > worst.score || (s == worst.score && fid < worst.fid)) {
				continue
			}
			if !wantOK || s > wantS || (s == wantS && id < wantID) {
				wantID, wantS, wantOK = id, s, true
			}
		}
		gotID, gotS, gotOK := b.best(fid, sc)
		if gotOK != wantOK || gotID != wantID || math.Float64bits(gotS) != math.Float64bits(wantS) {
			t.Fatalf("%s: function %d displaces (%d, %v, %v), row scan (%d, %v, %v)", label, fid, gotID, gotS, gotOK, wantID, wantS, wantOK)
		}
	}
}

// checkFrontierAndFloors checks the availability frontier against a
// from-scratch skyline, and the reverse-search floors and picks against
// the workspace's tables.
func checkFrontierAndFloors(t *testing.T, w *Workspace, label string) {
	t.Helper()
	pt := w.obj
	if len(pt.pending) != 0 || len(pt.pendingIDs) != 0 {
		t.Fatalf("%s: %d frontier changes (%d listed) still pending", label, len(pt.pending), len(pt.pendingIDs))
	}
	var avail []rtree.Item
	for id, o := range pt.objs.All() {
		if pt.caps.remaining[id] > 0 {
			avail = append(avail, rtree.Item{ID: id, Point: o.Point})
		}
	}
	var want, got []uint64
	for _, it := range skyline.SFS(avail) {
		want = append(want, it.ID)
	}
	for _, it := range pt.avail.Skyline() {
		got = append(got, it.ID)
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: frontier %v, skyline of the available objects %v", label, got, want)
	}

	for fid := range w.eff {
		s, oid, floored := w.allFuncs.Floor(fid)
		if w.funcCaps.remaining[fid] > 0 {
			if floored {
				t.Fatalf("%s: function %d has a spare unit but floor (%v, %d)", label, fid, s, oid)
			}
			continue
		}
		ps, _ := w.byFunc.Get(fid)
		worst := worstOfFunc(ps)
		if !floored || math.Float64bits(s) != math.Float64bits(worst.score) || oid != worst.oid {
			t.Fatalf("%s: function %d floor (%v, %d, floored %v), worst assignment (%v, %d)", label, fid, s, oid, floored, worst.score, worst.oid)
		}
	}

	for oid, o := range pt.objs.All() {
		var wantID uint64
		var wantS float64
		wantOK := false
		for fid, sc := range w.eff {
			s := sc.Score(o.Point)
			if w.funcCaps.remaining[fid] == 0 {
				ps, _ := w.byFunc.Get(fid)
				worst := worstOfFunc(ps)
				if !(s > worst.score || (s == worst.score && oid < worst.oid)) {
					continue
				}
			}
			if !wantOK || s > wantS || (s == wantS && fid < wantID) {
				wantID, wantS, wantOK = fid, s, true
			}
		}
		gotID, gotS, gotOK := w.allFuncs.Best(o.Point, oid)
		if gotOK != wantOK || gotID != wantID || math.Float64bits(gotS) != math.Float64bits(wantS) {
			t.Fatalf("%s: object %d taker (%d, %v, %v), row scan (%d, %v, %v)", label, oid, gotID, gotS, gotOK, wantID, wantS, wantOK)
		}
	}
}
