package assign_test

import (
	"reflect"
	"testing"

	"fairassign/internal/assign"
	"fairassign/internal/datagen"
	"fairassign/internal/geom"
)

// unshared counts the chunks of cur that prev does not hold.
func unshared(prev, cur []uintptr) int {
	held := make(map[uintptr]bool, len(prev))
	for _, c := range prev {
		held[c] = true
	}
	n := 0
	for _, c := range cur {
		if !held[c] {
			n++
		}
	}
	return n
}

// TestCaptureSharesUnwrittenChunks checks that snapshot capture costs
// O(Δ): the capture after one object mutation shares all but at most
// one object chunk with the previous epoch's, and every function chunk;
// the capture after one function mutation shares every object chunk,
// and all but at most one function chunk. Pair chunks are re-copied
// for at most the functions whose assignments changed. Every function
// mutation here exhausts or revives an object (the assigned units
// change), and its epoch still reuses the previous object capture,
// page snapshot included: a capture holds no availability state.
func TestCaptureSharesUnwrittenChunks(t *testing.T) {
	p := &assign.Problem{
		Dims:      2,
		Objects:   datagen.Objects(datagen.Independent, 5000, 2, 42),
		Functions: datagen.Functions(300, 2, 43),
	}
	ws, err := assign.NewWorkspace(p, assign.Config{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	prev, err := ws.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { prev.Close() }()
	// Every step moves some assignment: the removed object is assigned,
	// the arrival outscores the population, and each function holds or
	// takes one object.
	const fresh = 1 << 40
	steps := []struct {
		name   string
		object bool // an object mutation, else a function mutation
		m      assign.Mutation
	}{
		{"remove object", true, assign.Mutation{Kind: assign.MutRemoveObject, ID: prev.Pairs()[0].ObjectID}},
		{"add object", true, assign.Mutation{Kind: assign.MutAddObject, Object: assign.Object{ID: fresh, Point: geom.Point{0.9, 0.9}}}},
		{"remove function", false, assign.Mutation{Kind: assign.MutRemoveFunction, ID: p.Functions[5].ID}},
		{"add function", false, assign.Mutation{Kind: assign.MutAddFunction, Function: assign.Function{ID: fresh, Weights: []float64{0.3, 0.7}}}},
		{"remove added function", false, assign.Mutation{Kind: assign.MutRemoveFunction, ID: fresh}},
	}
	fids := []uint64{fresh}
	for _, f := range p.Functions {
		fids = append(fids, f.ID)
	}
	for _, st := range steps {
		if err := ws.Apply([]assign.Mutation{st.m}); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		cur, err := ws.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		o0, f0, p0 := assign.CaptureChunks(prev)
		o1, f1, p1 := assign.CaptureChunks(cur)
		c0, s0 := assign.ObjectCapture(prev)
		c1, s1 := assign.ObjectCapture(cur)
		flipped := prev.Stats().AssignedUnits != cur.Stats().AssignedUnits
		changed := 0
		for _, fid := range fids {
			if !reflect.DeepEqual(prev.PairsOf(fid), cur.PairsOf(fid)) {
				changed++
			}
		}
		prev.Close()
		prev = cur
		if len(o0) != len(o1) || len(f0) != len(f1) || len(p0) != len(p1) {
			t.Fatalf("%s: chunk counts changed (%d/%d/%d -> %d/%d/%d)",
				st.name, len(o0), len(f0), len(p0), len(o1), len(f1), len(p1))
		}
		objNew, funcNew, pairNew := unshared(o0, o1), unshared(f0, f1), unshared(p0, p1)
		if st.object && (objNew > 1 || funcNew != 0) {
			t.Fatalf("%s: %d of %d object chunks and %d of %d function chunks unshared, want <= 1 and 0",
				st.name, objNew, len(o1), funcNew, len(f1))
		}
		if !st.object && (objNew != 0 || funcNew > 1) {
			t.Fatalf("%s: %d of %d object chunks and %d of %d function chunks unshared, want 0 and <= 1",
				st.name, objNew, len(o1), funcNew, len(f1))
		}
		if st.object && c1 == c0 {
			t.Fatalf("%s: the object capture was reused after an object mutation", st.name)
		}
		if !st.object && (!flipped || c1 != c0 || s1 != s0) {
			t.Fatalf("%s: availability flipped %v, object capture reused %v, page snapshot reused %v; want all true",
				st.name, flipped, c1 == c0, s1 == s0)
		}
		if changed == 0 || pairNew > changed {
			t.Fatalf("%s: %d of %d pair chunks unshared for %d functions with new assignments",
				st.name, pairNew, len(p1), changed)
		}
	}
}
