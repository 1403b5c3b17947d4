package topk

import (
	"math"
	"math/rand"
	"testing"

	"fairassign/internal/score"
)

// TestNextAtLeastMatchesFilteredNext checks that a bound-pruned
// enumeration returns exactly the objects an unbounded enumeration
// yields above the bound, in the same order, and that the searcher can
// resume below a previously used bound.
func TestNextAtLeastMatchesFilteredNext(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	items := randItems(rng, 500, 3)
	tr := buildTree(t, items, 3)
	w := randWeights(rng, 3)

	// Reference: full enumeration.
	var refIDs []uint64
	var refScores []float64
	ref := NewSearcher(tr, w, nil)
	for {
		it, sc, ok, err := ref.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		refIDs = append(refIDs, it.ID)
		refScores = append(refScores, sc)
	}
	if len(refIDs) != len(items) {
		t.Fatalf("reference enumerated %d of %d items", len(refIDs), len(items))
	}

	// Bounded phase: everything at or above the median score.
	bound := refScores[len(refScores)/2]
	s := NewSearcher(tr, w, nil)
	i := 0
	for {
		it, sc, ok, err := s.NextAtLeast(bound)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if sc < bound {
			t.Fatalf("NextAtLeast returned score %v below bound %v", sc, bound)
		}
		if it.ID != refIDs[i] || sc != refScores[i] {
			t.Fatalf("bounded item %d = (%d,%v), want (%d,%v)", i, it.ID, sc, refIDs[i], refScores[i])
		}
		i++
	}
	if refScores[i-1] < bound || (i < len(refScores) && refScores[i] >= bound) {
		t.Fatalf("bounded enumeration stopped at the wrong frontier (i=%d)", i)
	}

	// Resume phase: lowering the bound continues the same order.
	for {
		it, sc, ok, err := s.NextAtLeast(math.Inf(-1))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if it.ID != refIDs[i] || sc != refScores[i] {
			t.Fatalf("resumed item %d = (%d,%v), want (%d,%v)", i, it.ID, sc, refIDs[i], refScores[i])
		}
		i++
	}
	if i != len(refIDs) {
		t.Fatalf("resumed enumeration covered %d of %d items", i, len(refIDs))
	}
}

// TestNextAtLeastPrunesNodeReads checks the point of the bound: a high
// ceiling must expand far fewer index nodes than a full enumeration.
func TestNextAtLeastPrunesNodeReads(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	items := randItems(rng, 2000, 2)
	tr := buildTree(t, items, 2)
	w := []float64{0.5, 0.5}

	full := NewSearcher(tr, w, nil)
	for {
		if _, _, ok, err := full.Next(); err != nil {
			t.Fatal(err)
		} else if !ok {
			break
		}
	}

	bounded := NewSearcher(tr, w, nil)
	for {
		// 0.98 is near the top corner: only a sliver of the tree scores
		// above it.
		if _, _, ok, err := bounded.NextAtLeast(0.98); err != nil {
			t.Fatal(err)
		} else if !ok {
			break
		}
	}
	if bounded.NodeReads*4 >= full.NodeReads {
		t.Fatalf("bounded search read %d nodes, full read %d — expected a large gap", bounded.NodeReads, full.NodeReads)
	}
}

// TestNextAtLeastSkipRespected checks the skip filter still applies
// under a bound.
func TestNextAtLeastSkipRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	its := randItems(rng, 100, 2)
	tr := buildTree(t, its, 2)
	w := []float64{0.5, 0.5}
	first, _, ok, err := Top1(tr, w, nil)
	if err != nil || !ok {
		t.Fatal(err)
	}
	s := NewSearcher(tr, w, func(id uint64) bool { return id == first.ID })
	got, _, ok, err := s.NextAtLeast(0)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if got.ID == first.ID {
		t.Fatal("skip filter ignored by NextAtLeast")
	}
}

// TestBestAtLeastMatchesNextAtLeast checks that the push-pruned one-shot
// search returns what a fresh resumable search's NextAtLeast returns,
// under a skip filter, for bounds across the score range.
func TestBestAtLeastMatchesNextAtLeast(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	items := randItems(rng, 400, 3)
	tr := buildTree(t, items, 3)
	w := randWeights(rng, 3)
	skip := func(id uint64) bool { return id%3 == 0 }
	for _, bound := range []float64{math.Inf(-1), 0, 0.2, 0.4, 0.6, 0.8, 1, math.Inf(1)} {
		want, wantSc, wantOK, err := NewSearcher(tr, w, skip).NextAtLeast(bound)
		if err != nil {
			t.Fatal(err)
		}
		got, sc, ok, err := BestAtLeast(tr, score.LinearScorer(w), bound, skip)
		if err != nil {
			t.Fatal(err)
		}
		if ok != wantOK || got.ID != want.ID || sc != wantSc {
			t.Fatalf("bound %v: BestAtLeast = (%d, %v, %v), want (%d, %v, %v)", bound, got.ID, sc, ok, want.ID, wantSc, wantOK)
		}
	}
}
