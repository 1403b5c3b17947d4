package topk

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"fairassign/internal/geom"
	"fairassign/internal/pagestore"
	"fairassign/internal/rtree"
	"fairassign/internal/score"
)

func randItems(rng *rand.Rand, n, dims int) []rtree.Item {
	items := make([]rtree.Item, n)
	for i := range items {
		p := make(geom.Point, dims)
		for d := range p {
			p[d] = rng.Float64()
		}
		items[i] = rtree.Item{ID: uint64(i + 1), Point: p}
	}
	return items
}

func buildTree(t *testing.T, items []rtree.Item, dims int) *rtree.Tree {
	t.Helper()
	store := pagestore.NewMemStore(512)
	pool := pagestore.NewBufferPool(store, 1<<20)
	tr, err := rtree.BulkLoad(pool, dims, items, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func randWeights(rng *rand.Rand, dims int) []float64 {
	w := make([]float64, dims)
	sum := 0.0
	for d := range w {
		w[d] = rng.Float64()
		sum += w[d]
	}
	for d := range w {
		w[d] /= sum
	}
	return w
}

func TestNextEnumeratesInScoreOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range []int{2, 4} {
		items := randItems(rng, 400, dims)
		tr := buildTree(t, items, dims)
		w := randWeights(rng, dims)

		type scored struct {
			id    uint64
			score float64
		}
		want := make([]scored, len(items))
		for i, it := range items {
			want[i] = scored{it.ID, geom.Dot(w, it.Point)}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].score != want[j].score {
				return want[i].score > want[j].score
			}
			return want[i].id < want[j].id
		})

		s := NewScorerSearcher(tr, score.LinearScorer(w), nil)
		for i := 0; i < len(items); i++ {
			it, sc, ok, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("exhausted at %d of %d", i, len(items))
			}
			if math.Abs(sc-want[i].score) > 1e-12 {
				t.Fatalf("pos %d: score %v (id %d), want %v (id %d)", i, sc, it.ID, want[i].score, want[i].id)
			}
		}
		if _, _, ok, _ := s.Next(); ok {
			t.Fatal("iterator should be exhausted")
		}
	}
}

func TestTop1MatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	items := randItems(rng, 500, 3)
	tr := buildTree(t, items, 3)
	for q := 0; q < 30; q++ {
		w := randWeights(rng, 3)
		it, sc, ok, err := Top1(tr, w, nil)
		if err != nil || !ok {
			t.Fatal(err)
		}
		best := math.Inf(-1)
		for _, x := range items {
			if s := geom.Dot(w, x.Point); s > best {
				best = s
			}
		}
		if math.Abs(sc-best) > 1e-12 {
			t.Fatalf("query %d: Top1 = %v (id %d), want %v", q, sc, it.ID, best)
		}
	}
}

func TestSkipFilterTombstones(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := randItems(rng, 200, 2)
	tr := buildTree(t, items, 2)
	w := randWeights(rng, 2)
	assigned := map[uint64]bool{}
	s := NewScorerSearcher(tr, score.LinearScorer(w), func(id uint64) bool { return assigned[id] })

	// Consume the stream while tombstoning every other returned object
	// after the fact — later results must never include tombstoned IDs.
	it1, sc1, ok, err := s.Next()
	if err != nil || !ok {
		t.Fatal(err)
	}
	assigned[it1.ID] = true
	prev := sc1
	for {
		it, sc, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if assigned[it.ID] {
			t.Fatalf("returned tombstoned object %d", it.ID)
		}
		if sc > prev+1e-12 {
			t.Fatalf("score order violated: %v after %v", sc, prev)
		}
		prev = sc
		if rng.Intn(2) == 0 {
			assigned[it.ID] = true
		}
	}
}

func TestTop1WithGrowingSkipSetMatchesBrute(t *testing.T) {
	// Simulates the Brute Force pattern: repeatedly take the global top-1
	// of remaining objects via a resumed searcher.
	rng := rand.New(rand.NewSource(4))
	items := randItems(rng, 150, 3)
	tr := buildTree(t, items, 3)
	w := randWeights(rng, 3)
	assigned := map[uint64]bool{}
	s := NewScorerSearcher(tr, score.LinearScorer(w), func(id uint64) bool { return assigned[id] })
	for round := 0; round < len(items); round++ {
		it, sc, ok, err := s.Next()
		if err != nil || !ok {
			t.Fatalf("round %d: %v %v", round, ok, err)
		}
		best := math.Inf(-1)
		var bestID uint64
		for _, x := range items {
			if assigned[x.ID] {
				continue
			}
			if sx := geom.Dot(w, x.Point); sx > best {
				best, bestID = sx, x.ID
			}
		}
		if math.Abs(sc-best) > 1e-12 {
			t.Fatalf("round %d: got %v (id %d), want %v (id %d)", round, sc, it.ID, best, bestID)
		}
		assigned[it.ID] = true
	}
}

func TestTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	items := randItems(rng, 300, 2)
	tr := buildTree(t, items, 2)
	w := randWeights(rng, 2)
	got, scores, err := TopKScorer(tr, score.LinearScorer(w), 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("TopK returned %d items", len(got))
	}
	all := make([]float64, len(items))
	for i, it := range items {
		all[i] = geom.Dot(w, it.Point)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(all)))
	for i := range scores {
		if math.Abs(scores[i]-all[i]) > 1e-12 {
			t.Fatalf("rank %d: score %v, want %v", i, scores[i], all[i])
		}
	}
	// k exceeding the population returns everything.
	gotAll, _, err := TopKScorer(tr, score.LinearScorer(w), 10000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotAll) != len(items) {
		t.Fatalf("TopK(all) = %d, want %d", len(gotAll), len(items))
	}
}

func TestEmptyTreeSearch(t *testing.T) {
	store := pagestore.NewMemStore(512)
	pool := pagestore.NewBufferPool(store, 16)
	tr, err := rtree.New(pool, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := Top1(tr, []float64{0.5, 0.5}, nil); ok || err != nil {
		t.Fatalf("empty tree: ok=%v err=%v", ok, err)
	}
}

func TestReverseQueryOnFunctionTree(t *testing.T) {
	// Chain indexes functions by weights and finds, for an object o, the
	// function maximizing f(o) — a BRS query with o as the "weights".
	rng := rand.New(rand.NewSource(7))
	dims := 3
	var funcs []rtree.Item
	for i := 0; i < 200; i++ {
		w := randWeights(rng, dims)
		funcs = append(funcs, rtree.Item{ID: uint64(i + 1), Point: w})
	}
	tr := buildTree(t, funcs, dims)
	for q := 0; q < 20; q++ {
		o := geom.Point(randWeights(rng, dims)) // any positive vector works
		it, sc, ok, err := Top1(tr, o, nil)
		if err != nil || !ok {
			t.Fatal(err)
		}
		best := math.Inf(-1)
		for _, f := range funcs {
			if s := geom.Dot(o, f.Point); s > best {
				best = s
			}
		}
		if math.Abs(sc-best) > 1e-12 {
			t.Fatalf("reverse query: got %v (f%d), want %v", sc, it.ID, best)
		}
	}
}

func TestSearcherIOOptimalOnWarmRepeat(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	items := randItems(rng, 2000, 2)
	store := pagestore.NewMemStore(512)
	pool := pagestore.NewBufferPool(store, 8)
	tr, err := rtree.BulkLoad(pool, 2, items, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Clear(); err != nil {
		t.Fatal(err)
	}
	store.IO().Reset()
	w := randWeights(rng, 2)
	if _, _, ok, err := Top1(tr, w, nil); !ok || err != nil {
		t.Fatal(err)
	}
	// A top-1 probe should touch roughly one root-to-leaf path, far fewer
	// pages than the whole tree.
	if reads := store.IO().PhysicalReads; reads > int64(tr.NumPages()/4) {
		t.Errorf("top-1 read %d of %d pages — BRS pruning ineffective", reads, tr.NumPages())
	}
}
