// Package topk implements BRS (branch-and-bound ranked search, Tao et
// al.) over an R-tree: an I/O-optimal incremental top-k iterator for
// monotone preference functions (Section 2.3 of the paper). The
// searcher prunes with score.Scorer.UpperBound over node MBRs, which is
// sound for every monotone family in internal/score; for the linear
// family it is the maxscore dot product.
//
// Results come in one total order on every input: score descending,
// ties to the lower object ID. The heap makes that hold by ordering
// equal keys node-first (a node's key bounds the scores inside it, a
// point's key is its exact score), so every point that could tie is in
// the heap before the first point of that score is returned.
//
// The Brute Force baseline keeps one unbounded Searcher alive per
// preference function so that its top-1 scan can resume after its
// previous best object is assigned elsewhere; the Chain baseline issues
// fresh top-1 searches. Both tombstone assigned objects through a skip
// filter instead of physically deleting them, which keeps the retained
// heaps valid while producing the identical visit order. One-shot
// searches (Top1, TopKScorer) are bounded by their k and run on pooled
// searchers.
package topk

import (
	"sync"

	"fairassign/internal/geom"
	"fairassign/internal/heaputil"
	"fairassign/internal/pagestore"
	"fairassign/internal/rtree"
	"fairassign/internal/score"
)

// brsEntry is a heap element: an R-tree node or data point keyed by
// maxscore (the function score of the rectangle's best corner). id is
// the page ID of a node and the object ID of a point.
type brsEntry struct {
	point geom.Point // nil for a node
	id    uint64
	key   float64
	node  bool
}

// brsHeap is a boxing-free max-heap on (key, node first, lower ID): a
// total order, so the enumeration is the same however the heap is laid
// out.
type brsHeap []brsEntry

func lessBRS(a, b brsEntry) bool {
	if a.key != b.key {
		return a.key > b.key
	}
	if a.node != b.node {
		return a.node
	}
	return a.id < b.id
}

func (h *brsHeap) push(e brsEntry) { heaputil.Push((*[]brsEntry)(h), lessBRS, e) }
func (h *brsHeap) pop() brsEntry   { return heaputil.Pop((*[]brsEntry)(h), lessBRS) }

func lessFloat(a, b float64) bool { return a < b }

// Searcher is an incremental BRS iterator. Objects for which skip returns
// true are passed over (used to tombstone already-assigned objects). It
// runs over any rtree.NodeReader — the live tree, or a frozen
// rtree.View for snapshot-addressable ranked search.
//
// A searcher bounded by k > 0 returns the first k results of the
// unbounded enumeration and then reports exhaustion. It keeps the keys
// of the k best non-skipped points it has pushed in a min-heap and
// pushes no entry keyed strictly below the k-th of them: such an entry
// cannot reach the top k, and no node it skips would have been read
// before the k-th result, so the bound changes neither the answer nor
// NodeReads. Its skip filter must not change during the search.
type Searcher struct {
	tree    rtree.NodeReader
	sc      score.Scorer
	h       brsHeap
	skip    func(uint64) bool
	started bool

	k       int       // the bound; 0 searches unbounded
	best    []float64 // min-heap of the k best non-skipped point keys pushed
	emitted int       // results returned, for the bound

	// NodeReads counts R-tree node visits by this searcher.
	NodeReads int64
}

// NewScorerSearcher creates an unbounded iterator for an arbitrary
// monotone scorer: entries are keyed by the scorer's upper bound over
// their MBR, so enumeration order is non-increasing in the scorer for
// any family. The root node is read lazily on the first Next call.
func NewScorerSearcher(t rtree.NodeReader, sc score.Scorer, skip func(uint64) bool) *Searcher {
	return &Searcher{tree: t, sc: sc, skip: skip}
}

// Next returns the highest-scoring remaining object, or ok == false when
// the tree (or a bounded searcher's k) is exhausted. Successive calls
// enumerate objects in score order, skipping tombstoned ones at pop time.
func (s *Searcher) Next() (item rtree.Item, score float64, ok bool, err error) {
	if s.k > 0 && s.emitted == s.k {
		return rtree.Item{}, 0, false, nil
	}
	if !s.started {
		s.started = true
		if s.tree.Len() > 0 {
			root, err := s.readNode(s.tree.Root())
			if err != nil {
				return rtree.Item{}, 0, false, err
			}
			s.pushNode(root)
		}
	}
	for len(s.h) > 0 {
		e := s.h.pop()
		if !e.node {
			if s.skip != nil && s.skip(e.id) {
				continue
			}
			s.emitted++
			return rtree.Item{ID: e.id, Point: e.point}, e.key, true, nil
		}
		n, err := s.readNode(pagestore.PageID(e.id))
		if err != nil {
			return rtree.Item{}, 0, false, err
		}
		s.pushNode(n)
	}
	return rtree.Item{}, 0, false, nil
}

// Footprint approximates heap memory for the paper's memory metric.
func (s *Searcher) Footprint() int64 {
	return int64(len(s.h))*int64(2*8*s.tree.Dims()+32) + 64
}

func (s *Searcher) pushNode(n *rtree.Node) {
	for i := range n.Entries {
		ne := &n.Entries[i]
		key := s.sc.UpperBound(ne.Rect.Min, ne.Rect.Max)
		point := ne.Child == pagestore.InvalidPage
		if s.k > 0 {
			if len(s.best) == s.k && key < s.best[0] {
				continue
			}
			if point {
				if s.skip != nil && s.skip(ne.ID) {
					continue
				}
				s.raiseBound(key)
			}
		}
		if point {
			s.h.push(brsEntry{point: ne.Rect.Min, id: ne.ID, key: key})
		} else {
			s.h.push(brsEntry{id: uint64(ne.Child), key: key, node: true})
		}
	}
}

// raiseBound records a pushed non-skipped point's key among the k best.
func (s *Searcher) raiseBound(key float64) {
	if len(s.best) == s.k {
		if key <= s.best[0] {
			return
		}
		heaputil.Pop(&s.best, lessFloat)
	}
	heaputil.Push(&s.best, lessFloat, key)
}

func (s *Searcher) readNode(id pagestore.PageID) (*rtree.Node, error) {
	s.NodeReads++
	return s.tree.ReadNode(id)
}

// searchers recycles the one-shot searchers of Top1Scorer and
// TopKScorer, so a warm search allocates no heap.
var searchers = sync.Pool{New: func() any { return new(Searcher) }}

// pooled returns a pooled searcher set up for one search bounded by k
// (0 searches unbounded).
func pooled(t rtree.NodeReader, sc score.Scorer, k int, skip func(uint64) bool) *Searcher {
	s := searchers.Get().(*Searcher)
	*s = Searcher{tree: t, sc: sc, k: k, skip: skip, h: s.h, best: s.best}
	return s
}

// release clears every node, tree and caller reference the searcher
// holds (Pop already zeroed the slots past the heap's length) and
// returns it to the pool.
func (s *Searcher) release() {
	clear(s.h)
	*s = Searcher{h: s.h[:0], best: s.best[:0]}
	searchers.Put(s)
}

// Top1 runs a fresh top-1 query and returns the best non-skipped object.
func Top1(t rtree.NodeReader, weights []float64, skip func(uint64) bool) (rtree.Item, float64, bool, error) {
	return Top1Scorer(t, score.LinearScorer(weights), skip)
}

// Top1Scorer is Top1 for an arbitrary monotone scorer.
func Top1Scorer(t rtree.NodeReader, sc score.Scorer, skip func(uint64) bool) (rtree.Item, float64, bool, error) {
	s := pooled(t, sc, 1, skip)
	defer s.release()
	return s.Next()
}

// TopKScorer collects the k best non-skipped objects for an arbitrary
// monotone scorer: score descending, ties to the lower ID. The result slices are sized
// min(k, t.Len()), and are nil when that is 0. A k that covers the
// whole tree cannot prune, so that search runs unbounded.
func TopKScorer(t rtree.NodeReader, sc score.Scorer, k int, skip func(uint64) bool) ([]rtree.Item, []float64, error) {
	n := min(k, t.Len())
	if n <= 0 {
		return nil, nil, nil
	}
	bound := n
	if n == t.Len() {
		bound = 0
	}
	s := pooled(t, sc, bound, skip)
	defer s.release()
	items := make([]rtree.Item, 0, n)
	scores := make([]float64, 0, n)
	for {
		it, scr, ok, err := s.Next()
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			return items, scores, nil
		}
		items = append(items, it)
		scores = append(scores, scr)
	}
}
