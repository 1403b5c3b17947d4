// Package topk implements BRS (branch-and-bound ranked search, Tao et
// al.) over an R-tree: an I/O-optimal incremental top-k iterator for
// monotone preference functions (Section 2.3 of the paper). The
// searcher prunes with score.Scorer.UpperBound over node MBRs, which is
// sound for every monotone family in internal/score — the linear
// weights constructors remain as the fast-path special case and compile
// to the identical maxscore dot product as before.
//
// The Brute Force baseline keeps one Searcher alive per preference
// function so that its top-1 scan can resume after its previous best
// object is assigned elsewhere; the Chain baseline issues fresh top-1
// searches. Both tombstone assigned objects through a skip filter instead
// of physically deleting them, which keeps the retained heaps valid while
// producing the identical visit order.
package topk

import (
	"fairassign/internal/geom"
	"fairassign/internal/heaputil"
	"fairassign/internal/pagestore"
	"fairassign/internal/rtree"
	"fairassign/internal/score"
)

// brsEntry is a heap element: an R-tree node or data point keyed by
// maxscore (the function score of the rectangle's best corner).
type brsEntry struct {
	rect  geom.Rect
	child pagestore.PageID
	id    uint64
	key   float64
}

func (e brsEntry) isPoint() bool { return e.child == pagestore.InvalidPage }

// brsHeap is a boxing-free max-heap on (key, point-first, lower ID) —
// the deterministic tie-break keeps enumeration order stable.
type brsHeap []brsEntry

func lessBRS(a, b brsEntry) bool {
	if a.key != b.key {
		return a.key > b.key
	}
	if a.isPoint() != b.isPoint() {
		return a.isPoint()
	}
	return a.id < b.id
}

func (h *brsHeap) push(e brsEntry) { heaputil.Push((*[]brsEntry)(h), lessBRS, e) }
func (h *brsHeap) pop() brsEntry   { return heaputil.Pop((*[]brsEntry)(h), lessBRS) }

// Searcher is an incremental BRS iterator. Objects for which skip returns
// true are passed over (used to tombstone already-assigned objects). It
// runs over any rtree.NodeReader — the live tree, or a frozen
// rtree.View for snapshot-addressable ranked search.
type Searcher struct {
	tree    rtree.NodeReader
	sc      score.Scorer
	h       brsHeap
	skip    func(uint64) bool
	started bool

	// NodeReads counts R-tree node visits by this searcher.
	NodeReads int64
}

// NewSearcher creates an iterator for the linear function with the given
// weights. The root node is read lazily on the first Next call.
func NewSearcher(t rtree.NodeReader, weights []float64, skip func(uint64) bool) *Searcher {
	return NewScorerSearcher(t, score.LinearScorer(weights), skip)
}

// NewScorerSearcher creates an iterator for an arbitrary monotone
// scorer: entries are keyed by the scorer's upper bound over their MBR,
// so enumeration order is non-increasing in the scorer for any family.
func NewScorerSearcher(t rtree.NodeReader, sc score.Scorer, skip func(uint64) bool) *Searcher {
	return &Searcher{tree: t, sc: sc, skip: skip}
}

// Next returns the highest-scoring remaining object, or ok == false when
// the tree is exhausted. Successive calls enumerate objects in
// non-increasing score order, skipping tombstoned ones at pop time.
func (s *Searcher) Next() (item rtree.Item, score float64, ok bool, err error) {
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
		if e.isPoint() {
			if s.skip != nil && s.skip(e.id) {
				continue
			}
			return rtree.Item{ID: e.id, Point: e.rect.Min}, e.key, true, nil
		}
		n, err := s.readNode(e.child)
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
	for _, ne := range n.Entries {
		key := s.sc.UpperBound(ne.Rect.Min, ne.Rect.Max)
		s.h.push(brsEntry{rect: ne.Rect, child: ne.Child, id: ne.ID, key: key})
	}
}

func (s *Searcher) readNode(id pagestore.PageID) (*rtree.Node, error) {
	s.NodeReads++
	return s.tree.ReadNode(id)
}

// Top1 runs a fresh top-1 query and returns the best non-skipped object.
func Top1(t rtree.NodeReader, weights []float64, skip func(uint64) bool) (rtree.Item, float64, bool, error) {
	return Top1Scorer(t, score.LinearScorer(weights), skip)
}

// Top1Scorer is Top1 for an arbitrary monotone scorer.
func Top1Scorer(t rtree.NodeReader, sc score.Scorer, skip func(uint64) bool) (rtree.Item, float64, bool, error) {
	s := NewScorerSearcher(t, sc, skip)
	return s.Next()
}

// TopK collects the k best non-skipped objects in score order.
func TopK(t rtree.NodeReader, weights []float64, k int, skip func(uint64) bool) ([]rtree.Item, []float64, error) {
	return TopKScorer(t, score.LinearScorer(weights), k, skip)
}

// TopKScorer is TopK for an arbitrary monotone scorer.
func TopKScorer(t rtree.NodeReader, sc score.Scorer, k int, skip func(uint64) bool) ([]rtree.Item, []float64, error) {
	s := NewScorerSearcher(t, sc, skip)
	var items []rtree.Item
	var scores []float64
	for len(items) < k {
		it, scr, ok, err := s.Next()
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			break
		}
		items = append(items, it)
		scores = append(scores, scr)
	}
	return items, scores, nil
}
