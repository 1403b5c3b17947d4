package skyline

import (
	"sync"

	"fairassign/internal/geom"
	"fairassign/internal/score"
	"fairassign/internal/simd"
)

// ColSet is a columnar (structure-of-arrays) point set: per-dimension
// contiguous []float64 columns plus the point IDs, with branch-free
// blocked kernels for the two operations every skyline hot loop reduces
// to — "does any member dominate q" and "which member scores best".
//
// The row-wise equivalents compare one geom.Point at a time, chasing a
// pointer per point; here each dimension is a sequential scan over a
// contiguous column that the compiler compiles to cmp+SETcc+add with no
// data-dependent branches, and dominance is decided from the per-item
// counters afterwards. Results are exactly those of geom.Point.Dominates
// and score.Eval member by member: the per-dimension comparisons are the
// same expressions, only the loop nest is transposed.
//
// A ColSet is single-goroutine (its kernel scratch is part of the set);
// concurrent readers each take their own from the pool.
type ColSet struct {
	dims int
	n    int
	cols [][]float64
	ids  []uint64

	// kernel scratch: the dominance filter's surviving-candidate index
	// buffer, and Best's score block.
	cand   []int32
	scores []float64
}

// domBlock is the largest kernel tile: small enough that the candidate
// scratch stays L1-resident across the dimension passes, large enough
// to amortize the per-block verdict scan. Blocks grow geometrically
// from domBlockMin so probes dominated by an early member — the common
// case in BBS/SFS, where the first few skyline points (largest
// coordinate sum) prune most of the stream — exit after a tiny block
// instead of paying for a full tile.
const (
	domBlock    = 256
	domBlockMin = 16
)

// NewColSet returns an empty columnar set of the given dimensionality.
func NewColSet(dims int) *ColSet {
	c := &ColSet{}
	c.Reset(dims)
	return c
}

// Reset empties the set and re-shapes it for dims dimensions, keeping
// column capacity.
func (c *ColSet) Reset(dims int) {
	if dims > len(c.cols) {
		c.cols = append(c.cols, make([][]float64, dims-len(c.cols))...)
	}
	for d := range c.cols {
		c.cols[d] = c.cols[d][:0]
	}
	c.ids = c.ids[:0]
	c.dims = dims
	c.n = 0
	if len(c.cand) < domBlock {
		c.cand = make([]int32, domBlock)
	}
}

// Len returns the number of points in the set.
func (c *ColSet) Len() int { return c.n }

// ID returns the ID of point i.
func (c *ColSet) ID(i int) uint64 { return c.ids[i] }

// Append adds a point. The coordinates are copied into the columns, so
// the caller's slice may alias short-lived memory (decoded R-tree
// nodes).
func (c *ColSet) Append(id uint64, pt geom.Point) {
	for d := 0; d < c.dims; d++ {
		c.cols[d] = append(c.cols[d], pt[d])
	}
	c.ids = append(c.ids, id)
	c.n++
}

// SwapDelete removes point i by moving the last point into its slot.
func (c *ColSet) SwapDelete(i int) {
	last := c.n - 1
	for d := 0; d < c.dims; d++ {
		col := c.cols[d]
		col[i] = col[last]
		c.cols[d] = col[:last]
	}
	c.ids[i] = c.ids[last]
	c.ids = c.ids[:last]
	c.n = last
}

// FirstDominator returns the lowest index whose point strictly
// dominates q — the exact per-point predicate is geom.Point.Dominates:
// no dimension with point < q, at least one with point > q — or -1 if
// none does.
//
// The kernel is a blocked column filter (database-style candidate
// compression): the first dimension's contiguous column is scanned once,
// compressing the indices that survive (`!(v < q[0])`, the complement of
// Dominates' failure test — NaN behavior included); each further
// dimension filters only the survivors. In skyline workloads the first
// pass eliminates nearly everything, so the cost is ~one comparison per
// member over sequential memory, with no per-point slice-header chase.
// Survivors satisfy >= in every dimension; the final scan returns the
// first with a strictly better dimension. Blocks are processed in
// ascending index order and candidates stay sorted within each block,
// so "first" is exact at any block schedule.
func (c *ColSet) FirstDominator(q []float64) int {
	// Row-wise prefix: in BBS/SFS streams the earliest members (largest
	// coordinate sums) dominate nearly every pruned probe, and for a hit
	// that early a per-member early-exit scan beats any batched kernel.
	// The predicate is geom.Point.Dominates verbatim: no dimension below
	// q, at least one strictly above.
	pre := c.n
	if pre > domBlockMin {
		pre = domBlockMin
	}
	for i := 0; i < pre; i++ {
		better := false
		d := 0
		for ; d < c.dims; d++ {
			v := c.cols[d][i]
			if v < q[d] {
				break
			}
			if v > q[d] {
				better = true
			}
		}
		if d == c.dims && better {
			return i
		}
	}
	bs := domBlockMin
	for lo := pre; lo < c.n; {
		hi := lo + bs
		if hi > c.n {
			hi = c.n
		}
		// Dimension 0 compresses the survivor indices with the SIMD
		// kernel (c.cand has domBlock capacity — at least the block
		// length, the slack the vector stores need); later dimensions
		// filter the few survivors in place.
		cand := c.cand[:simd.CompressNotLess(c.cand, c.cols[0][lo:hi], q[0], int32(lo))]
		for d := 1; d < c.dims && len(cand) > 0; d++ {
			cand = cand[:simd.FilterIdxNotLess(cand, c.cols[d], q[d])]
		}
		for _, ci := range cand {
			// A survivor with no strictly-better dimension is a
			// coincident duplicate — not a dominator.
			for d := 0; d < c.dims; d++ {
				if c.cols[d][ci] > q[d] {
					return int(ci)
				}
			}
		}
		lo = hi
		if bs < domBlock {
			bs *= 2
		}
	}
	return -1
}

// AnyDominates reports whether any member strictly dominates q.
func (c *ColSet) AnyDominates(q []float64) bool { return c.FirstDominator(q) >= 0 }

// Best returns the index of the member maximizing the scorer, ties to
// the lowest ID — the columnar form of BestUnder, scoring the whole set
// with one EvalBlock pass. ok is false on an empty set. Scores are
// bit-identical to sc.Score per member, and selection follows the same
// (score, lowest-ID) total order, so the winner matches BestUnder over
// the rows in any order.
func (c *ColSet) Best(sc score.Scorer) (idx int, best float64, ok bool) {
	if c.n == 0 {
		return 0, 0, false
	}
	if cap(c.scores) < c.n {
		c.scores = make([]float64, c.n)
	}
	out := c.scores[:c.n]
	score.EvalBlock(sc.Fam, sc.W, c.cols, out)
	idx = simd.SelectBest(out, c.ids[:c.n])
	return idx, out[idx], true
}

// colSetPool recycles ColSets across skyline passes (Compute calls, SFS
// runs) the way entryHeapPool recycles heaps.
var colSetPool = sync.Pool{New: func() any { return new(ColSet) }}

func acquireColSet(dims int) *ColSet {
	c := colSetPool.Get().(*ColSet)
	c.Reset(dims)
	return c
}

func releaseColSet(c *ColSet) { colSetPool.Put(c) }
