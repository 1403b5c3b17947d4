package ta

import (
	"sync"

	"fairassign/internal/geom"
	"fairassign/internal/score"
)

// listSource abstracts where the sorted coefficient lists live: in memory
// (Lists) or on the simulated disk (DiskLists). Search runs unchanged
// over either, which is how the Section 7.6 experiment puts SB's
// per-object resumable searches on top of disk-resident F. Only the two
// per-access reads go through the interface; everything else a search
// needs it reads once, from the source's listShape.
type listSource interface {
	// entryAt returns entry i of list d (I/O-counted for disk lists).
	entryAt(d, i int) (listEntry, error)
	// weightsAt returns the weight vector of the function with the given
	// dense index; hintDim's coefficient hintCoef was already read from
	// the scanned list.
	weightsAt(idx int, id uint64, hintDim int, hintCoef float64) ([]float64, error)
}

// listShape is what a search reads from its list source once, at
// construction. The dimension count, list length, budget and families
// never change while the lists live: lists are only tombstoned, never
// resized. The tombstones, the live count and the counters are shared
// with the source, which updates them in place, so a search reading
// them through these references always sees the current state.
type listShape struct {
	dims     int
	n        int     // entries per list: every list holds every function once
	maxB     float64 // knapsack budget (see Lists.MaxB)
	removed  []bool  // dense index -> tombstone
	live     *int    // unassigned function count
	counters *Counters
	// fams maps a dense index to its scoring family; famSet lists the
	// distinct families present, and linear reports the all-linear
	// fast path (the paper's setting).
	fams   []score.Family
	famSet []score.Family
	linear bool
}

// Lists implements listSource; NewSearch reads its shape once.
func (l *Lists) shape() listShape {
	return listShape{
		dims: l.dimCount, n: len(l.byIdx), maxB: l.maxB,
		removed: l.removed, live: &l.live, counters: &l.Counters,
		fams: l.fams, famSet: l.famSet, linear: l.linear,
	}
}
func (l *Lists) entryAt(d, i int) (listEntry, error) {
	l.Counters.addSorted()
	idx := l.lidx[d][i]
	return listEntry{coef: l.coefs[d][i], id: l.idsDense[idx], idx: int(idx)}, nil
}
func (l *Lists) weightsAt(idx int, _ uint64, _ int, _ float64) ([]float64, error) {
	l.Counters.addRandom()
	return l.byIdx[idx], nil
}

// Search is the resumable reverse top-1 state kept per skyline object
// (Section 5.1, "Resuming search"). It scans the sorted coefficient lists
// with biased probing, maintains the top-Ω candidate functions seen so
// far, and can resume where it stopped when the object's previous best
// function is assigned elsewhere. Each pop consumes one unit of the Ω
// guarantee budget; when the budget is spent the search restarts from
// scratch (the paper's memory/time trade-off knob ω).
//
// The embedded listShape is read from the source when the search is
// created, so the exhaustion check, the threshold, the queue-head
// tombstone check and biased probing make no interface calls; only the
// sorted and random accesses themselves go through listSource.
type Search struct {
	l listSource
	listShape
	obj       geom.Point
	dimOrder  []int // dimensions sorted by descending object value
	pos       []int // next index per list
	open      int   // lists not yet scanned to the end; exhausted at 0
	lastSeen  []float64
	seen      []uint32 // epoch-stamped visited marks, by dense index
	epoch     uint32
	queue     []cand // sorted desc by (score, -id); live window is queue[qhead:]
	qhead     int    // discarded prefix length — an index, not a reslice, so the array keeps its capacity
	guarantee int
	omega     int
	err       error

	// objSorted holds the object's values sorted descending, for the OWA
	// position bound; it is filled only when the source holds non-linear
	// families (linear selects the knapsack fast path, byte-identical to
	// the pre-generalization code).
	objSorted []float64
}

type cand struct {
	id    uint64
	idx   int
	score float64
}

// searchPool recycles released Search states wholesale — struct and
// buffers. The dominant cost of creating a search is the |F|-sized
// visited-marks slice; recycling it makes the SB variants that build
// fresh searches per loop (SBBasic, SBDeltaSky) nearly allocation-free.
// The epoch travels with the seen slice so stale marks from a previous
// owner can never read as visited (reset always bumps past them).
var searchPool sync.Pool // of *Search

// NewSearch creates a resumable search for object o over in-memory lists.
// omega is the candidate-queue capacity Ω (at least 1); the paper sets
// Ω = ω·|F| with ω ≈ 2.5 %.
func NewSearch(l *Lists, o geom.Point, omega int) *Search {
	return newSearch(l, l.shape(), o, omega)
}

// NewDiskSearch creates a resumable search for object o over
// disk-resident lists (Section 7.6: plain SB with F on disk).
func NewDiskSearch(l *DiskLists, o geom.Point, omega int) *Search {
	return newSearch(l, l.shape(), o, omega)
}

func newSearch(l listSource, sh listShape, o geom.Point, omega int) *Search {
	if omega < 1 {
		omega = 1
	}
	dims, nf := sh.dims, sh.n
	s, _ := searchPool.Get().(*Search)
	if s == nil {
		s = &Search{}
	}
	s.l, s.listShape, s.obj, s.omega, s.err = l, sh, o, omega, nil
	s.guarantee = 0
	if cap(s.pos) >= dims {
		s.pos = s.pos[:dims]
		s.lastSeen = s.lastSeen[:dims]
		s.dimOrder = s.dimOrder[:dims]
	} else {
		s.pos = make([]int, dims)
		s.lastSeen = make([]float64, dims)
		s.dimOrder = make([]int, dims)
	}
	// A linear search keeps the objSorted backing array untouched: a
	// recycled Search may serve a non-linear source next, and linear
	// searches never read it.
	if !s.linear {
		if cap(s.objSorted) >= dims {
			s.objSorted = s.objSorted[:dims]
		} else {
			s.objSorted = make([]float64, dims)
		}
	}
	if cap(s.seen) >= nf {
		s.seen = s.seen[:nf]
	} else {
		s.seen = make([]uint32, nf)
		s.epoch = 0
	}
	if cap(s.queue) < 2*omega+2 {
		// The live window holds at most Ω entries and the discarded
		// prefix at most Ω more before the guarantee forces a reset, so
		// 2Ω+2 capacity means insert never reallocates.
		s.queue = make([]cand, 0, 2*omega+2)
	} else {
		s.queue = s.queue[:0]
	}
	fillDimOrder(s.dimOrder, o)
	if !s.linear {
		for j, d := range s.dimOrder {
			s.objSorted[j] = o[d]
		}
	}
	s.reset()
	return s
}

// Release returns the search — struct and buffers — to a shared pool for
// reuse by future searches. The search must not be used afterwards.
// It drops every reference the search took from its source, so a pooled
// search never keeps a finished solve's lists alive. Idempotent; safe to
// call from concurrent solves (the pool is goroutine-safe).
func (s *Search) Release() {
	if s.l == nil {
		return
	}
	s.l = nil
	s.listShape = listShape{}
	s.obj = nil
	searchPool.Put(s)
}

// dimOrderFor returns dimension indexes sorted by descending object
// value — the fixed greedy order of the fractional knapsack for this
// object.
func dimOrderFor(o geom.Point) []int {
	order := make([]int, len(o))
	fillDimOrder(order, o)
	return order
}

// fillDimOrder writes the greedy dimension order into a caller-owned
// slice (len(order) == len(o)). Insertion sort: D is small (2–5 in every
// experiment) and sort.Slice would allocate a reflection swapper on the
// per-search hot path.
func fillDimOrder(order []int, o geom.Point) {
	for i := range order {
		d := i
		j := i
		for j > 0 && o[order[j-1]] < o[d] {
			order[j] = order[j-1]
			j--
		}
		order[j] = d
	}
}

func (s *Search) reset() {
	for i := range s.pos {
		s.pos[i] = 0
	}
	for i := range s.lastSeen {
		s.lastSeen[i] = s.maxB
	}
	s.open = 0
	if s.n > 0 {
		s.open = s.dims
	}
	s.epoch++ // invalidates all seen marks without clearing
	if s.epoch == 0 {
		// uint32 wrap: marks from the distant past could now collide;
		// clear once and restart the epoch sequence.
		clear(s.seen)
		s.epoch = 1
	}
	s.queue = s.queue[:0]
	s.qhead = 0
	s.guarantee = s.omega
}

// qlen returns the live candidate count.
func (s *Search) qlen() int { return len(s.queue) - s.qhead }

// Footprint approximates the bytes held by this search state, for the
// paper's memory metric.
func (s *Search) Footprint() int64 {
	return int64(len(s.seen))*4 + int64(s.qlen())*24 + int64(s.dims)*16 + 64
}

// Err returns the first I/O error encountered (disk-backed sources only).
func (s *Search) Err() error { return s.err }

// Best returns the live function maximizing f(obj), resuming the previous
// scan when possible. ok is false when no live functions remain or an
// I/O error occurred (check Err).
func (s *Search) Best() (id uint64, score float64, ok bool) {
	if *s.live == 0 || s.err != nil {
		return 0, 0, false
	}
	for {
		// Lazily discard queue heads that were assigned elsewhere; each
		// discard consumes guarantee budget.
		for s.qlen() > 0 && s.removed[s.queue[s.qhead].idx] {
			s.qhead++
			s.guarantee--
		}
		if s.guarantee <= 0 {
			s.counters.addRestart()
			s.reset()
			continue
		}
		exhausted := s.open == 0
		if s.qlen() > 0 {
			top := s.queue[s.qhead]
			if exhausted || top.score >= s.threshold() {
				return top.id, top.score, true
			}
		} else if exhausted {
			// Everything scanned but the queue is empty: candidates were
			// lost to pops after overflow. Restart rebuilds them.
			s.counters.addRestart()
			s.reset()
			continue
		}
		if !s.step() {
			return 0, 0, false
		}
	}
}

// famBoundSlack pads the generalized family bounds: the greedy
// knapsack accumulates budget subtractions and products in a different
// order than Eval scores a function, so the computed bound can land a
// few ULPs below the exact score of a function sitting right at the
// per-dimension ceilings — and an unpadded stop would then miss it.
// The pad is orders of magnitude above the worst-case rounding error
// (≤ D products of values ≤ γ·B) and orders below any score gap the
// harness distinguishes; it costs at most a few extra accesses. The
// all-linear fast path keeps the paper's exact T_tight comparison,
// preserving byte-identical behavior on linear workloads.
const famBoundSlack = 1e-12

// famBoundPad turns the slack into an absolute pad for a concrete bound
// value. Rounding error scales with the magnitude of the quantities
// summed, so a fixed 1e-12 is only safe while scores stay O(1): at
// |bound| ≈ 1e4 one ULP is already ~2e-12 and a constant pad can leave
// the threshold below the exact score of a ceiling-tight function —
// a missed top-1. Above magnitude 1, the pad therefore grows
// proportionally (1e-12 · |bound|, ≈ 4500 ULPs at any scale); below it,
// the absolute floor keeps bounds near zero safe too.
func famBoundPad(bound float64) float64 {
	if bound < 0 {
		bound = -bound
	}
	if bound > 1 {
		return famBoundSlack * bound
	}
	return famBoundSlack
}

// threshold returns the upper bound on any not-yet-seen function's
// score for the current cursor positions. In the all-linear case this
// is T_tight, walking the precomputed greedy dimension order
// (equivalent to TightThreshold but allocation-free — this runs once
// per sorted access). With non-linear families present it is the
// largest per-family bound over the same last-seen ceilings
// (score.MaxBound), which is what keeps TA correct for any monotone
// aggregate.
func (s *Search) threshold() float64 {
	if !s.linear {
		b := score.MaxBound(s.famSet, s.lastSeen, s.obj, s.dimOrder, s.objSorted, s.maxB)
		return b + famBoundPad(b)
	}
	b := s.maxB
	t := 0.0
	for _, d := range s.dimOrder {
		if b <= 0 {
			break
		}
		beta := s.lastSeen[d]
		if beta > b {
			beta = b
		}
		p := beta * s.obj[d]
		t += p
		b -= beta
	}
	return t
}

// step performs one sorted access on the most promising list (biased
// probing: maximize lastSeen_i · o_i) plus the random accesses needed to
// score a newly seen function. It returns false on I/O error.
func (s *Search) step() bool {
	best, bestVal := -1, -1.0
	for d := 0; d < s.dims; d++ {
		if s.pos[d] >= s.n {
			continue
		}
		if v := s.lastSeen[d] * s.obj[d]; v > bestVal {
			best, bestVal = d, v
		}
	}
	if best == -1 {
		return true
	}
	e, err := s.l.entryAt(best, s.pos[best])
	if err != nil {
		s.err = err
		return false
	}
	s.pos[best]++
	if s.pos[best] == s.n {
		s.open--
	}
	s.lastSeen[best] = e.coef
	if s.seen[e.idx] == s.epoch {
		return true
	}
	s.seen[e.idx] = s.epoch
	if s.removed[e.idx] {
		return true
	}
	w, err := s.l.weightsAt(e.idx, e.id, best, e.coef)
	if err != nil {
		s.err = err
		return false
	}
	var sc float64
	if s.linear {
		sc = geom.Dot(w, s.obj)
	} else {
		// s.objSorted was built once at search construction; for OWA
		// candidates this turns every scoring random access into a plain
		// dot product (bit-identical: OWA's Eval is Dot over exactly this
		// sorted vector).
		sc = score.EvalPrepared(s.fams[e.idx], w, s.obj, s.objSorted)
	}
	s.insert(cand{id: e.id, idx: e.idx, score: sc})
	return true
}

// insert places c into the descending queue, keeping at most omega
// entries (dropping the worst preserves the top-Ω property). The binary
// search is hand-rolled: a sort.Search closure would escape to the heap
// on this per-sorted-access path.
func (s *Search) insert(c cand) {
	lo, hi := s.qhead, len(s.queue)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		q := s.queue[mid]
		var after bool
		if q.score != c.score {
			after = q.score < c.score
		} else {
			after = q.id > c.id
		}
		if after {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	i := lo
	s.queue = append(s.queue, cand{})
	copy(s.queue[i+1:], s.queue[i:])
	s.queue[i] = c
	if s.qlen() > s.omega {
		s.queue = s.queue[:s.qhead+s.omega]
	}
}
