package rtree

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"fairassign/internal/geom"
	"fairassign/internal/pagestore"
)

// BulkLoad builds a tree from items using Sort-Tile-Recursive (STR)
// packing, which produces well-clustered pages in O(n log n) and is how
// the experiment harness constructs its 100k–400k object indexes.
// fillFactor in (0,1] controls node occupancy (0.9 default when <= 0).
// The build runs on all cores; use BulkLoadWorkers to bound it.
func BulkLoad(pool *pagestore.BufferPool, dims int, items []Item, fillFactor float64) (*Tree, error) {
	return BulkLoadWorkers(pool, dims, items, fillFactor, 0)
}

// BulkLoadWorkers is BulkLoad with an explicit parallelism bound:
// workers <= 0 uses all cores (GOMAXPROCS), workers == 1 restores the
// fully sequential build. The tree — page allocation order, page bytes,
// and buffer-pool write sequence — is byte-identical at every worker
// count: the STR sort key is a total order, so the sorted permutation
// is unique however it is sorted; page IDs are allocated sequentially
// in group order with only the pure per-node encoding fanned out; and
// encoded pages enter the buffer pool in that same order, so cache
// eviction (and therefore every physical I/O counter) cannot tell the
// builds apart.
func BulkLoadWorkers(pool *pagestore.BufferPool, dims int, items []Item, fillFactor float64, workers int) (*Tree, error) {
	t, err := New(pool, dims)
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return t, nil
	}
	if fillFactor <= 0 || fillFactor > 1 {
		fillFactor = 0.9
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	for _, it := range items {
		if len(it.Point) != dims {
			return nil, fmt.Errorf("rtree: item %d has %d dims, tree has %d", it.ID, len(it.Point), dims)
		}
	}

	leafFill := max(2, int(float64(t.maxLeaf)*fillFactor))
	internalFill := max(2, int(float64(t.maxInternal)*fillFactor))
	// One key column serves every sort of the build: each level is
	// smaller than the one below it.
	keys := getKeys(len(items))
	defer keyPool.Put(keys)

	// Build leaf level. The degenerate leaf rectangles alias the item
	// points directly (no clones): entries only live until their page is
	// encoded, and nothing on the build path writes through Min/Max.
	entries := make([]Entry, len(items))
	for i, it := range items {
		entries[i] = Entry{Rect: geom.Rect{Min: it.Point, Max: it.Point}, ID: it.ID, Child: pagestore.InvalidPage}
	}
	level, err := t.packLevel(entries, *keys, true, leafFill, workers)
	if err != nil {
		return nil, err
	}
	height := 1

	// Build internal levels until a single root remains.
	for len(level) > 1 {
		level, err = t.packLevel(level, *keys, false, internalFill, workers)
		if err != nil {
			return nil, err
		}
		height++
	}

	// Replace the empty root created by New.
	oldRoot := t.root
	if _, err := t.ReadNode(level[0].Child); err != nil {
		return nil, err
	}
	if err := t.freeNode(oldRoot); err != nil {
		return nil, err
	}
	t.setRoot(level[0].Child)
	t.height = height
	t.size = len(items)
	return t, nil
}

// slabs recycles the parallel packLevel's encode slab, one page image
// per node of a level; the buffer pool copies each image it is given,
// so the slab is free again once the level is written.
var slabs = sync.Pool{New: func() any { return new([]byte) }}

// packLevel groups entries into nodes of the given occupancy using STR
// tiling and returns the parent entries for the next level up.
//
// The deterministic skeleton is kept sequential and only the pure work
// is fanned out: page IDs are taken from the store one group at a time
// in group order (exactly the sequence the sequential build produces),
// the per-node page images are encoded concurrently (each into its own
// page of a pooled slab, reading shared entries only), and the finished
// images enter the buffer pool in group order again — so the pool's
// eviction state machine sees the identical Put sequence at any worker
// count.
func (t *Tree) packLevel(entries []Entry, keys []centerKey, leaf bool, fill, workers int) ([]Entry, error) {
	groups := strTile(entries, keys, t.dims, fill, 0, workers)
	if workers <= 1 || len(groups) < 2 {
		parents := make([]Entry, 0, len(groups))
		for _, g := range groups {
			n := &Node{Leaf: leaf, Entries: g}
			if _, err := t.allocNode(n); err != nil {
				return nil, err
			}
			parents = append(parents, Entry{Rect: n.MBR(), Child: n.Page, ID: 0})
		}
		return parents, nil
	}

	ids := make([]pagestore.PageID, len(groups))
	for i := range groups {
		id, err := t.pool.Store().Allocate()
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}

	pageSize := t.pool.PageSize()
	slab := slabs.Get().(*[]byte)
	defer slabs.Put(slab)
	if need := len(groups) * pageSize; cap(*slab) < need {
		*slab = make([]byte, need)
	}
	page := func(i int) []byte { return (*slab)[i*pageSize : (i+1)*pageSize] }

	parents := make([]Entry, len(groups))
	errs := make([]error, workers)
	var next int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	cursor := func() int {
		mu.Lock()
		i := int(next)
		next++
		mu.Unlock()
		return i
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := cursor()
				if i >= len(groups) {
					return
				}
				n := &Node{Leaf: leaf, Entries: groups[i], Page: ids[i]}
				if err := encodeNode(n, page(i), t.dims); err != nil {
					errs[w] = err
					return
				}
				parents[i] = Entry{Rect: n.MBR(), Child: ids[i], ID: 0}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Every group was claimed by a worker, and one that failed to encode
	// its group recorded the error above, so every page is encoded here.
	for i, id := range ids {
		if err := t.pool.Put(id, page(i)); err != nil {
			return nil, err
		}
	}
	return parents, nil
}

// strTile recursively sorts entries by the center of dimension dim and
// partitions them into vertical slabs, recursing on the next dimension,
// finally chunking into groups of at most fill entries. Both slab and
// group partitions are evenly balanced so that no group drops below half
// the fill size — which keeps every packed node above the 40 % minimum
// occupancy the tree enforces.
//
// With workers > 1 the top-level sort runs as a parallel chunk sort +
// merge and the independent slabs recurse concurrently; the sort key is
// a total order (center, ID, Child), so the output grouping is the
// unique sorted permutation regardless of how the sorting was split.
// keys is the sort's scratch column (len(keys) >= len(entries)); each
// slab sorts in the part of it that lines up with its entries.
func strTile(entries []Entry, keys []centerKey, dims, fill, dim, workers int) [][]Entry {
	if len(entries) <= fill {
		return [][]Entry{entries}
	}
	sortByCenter(entries, keys, dim, workers)
	if dim == dims-1 {
		return evenChunks(entries, fill)
	}
	// Number of leaf-size groups, spread across remaining dims.
	nGroups := int(math.Ceil(float64(len(entries)) / float64(fill)))
	slabs := int(math.Ceil(math.Pow(float64(nGroups), 1/float64(dims-dim))))
	if slabs < 1 {
		slabs = 1
	}
	slabSize := int(math.Ceil(float64(len(entries)) / float64(slabs)))
	if slabSize < fill {
		slabSize = fill
	}
	slabSlices := evenChunks(entries, slabSize)
	if workers <= 1 || len(slabSlices) < 2 {
		var out [][]Entry
		off := 0
		for _, slab := range slabSlices {
			out = append(out, strTile(slab, keys[off:off+len(slab)], dims, fill, dim+1, 1)...)
			off += len(slab)
		}
		return out
	}
	// Slabs are disjoint sub-slices: recurse concurrently under a
	// worker-count bound, then splice the per-slab groups in slab order.
	perSlab := make([][][]Entry, len(slabSlices))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	off := 0
	for i, slab := range slabSlices {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, slab []Entry, keys []centerKey) {
			defer wg.Done()
			perSlab[i] = strTile(slab, keys, dims, fill, dim+1, 1)
			<-sem
		}(i, slab, keys[off:off+len(slab)])
		off += len(slab)
	}
	wg.Wait()
	var out [][]Entry
	for _, groups := range perSlab {
		out = append(out, groups...)
	}
	return out
}

// evenChunks partitions entries into ceil(n/maxSize) nearly equal chunks,
// each of size at most maxSize and at least floor(n/k) >= maxSize/2.
func evenChunks(entries []Entry, maxSize int) [][]Entry {
	n := len(entries)
	if n == 0 {
		return nil
	}
	k := (n + maxSize - 1) / maxSize
	base, extra := n/k, n%k
	out := make([][]Entry, 0, k)
	start := 0
	for i := 0; i < k; i++ {
		size := base
		if i < extra {
			size++
		}
		out = append(out, entries[start:start+size])
		start += size
	}
	return out
}

// centerKey is one entry's STR sort key, packed: the center along the
// sort dimension (doubled — Min+Max orders like the midpoint), then ID,
// then Child, plus the entry's position so the sorted keys can permute
// the entries afterwards. ID breaks leaf-entry ties (IDs are unique) and
// Child breaks internal-entry ties (all internal entries carry ID 0 but
// reference distinct pages), so the order is total and the sorted
// permutation unique — the property the parallel chunk-sort + merge
// relies on, and what makes equal-center grouping deterministic at all.
type centerKey struct {
	c     float64
	id    uint64
	child pagestore.PageID
	pos   int
}

func compareKeys(a, b centerKey) int {
	switch {
	case a.c < b.c:
		return -1
	case a.c > b.c:
		return 1
	case a.id < b.id:
		return -1
	case a.id > b.id:
		return 1
	case a.child < b.child:
		return -1
	case a.child > b.child:
		return 1
	}
	return 0
}

// keyPool recycles key columns between builds, so that sorting keys
// instead of entries adds no allocation to a build that follows another.
var keyPool sync.Pool // of *[]centerKey

// getKeys returns a pooled key column of length n.
func getKeys(n int) *[]centerKey {
	if p, _ := keyPool.Get().(*[]centerKey); p != nil && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	k := make([]centerKey, n)
	return &k
}

// parallelSortMin is the slice size below which a parallel sort cannot
// win back its goroutine and merge overhead.
const parallelSortMin = 1 << 13

// sortByCenter sorts entries by their centerKey along dim. It sorts the
// packed key column, which compares without touching the entries' point
// slices and swaps 32 bytes instead of a 64-byte Entry, then moves every
// entry once. keys is caller-owned scratch of at least len(entries).
func sortByCenter(entries []Entry, keys []centerKey, dim, workers int) {
	n := len(entries)
	keys = keys[:n]
	for i, e := range entries {
		keys[i] = centerKey{c: e.Rect.Min[dim] + e.Rect.Max[dim], id: e.ID, child: e.Child, pos: i}
	}
	if workers <= 1 || n < parallelSortMin {
		slices.SortFunc(keys, compareKeys)
	} else {
		sortKeysParallel(keys, workers)
	}
	// Apply the permutation in place, one cycle at a time: entries[i]
	// takes the entry at keys[i].pos, and a visited key's pos is set to
	// -1 so each cycle is walked once.
	for i := range keys {
		if keys[i].pos < 0 {
			continue
		}
		first, j := entries[i], i
		for {
			k := keys[j].pos
			keys[j].pos = -1
			if k == i {
				entries[j] = first
				break
			}
			entries[j] = entries[k]
			j = k
		}
	}
}

// sortKeysParallel chunk-sorts keys concurrently, then merges pairs of
// runs round by round between keys and a scratch column. The key's
// total order means every round preserves the unique final permutation.
func sortKeysParallel(keys []centerKey, workers int) {
	n := len(keys)
	if workers > n/(parallelSortMin/8) {
		workers = max(2, n/(parallelSortMin/8))
	}
	chunkSize := (n + workers - 1) / workers
	segs := make([][2]int, 0, workers)
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunkSize {
		hi := min(lo+chunkSize, n)
		segs = append(segs, [2]int{lo, hi})
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			slices.SortFunc(keys[lo:hi], compareKeys)
		}(lo, hi)
	}
	wg.Wait()

	scratch := getKeys(n)
	defer keyPool.Put(scratch)
	src, dst := keys, *scratch
	for len(segs) > 1 {
		nextSegs := make([][2]int, 0, (len(segs)+1)/2)
		var mw sync.WaitGroup
		for i := 0; i < len(segs); i += 2 {
			if i+1 == len(segs) {
				s := segs[i]
				copy(dst[s[0]:s[1]], src[s[0]:s[1]])
				nextSegs = append(nextSegs, s)
				continue
			}
			a, b := segs[i], segs[i+1]
			nextSegs = append(nextSegs, [2]int{a[0], b[1]})
			mw.Add(1)
			go func(a, b [2]int) {
				defer mw.Done()
				mergeKeys(dst[a[0]:b[1]], src[a[0]:a[1]], src[b[0]:b[1]])
			}(a, b)
		}
		mw.Wait()
		src, dst = dst, src
		segs = nextSegs
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// mergeKeys merges two sorted runs into out (len(out) == len(a)+len(b)).
// Ties cannot occur across runs — the key is a total order over distinct
// entries — so <= vs < is moot; <= keeps the merge stable anyway.
func mergeKeys(out, a, b []centerKey) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if compareKeys(a[i], b[j]) <= 0 {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
		k++
	}
	copy(out[k:], a[i:])
	copy(out[k+len(a)-i:], b[j:])
}
