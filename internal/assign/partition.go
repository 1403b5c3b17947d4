package assign

import (
	"sort"

	"fairassign/internal/geom"
)

// splitKey is one range boundary of the spatial partition: the STR sort
// key of the first object of a partition's range. Keys are (coordinate
// on the split axis, object ID) — exactly the order rtree's STR bulk
// load sorts its top-level slabs by, so contiguous key ranges are
// contiguous runs of the bulk-load layout and spatially coherent.
type splitKey struct {
	coord float64
	id    uint64
}

func (k splitKey) less(coord float64, id uint64) bool {
	if k.coord != coord {
		return k.coord < coord
	}
	return k.id < id
}

// Partitioner maps objects to object partitions and never changes for
// the life of a workspace: arrivals are routed by the boundaries (or
// hash) derived from the initial population, so an object's owning
// partition is a pure function of its point and ID.
type Partitioner struct {
	n    int
	dim  int        // split axis of the spatial partition
	cuts []splitKey // n-1 ascending boundaries; partition i owns keys < cuts[i]
	hash bool       // degenerate distribution: route by ID hash instead
}

// NewPartitioner derives a partitioner for n partitions from the
// initial objects. It sorts the objects in STR key order — coordinate
// on the split axis, ties by ID — and cuts n equal contiguous ranges,
// choosing the axis with the most distinct coordinates. If no axis
// offers at least n distinct values (a degenerate distribution:
// everything stacked on a line, or fewer objects than partitions), it
// falls back to ID hashing, which keeps partitions balanced regardless
// of geometry.
func NewPartitioner(dims, n int, objs []Object) *Partitioner {
	p := &Partitioner{n: max(n, 1)}
	if p.n == 1 {
		return p // trivially spatial: one range
	}
	dim, ok := bestSplitAxis(dims, p.n, objs)
	if !ok {
		p.hash = true
		return p
	}
	keys := make([]splitKey, len(objs))
	for i, o := range objs {
		keys[i] = splitKey{coord: o.Point[dim], id: o.ID}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j].coord, keys[j].id) })
	p.dim = dim
	p.cuts = make([]splitKey, 0, p.n-1)
	for s := 1; s < p.n; s++ {
		p.cuts = append(p.cuts, keys[s*len(keys)/p.n])
	}
	return p
}

// bestSplitAxis picks the axis with the most distinct coordinates,
// requiring at least n so every range boundary separates real mass.
func bestSplitAxis(dims, n int, objs []Object) (int, bool) {
	bestDim, bestDistinct := 0, 0
	seen := make(map[float64]struct{}, len(objs))
	for d := 0; d < dims; d++ {
		clear(seen)
		for _, o := range objs {
			seen[o.Point[d]] = struct{}{}
		}
		if len(seen) > bestDistinct {
			bestDim, bestDistinct = d, len(seen)
		}
	}
	return bestDim, bestDistinct >= n && len(objs) >= n
}

// Kind returns the resolved partition strategy: "spatial" or "hash".
func (p *Partitioner) Kind() string {
	if p.hash {
		return "hash"
	}
	return "spatial"
}

// Route returns the partition owning an object. Spatial routing is a
// binary search over the range boundaries on the split axis; hash
// routing mixes the ID through splitmix64.
func (p *Partitioner) Route(pt geom.Point, id uint64) int {
	if p.n == 1 {
		return 0
	}
	if p.hash || p.dim >= len(pt) {
		// Hash partition, or a malformed point (wrong dimensionality —
		// validation will reject the mutation, but routing must not
		// panic first).
		return int(splitmix64(id) % uint64(p.n))
	}
	c := pt[p.dim]
	lo, hi := 0, len(p.cuts) // partition index = number of cuts <= key
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cuts[mid].less(c, id) || p.cuts[mid] == (splitKey{coord: c, id: id}) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// splitmix64 is the standard 64-bit finalizer (Vigna); enough avalanche
// that sequential IDs spread uniformly over partitions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
