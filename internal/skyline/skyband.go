package skyline

import (
	"sort"

	"fairassign/internal/rtree"
)

// K-skyband support (Section 2.3 related work, Mouratidis et al. [16]):
// the k-skyband of O contains every object dominated by at most k-1
// others. For any monotone preference function the top-k results are a
// subset of the k-skyband, so it generalizes the skyline (k = 1) the way
// top-k generalizes top-1. The assignment library exposes it so that
// downstream systems can pre-filter candidate sets for multi-winner
// variants.

// SkybandMem computes the k-skyband of an in-memory item slice by a
// sort-and-filter pass (the SFS idea generalized): objects are visited in
// descending coordinate-sum order, so all potential dominators of an
// object are visited before it.
func SkybandMem(items []rtree.Item, k int) []rtree.Item {
	if k < 1 {
		k = 1
	}
	sorted := make([]rtree.Item, len(items))
	copy(sorted, items)
	sortBySumDesc(sorted)
	var band []rtree.Item
	for _, it := range sorted {
		n := 0
		for _, b := range band {
			if b.Point.Dominates(it.Point) {
				n++
				if n >= k {
					break
				}
			}
		}
		if n < k {
			band = append(band, it)
		}
	}
	sort.Slice(band, func(i, j int) bool { return band[i].ID < band[j].ID })
	return band
}
