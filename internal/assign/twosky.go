package assign

import (
	"sort"

	"fairassign/internal/metrics"
	"fairassign/internal/rtree"
	"fairassign/internal/score"
	"fairassign/internal/skyline"
)

// SBTwoSkylines is the prioritized variant of Section 6.2: alongside the
// object skyline, a skyline is maintained over the functions' effective
// coefficient vectors (α'_i = α_i·γ). A function dominated coefficient-
// wise by another of the SAME scoring family can never win any object
// (every family is monotone in its weights), so the best pairs always
// lie in Fsky × Osky where Fsky is the union of per-family function
// skylines — one skyline per distinct score.Family present, collapsing
// to the single skyline of the paper in the all-linear setting. With
// γ-scaled weights Fsky is small: each skyline object's best function
// comes from a scan of Fsky, and the shared pairing step scans Osky for
// each function's best object — faster than TA whose threshold goes
// loose for mixed priorities, and cheaper in memory (no TA states are
// kept), matching Figure 15.
func SBTwoSkylines(p *Problem, cfg Config) (*Result, error) {
	st, err := newSolveState(p, cfg)
	if err != nil {
		return nil, err
	}
	defer st.release()
	return st.runSB(sbVariant{source: func(st *solveState) (bestSource, pairLists, error) {
		fs := newFuncSkyline(st.p)
		return fs, fs, nil
	}})
}

// funcSkyline answers Lines 9–11 of SBTwoSkylines by scanning the
// function skyline Fsky in columnar blocks, and serves the pairing step
// each live function's effective weights. Fsky is recomputed with SFS
// in the loop after a function is assigned away: deletions are the
// only updates, but removing a skyline function can surface functions
// it was dominating.
type funcSkyline struct {
	dims    int
	weights map[uint64][]float64 // live functions' effective weights
	fams    map[uint64]score.Family
	live    []rtree.Item // live functions as weight-space points
	fsky    []rtree.Item
	blocks  *score.FuncBlocks // Fsky in per-family weight columns
	stale   bool
}

func newFuncSkyline(p *Problem) *funcSkyline {
	fs := &funcSkyline{
		dims:    p.Dims,
		weights: make(map[uint64][]float64, len(p.Functions)),
		fams:    make(map[uint64]score.Family, len(p.Functions)),
		live:    make([]rtree.Item, 0, len(p.Functions)),
		stale:   true,
	}
	for _, f := range p.Functions {
		w := f.Effective()
		fs.weights[f.ID] = w
		fs.fams[f.ID] = f.Fam
		fs.live = append(fs.live, rtree.Item{ID: f.ID, Point: w})
	}
	return fs
}

func (fs *funcSkyline) best(sky []rtree.Item) ([]bestFunc, error) {
	if fs.stale {
		keep := fs.live[:0]
		for _, f := range fs.live {
			if _, ok := fs.weights[f.ID]; ok {
				keep = append(keep, f)
			}
		}
		fs.live = keep
		fs.fsky = functionSkylines(fs.live, fs.fams)
		fs.blocks = score.NewFuncBlocks(fs.dims)
		for _, f := range fs.fsky {
			fs.blocks.Add(f.ID, fs.fams[f.ID], f.Point)
		}
		fs.stale = false
	}
	best := make([]bestFunc, len(sky))
	for i, o := range sky {
		fid, s, ok := fs.blocks.Best(o.Point, o.ID)
		if !ok {
			return nil, nil
		}
		best[i] = bestFunc{fid: fid, score: s}
	}
	return best, nil
}

func (fs *funcSkyline) scorer(fid uint64) (score.Scorer, error) {
	return score.Scorer{Fam: fs.fams[fid], W: fs.weights[fid]}, nil
}

// Remove takes an exhausted function out and marks Fsky stale.
func (fs *funcSkyline) Remove(fid uint64) error {
	delete(fs.weights, fid)
	fs.stale = true
	return nil
}

// drop is a no-op: the scan keeps no per-object state.
func (fs *funcSkyline) drop(uint64) {}

// memory charges both skylines' points.
func (fs *funcSkyline) memory(sky []rtree.Item) int64 {
	return int64(len(fs.fsky)+len(sky)) * 48
}

// count is a no-op: the scan runs no TA searches.
func (fs *funcSkyline) count(*metrics.Stats) {}

// functionSkylines computes the candidate function set of the two-
// skyline loop: one weight-space skyline per distinct scoring family,
// concatenated. Weight dominance only transfers to score dominance
// within one family, so the grouping is what keeps the pruning sound
// for mixed populations; a single (linear) family degenerates to one
// SFS pass over all functions, exactly the paper's structure. Family
// groups are visited in a deterministic order, though the scans over
// the returned set break ties by ID and do not depend on it.
func functionSkylines(liveFuncs []rtree.Item, fams map[uint64]score.Family) []rtree.Item {
	groups := make(map[score.Family][]rtree.Item)
	for _, f := range liveFuncs {
		fam := fams[f.ID]
		groups[fam] = append(groups[fam], f)
	}
	if len(groups) == 1 {
		for _, g := range groups {
			return skyline.SFS(g)
		}
	}
	keys := make([]score.Family, 0, len(groups))
	for fam := range groups {
		keys = append(keys, fam)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Kind != keys[j].Kind {
			return keys[i].Kind < keys[j].Kind
		}
		return keys[i].P < keys[j].P
	})
	var out []rtree.Item
	for _, fam := range keys {
		out = append(out, skyline.SFS(groups[fam])...)
	}
	return out
}
