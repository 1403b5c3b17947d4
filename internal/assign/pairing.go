package assign

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"fairassign/internal/rtree"
	"fairassign/internal/score"
	"fairassign/internal/skyline"
	"fairassign/internal/ta"
)

// bestFunc is the outcome of one per-object reverse top-1 search
// (Lines 9–11 of Algorithms 1/3): the best live preference function for a
// skyline object.
type bestFunc struct {
	fid   uint64
	score float64
}

// bestObj is the outcome of one per-function best-object scan
// (Lines 12–13): the skyline object maximizing the function's score.
type bestObj struct {
	oid   uint64
	score float64
}

// pairLists is the function side of the pairing step: the scorer of a
// live function, and the removal of an exhausted one.
type pairLists interface {
	scorer(fid uint64) (score.Scorer, error)
	Remove(fid uint64) error
}

// memLists serves the pairing step from the in-memory TA lists.
type memLists struct{ *ta.Lists }

func (l memLists) scorer(fid uint64) (score.Scorer, error) {
	sc, ok := l.ScorerOf(fid)
	if !ok {
		return sc, fmt.Errorf("assign: internal error: best function %d is not live", fid)
	}
	return sc, nil
}

// diskLists serves the pairing step from the disk-resident lists of
// Section 7.6. Each scorer reads the function's weights through the
// list buffer, so the order of the calls is part of the I/O count.
type diskLists struct{ *ta.DiskLists }

func (l diskLists) scorer(fid uint64) (score.Scorer, error) {
	w, err := l.WeightsOf(fid)
	return score.Scorer{Fam: l.FamilyOf(fid), W: w}, err
}

// pairStep is Lines 12–17 of Algorithms 1 and 3, the one pairing step
// of SB, SBBasic, SBDeltaSky, SBDiskFuncs, SBAlt, SBTwoSkylines,
// Progressive and the Workspace build.
type pairStep struct {
	lists    pairLists
	sky      skylineDriver
	funcCaps *capTable
	objCaps  *capTable
	onePair  bool             // Algorithm 1: one pair per loop
	drop     func(oid uint64) // discards an exhausted object's search state
}

// bestObject is the forward scan of Lines 12–13: the skyline object
// maximizing sc, ties to the lowest ID. The UpdateSkyline maintainer
// answers from its columnar mirror of the skyline; DeltaSky's skyline
// is scanned row by row. Both select by the same (score, ID) order.
func (ps *pairStep) bestObject(sc score.Scorer, sky []rtree.Item) bestObj {
	var it rtree.Item
	var s float64
	if m, ok := ps.sky.(*skyline.Maintainer); ok {
		it, s, _ = m.Best(sc)
	} else {
		it, s, _ = skyline.BestUnder(sc, sky)
	}
	return bestObj{oid: it.ID, score: s}
}

// pair takes the skyline in ascending ID order and each skyline object's
// best live function. It finds the best skyline object of
// every distinct best function in ascending function ID, appends the
// mutual best pairs to out in that order (only the first when onePair),
// and consumes their capacities: exhausted functions leave the lists,
// exhausted objects leave the skyline and drop their search state.
func (ps *pairStep) pair(out []Pair, sky []rtree.Item, best []bestFunc) ([]Pair, error) {
	fids := make([]uint64, len(best))
	for i, bf := range best {
		fids[i] = bf.fid
	}
	slices.Sort(fids)
	fids = slices.Compact(fids)
	fBest := make([]bestObj, len(fids))
	for i, fid := range fids {
		sc, err := ps.lists.scorer(fid)
		if err != nil {
			return out, err
		}
		fBest[i] = ps.bestObject(sc, sky)
	}

	var exhausted []uint64
	emitted := 0
	for i, fid := range fids {
		bo := fBest[i]
		j, _ := slices.BinarySearchFunc(sky, bo.oid, func(o rtree.Item, id uint64) int { return cmp.Compare(o.ID, id) })
		if best[j].fid != fid {
			continue
		}
		out = append(out, Pair{FuncID: fid, ObjectID: bo.oid, Score: bo.score})
		emitted++
		if ps.funcCaps.consume(fid) {
			if err := ps.lists.Remove(fid); err != nil {
				return out, err
			}
		}
		if ps.objCaps.consume(bo.oid) {
			exhausted = append(exhausted, bo.oid)
			ps.drop(bo.oid)
		}
		if ps.onePair {
			break
		}
	}
	if emitted == 0 {
		return out, errors.New("assign: internal error: no stable pair emitted in a loop")
	}
	if len(exhausted) > 0 {
		if err := ps.sky.Remove(exhausted...); err != nil {
			return out, err
		}
	}
	return out, nil
}
