package assign

import (
	"fairassign/internal/geom"
	"fairassign/internal/pagestore"
	"fairassign/internal/rtree"
	"fairassign/internal/ta"
)

// This file implements the Section 7.6 storage setting: F is too large
// for memory and lives on disk, while O fits in memory (the object index
// is fully buffered). Each method pays I/O for its function-side
// accesses:
//
//   - SBDiskFuncs: plain SB whose per-object resumable TA searches read
//     the disk-resident coefficient lists page by page — the expensive
//     repeated scanning the paper predicts for SB in this setting;
//   - ChainDiskFuncs: Chain whose function R-tree is disk-resident (2 %
//     buffer), so every reverse top-1 probe costs page reads;
//   - BruteForceDiskFuncs: Brute Force whose per-function search state
//     (heap + weights) cannot stay in memory; every initialization or
//     resume of a function's top-1 search pages its state in and out
//     (one read + one write through a 2 % buffer). This state-paging
//     model is a documented substitution (see DESIGN.md) preserving the
//     paper's shape: Brute Force and Chain pay per-operation function
//     I/O, while SB-alt batches one list pass per loop;
//   - SBAlt (in sbalt.go) is the paper's proposed method for this
//     setting.

// SBDiskFuncs runs SB with the function coefficient lists materialized on
// the simulated disk and per-object resumable TA searches over them.
func SBDiskFuncs(p *Problem, cfg Config) (*Result, error) {
	st, err := newSolveState(p, cfg)
	if err != nil {
		return nil, err
	}
	defer st.release()
	dl, err := st.buildDiskLists()
	if err != nil {
		return nil, err
	}
	return st.runSB(sbVariant{source: func(st *solveState) (bestSource, pairLists, error) {
		open := func(o geom.Point, omega int) *ta.Search { return ta.NewDiskSearch(dl, o, omega) }
		return newTASearches(st, open, &dl.Counters, true), diskLists{dl}, nil
	}})
}

// ChainDiskFuncs runs Chain with its function R-tree on the simulated
// disk (buffered at the configured fraction): each reverse top-1 probe
// against F now costs I/O, while the object tree is fully in memory.
func ChainDiskFuncs(p *Problem, cfg Config) (*Result, error) {
	// Object tree fully buffered: in-memory side.
	memCfg := cfg
	memCfg.BufferFrac = 1.0
	st, err := newSolveState(p, memCfg)
	if err != nil {
		return nil, err
	}
	defer st.release()
	// Warm the object pool so object-side probes cost nothing; function
	// side is the measured disk.
	if err := warmPool(st.tree); err != nil {
		return nil, err
	}
	st.store.IO().Reset()

	fstore, fpool, err := cfg.newFuncStore()
	if err != nil {
		return nil, err
	}
	defer fstore.Close()
	fx, err := buildFuncIndex(p, fpool, cfg)
	if err != nil {
		return nil, err
	}
	if err := coldBuffer(fpool, fx.ftree.NumPages(), cfg.funcBufferFrac()); err != nil {
		return nil, err
	}

	// Function tree on disk: only its buffer frames are memory-resident.
	bufBytes := int64(fpool.Capacity()) * int64(fstore.PageSize())
	res, err := chainLoop(p, st, fx, bufBytes)
	if err != nil {
		return nil, err
	}
	res.Stats.IO = *st.store.IO()
	res.Stats.IO.Add(*fstore.IO())
	return res, nil
}

// BruteForceDiskFuncs runs Brute Force in the disk-resident-F setting:
// every per-function search operation pages that function's state through
// a small buffer (one state page per function).
func BruteForceDiskFuncs(p *Problem, cfg Config) (*Result, error) {
	memCfg := cfg
	memCfg.BufferFrac = 1.0
	st, err := newSolveState(p, memCfg)
	if err != nil {
		return nil, err
	}
	defer st.release()
	if err := warmPool(st.tree); err != nil {
		return nil, err
	}
	st.store.IO().Reset()

	// One state page per function, behind a small LRU buffer.
	fstore, err := cfg.newStore()
	if err != nil {
		return nil, err
	}
	defer fstore.Close()
	statePage := make(map[uint64]pagestore.PageID, len(p.Functions))
	for _, f := range p.Functions {
		id, err := fstore.Allocate()
		if err != nil {
			return nil, err
		}
		statePage[f.ID] = id
	}
	fpool := pagestore.NewBufferPool(fstore,
		pagestore.CapacityFromFraction(len(p.Functions), cfg.funcBufferFrac()))
	fstore.IO().Reset()
	touchState := func(fid uint64) error {
		pg := statePage[fid]
		if _, err := fpool.Get(pg); err != nil {
			return err
		}
		// The resumed heap state is written back after mutation.
		return fpool.Put(pg, []byte{1})
	}

	res, err := bruteForceLoop(p, st, touchState)
	if err != nil {
		return nil, err
	}
	res.Stats.IO = *st.store.IO()
	res.Stats.IO.Add(*fstore.IO())
	return res, nil
}

// warmPool touches every page of a tree so that subsequent traversal hits
// the buffer (models a memory-resident index).
func warmPool(t *rtree.Tree) error {
	if t.Len() == 0 {
		return nil
	}
	r, err := t.RootRect()
	if err != nil {
		return err
	}
	return t.Search(r, func(rtree.Item) bool { return true })
}
