package rtree

import (
	"fmt"

	"fairassign/internal/pagestore"
)

// NodeReader is the read substrate a tree traversal runs against. Both
// the live *Tree (reading through its buffer pool) and the frozen *View
// (reading a pagestore.Snapshot) implement it, so every read-only
// search — BRS ranked search, BBS skyline — can run unchanged over
// either the writer's current state or a pagestore snapshot.
type NodeReader interface {
	// Dims returns the dimensionality of indexed points.
	Dims() int
	// Len returns the number of stored items.
	Len() int
	// Root returns the root page ID.
	Root() pagestore.PageID
	// ReadNode fetches one node. The returned node is shared and
	// immutable.
	ReadNode(id pagestore.PageID) (*Node, error)
}

// Meta is the mutable header of a tree — root pointer, height, size —
// captured at one instant. Together with a pagestore.Snapshot of the
// pages it freezes the whole index: the pages pin the node contents,
// the Meta pins the entry point.
type Meta struct {
	Root   pagestore.PageID
	Height int // 1 = root is a leaf
	Size   int // number of stored items
}

// Meta returns the tree's current header. Capture it at the same
// serialization point as the page snapshot (e.g. under the single
// writer's lock) or the view's root may dangle.
func (t *Tree) Meta() Meta { return Meta{Root: t.root, Height: t.height, Size: t.size} }

// FromMeta reattaches a live tree to pages that already exist in the
// pool's store — the restore half of snapshot serialization: the page
// images carry the node contents, the Meta carries the entry point, and
// together they reproduce the exact tree that was saved, no bulk load
// and no re-solve. The caller is responsible for the pages being a
// consistent image captured with this Meta (the snapshot layer's
// checksums enforce that).
func FromMeta(pool *pagestore.BufferPool, dims int, meta Meta) (*Tree, error) {
	if dims < 1 {
		return nil, fmt.Errorf("rtree: invalid dimensionality %d", dims)
	}
	if meta.Root == pagestore.InvalidPage || meta.Height < 1 || meta.Size < 0 {
		return nil, fmt.Errorf("rtree: invalid meta %+v", meta)
	}
	t := &Tree{pool: pool, dims: dims, root: pagestore.InvalidPage}
	t.decode = func(id pagestore.PageID, data []byte) (any, error) {
		return decodeNode(id, data, t.dims)
	}
	t.maxLeaf = leafCapacity(pool.PageSize(), dims)
	t.maxInternal = internalCapacity(pool.PageSize(), dims)
	if t.maxLeaf < 2 || t.maxInternal < 2 {
		return nil, fmt.Errorf("rtree: page size %d too small for %d dims", pool.PageSize(), dims)
	}
	t.minLeaf = max(1, int(minFillRatio*float64(t.maxLeaf)))
	t.minInternal = max(1, int(minFillRatio*float64(t.maxInternal)))
	t.setRoot(meta.Root)
	t.height = meta.Height
	t.size = meta.Size
	return t, nil
}

// View is a read-only R-tree frozen at one pagestore snapshot: node
// reads look page versions up in the snapshot's frozen page table (with
// the per-version decoded-node cache), so searches observe exactly the
// tree as it was when the snapshot was taken, no matter how the live
// tree mutates afterwards. A View performs no writer I/O and holds no locks between
// node reads; it is safe for concurrent use by any number of
// goroutines and stays valid until the snapshot is released.
type View struct {
	snap   *pagestore.Snapshot
	dims   int
	meta   Meta
	decode func(pagestore.PageID, []byte) (any, error)
}

// NewView freezes a tree of the given dimensionality at the snapshot.
// meta must have been captured when the snapshot was acquired.
func NewView(snap *pagestore.Snapshot, dims int, meta Meta) *View {
	v := &View{snap: snap, dims: dims, meta: meta}
	v.decode = func(id pagestore.PageID, data []byte) (any, error) {
		return decodeNode(id, data, dims)
	}
	return v
}

// Dims implements NodeReader.
func (v *View) Dims() int { return v.dims }

// Len implements NodeReader.
func (v *View) Len() int { return v.meta.Size }

// Root implements NodeReader.
func (v *View) Root() pagestore.PageID { return v.meta.Root }

// ReadNode implements NodeReader: the node as of the view's snapshot,
// decoded at most once per page version.
func (v *View) ReadNode(id pagestore.PageID) (*Node, error) {
	obj, err := v.snap.GetDecoded(id, v.decode)
	if err != nil {
		return nil, err
	}
	return obj.(*Node), nil
}
