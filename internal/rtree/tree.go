package rtree

import (
	"errors"
	"fmt"

	"fairassign/internal/geom"
	"fairassign/internal/pagestore"
)

// Tree is a disk-resident R-tree. All node access is routed through the
// buffer pool given at construction; buffer misses show up in the
// underlying store's physical I/O counter, which is the paper's I/O
// metric.
type Tree struct {
	pool   *pagestore.BufferPool
	dims   int
	root   pagestore.PageID
	height int // 1 = root is a leaf
	size   int // number of stored items

	maxLeaf     int
	maxInternal int
	minLeaf     int
	minInternal int

	// decode adapts decodeNode to the pool's decoded-cache hook; built
	// once so warm reads allocate nothing.
	decode func(pagestore.PageID, []byte) (any, error)
	// page is writeNode's encode buffer: the pool copies every image it
	// is given, so one page serves every write.
	page []byte
}

// ErrNotFound is returned by Delete when the item is absent.
var ErrNotFound = errors.New("rtree: item not found")

// minFillRatio is the classic 40 % minimum node occupancy.
const minFillRatio = 0.4

// New creates an empty tree of the given dimensionality on the pool.
func New(pool *pagestore.BufferPool, dims int) (*Tree, error) {
	if dims < 1 {
		return nil, fmt.Errorf("rtree: invalid dimensionality %d", dims)
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
	root := &Node{Leaf: true}
	id, err := t.allocNode(root)
	if err != nil {
		return nil, err
	}
	t.setRoot(id)
	t.height = 1
	return t, nil
}

// setRoot moves the root pointer, keeping the root page pinned in the
// pool's decoded-node cache: every traversal starts at the root, so its
// decoded form is kept through evictions (re-reads are still physically
// performed and counted — only the re-decode is skipped).
func (t *Tree) setRoot(id pagestore.PageID) {
	if t.root == id {
		return
	}
	if t.root != pagestore.InvalidPage {
		t.pool.Unpin(t.root)
	}
	t.root = id
	if id != pagestore.InvalidPage {
		t.pool.Pin(id)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Dims returns the tree's dimensionality.
func (t *Tree) Dims() int { return t.dims }

// Len returns the number of stored items.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// Root returns the root page ID.
func (t *Tree) Root() pagestore.PageID { return t.root }

// Pool returns the buffer pool backing the tree.
func (t *Tree) Pool() *pagestore.BufferPool { return t.pool }

// NumPages returns the number of pages the tree occupies.
func (t *Tree) NumPages() int { return t.pool.Store().NumPages() }

// ReadNode fetches a node, going through the buffer pool (the access is
// I/O-counted). The returned Node comes from the pool's decoded-node
// cache: it is shared, immutable, and remains valid indefinitely (cache
// invalidation detaches it, it is never mutated in place). Callers that
// need to modify a node must use readNodeForUpdate.
func (t *Tree) ReadNode(id pagestore.PageID) (*Node, error) {
	obj, err := t.pool.GetDecoded(id, t.decode)
	if err != nil {
		return nil, err
	}
	return obj.(*Node), nil
}

// readNodeForUpdate returns a privately owned copy of a node for the
// insert/delete paths. The entry slice is fresh (with one spare slot, the
// common growth); entry rectangles still alias the shared immutable
// coordinate storage, which is safe because update paths replace whole
// Rect values and never write through Min/Max.
func (t *Tree) readNodeForUpdate(id pagestore.PageID) (*Node, error) {
	n, err := t.ReadNode(id)
	if err != nil {
		return nil, err
	}
	return n.clone(), nil
}

// clone returns a privately owned copy of a shared node, as
// readNodeForUpdate describes.
func (n *Node) clone() *Node {
	c := &Node{Page: n.Page, Leaf: n.Leaf, Entries: make([]Entry, len(n.Entries), len(n.Entries)+1)}
	copy(c.Entries, n.Entries)
	return c
}

// RootRect returns the MBR of the whole tree (one root access).
func (t *Tree) RootRect() (geom.Rect, error) {
	n, err := t.ReadNode(t.root)
	if err != nil {
		return geom.Rect{}, err
	}
	if len(n.Entries) == 0 {
		return geom.Rect{}, errors.New("rtree: empty tree has no MBR")
	}
	return n.MBR(), nil
}

func (t *Tree) writeNode(n *Node) error {
	if t.page == nil {
		t.page = make([]byte, t.pool.PageSize())
	}
	if err := encodeNode(n, t.page, t.dims); err != nil {
		return err
	}
	return t.pool.Put(n.Page, t.page)
}

func (t *Tree) allocNode(n *Node) (pagestore.PageID, error) {
	id, err := t.pool.Store().Allocate()
	if err != nil {
		return pagestore.InvalidPage, err
	}
	n.Page = id
	if err := t.writeNode(n); err != nil {
		return pagestore.InvalidPage, err
	}
	return id, nil
}

func (t *Tree) freeNode(id pagestore.PageID) error {
	t.pool.Invalidate(id)
	return t.pool.Store().Free(id)
}

// Insert adds an item to the tree.
func (t *Tree) Insert(item Item) error {
	if len(item.Point) != t.dims {
		return fmt.Errorf("rtree: point has %d dims, tree has %d", len(item.Point), t.dims)
	}
	// One defensive clone, shared by Min and Max (degenerate rectangle).
	p := item.Point.Clone()
	e := Entry{Rect: geom.Rect{Min: p, Max: p}, ID: item.ID, Child: pagestore.InvalidPage}
	if err := t.insertEntry(e, 1); err != nil {
		return err
	}
	t.size++
	return nil
}

// insertEntry places e at the given level (1 = leaf). Levels above 1 are
// used when reinserting orphaned subtrees during deletion.
func (t *Tree) insertEntry(e Entry, level int) error {
	path, err := t.chooseSubtree(e.Rect, level)
	if err != nil {
		return err
	}
	node := path[len(path)-1].node
	node.Entries = append(node.Entries, e)
	return t.adjustTree(path, node)
}

// pathElem records the traversal from root to the insertion node.
type pathElem struct {
	node     *Node
	entryIdx int // index in node.Entries taken to descend (valid except at last elem)
}

// chooseSubtree descends from the root picking the child needing least
// area enlargement (ties broken by smaller area), stopping at the target
// level.
func (t *Tree) chooseSubtree(r geom.Rect, level int) ([]pathElem, error) {
	path := make([]pathElem, 0, t.height)
	id := t.root
	for depth := t.height; ; depth-- {
		// Every node on the path may be mutated by adjustTree, so take
		// private copies rather than the shared cached nodes.
		n, err := t.readNodeForUpdate(id)
		if err != nil {
			return nil, err
		}
		path = append(path, pathElem{node: n})
		if depth == level {
			return path, nil
		}
		if n.Leaf || len(n.Entries) == 0 {
			return nil, fmt.Errorf("rtree: cannot descend to level %d", level)
		}
		best, bestEnl, bestArea := -1, 0.0, 0.0
		for i, e := range n.Entries {
			enl := e.Rect.EnlargementArea(r)
			area := e.Rect.Area()
			if best == -1 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		path[len(path)-1].entryIdx = best
		id = n.Entries[best].Child
	}
}

// adjustTree handles overflow splits at the modified node and propagates
// MBR updates (and possible splits) to the root.
func (t *Tree) adjustTree(path []pathElem, node *Node) error {
	var splitEntry *Entry // entry for the new sibling to add to the parent
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i].node
		if splitEntry != nil {
			n.Entries = append(n.Entries, *splitEntry)
			splitEntry = nil
		}
		capacity := t.maxInternal
		if n.Leaf {
			capacity = t.maxLeaf
		}
		if len(n.Entries) > capacity {
			sibling, err := t.splitNode(n)
			if err != nil {
				return err
			}
			se := Entry{Rect: sibling.MBR(), Child: sibling.Page, ID: 0}
			splitEntry = &se
		}
		if err := t.writeNode(n); err != nil {
			return err
		}
		if i > 0 {
			parent := path[i-1].node
			parent.Entries[path[i-1].entryIdx].Rect = n.MBR()
		}
	}
	if splitEntry != nil {
		// Root split: grow the tree by one level.
		oldRoot := path[0].node
		newRoot := &Node{Leaf: false, Entries: []Entry{
			{Rect: oldRoot.MBR(), Child: oldRoot.Page},
			*splitEntry,
		}}
		id, err := t.allocNode(newRoot)
		if err != nil {
			return err
		}
		t.setRoot(id)
		t.height++
	}
	return nil
}

// splitNode performs Guttman's quadratic split, leaving one group in n and
// returning the freshly allocated sibling (already written).
func (t *Tree) splitNode(n *Node) (*Node, error) {
	entries := n.Entries
	minFill := t.minInternal
	if n.Leaf {
		minFill = t.minLeaf
	}

	// Pick seeds: the pair wasting the most area if grouped together.
	seedA, seedB, worst := 0, 1, -1.0
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := entries[i].Rect.Union(entries[j].Rect).Area() -
				entries[i].Rect.Area() - entries[j].Rect.Area()
			if d > worst {
				seedA, seedB, worst = i, j, d
			}
		}
	}
	groupA := []Entry{entries[seedA]}
	groupB := []Entry{entries[seedB]}
	rectA := entries[seedA].Rect.Clone()
	rectB := entries[seedB].Rect.Clone()
	rest := make([]Entry, 0, len(entries)-2)
	for i, e := range entries {
		if i != seedA && i != seedB {
			rest = append(rest, e)
		}
	}

	for len(rest) > 0 {
		// Force-assign if one group must take all remaining entries to
		// reach minimum fill.
		if len(groupA)+len(rest) == minFill {
			for _, e := range rest {
				groupA = append(groupA, e)
				rectA.Enlarge(e.Rect)
			}
			break
		}
		if len(groupB)+len(rest) == minFill {
			for _, e := range rest {
				groupB = append(groupB, e)
				rectB.Enlarge(e.Rect)
			}
			break
		}
		// Pick the entry with the greatest preference for one group.
		bestIdx, bestDiff := -1, -1.0
		var bestToA bool
		for i, e := range rest {
			dA := rectA.EnlargementArea(e.Rect)
			dB := rectB.EnlargementArea(e.Rect)
			diff := dA - dB
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestIdx, bestDiff = i, diff
				bestToA = dA < dB ||
					(dA == dB && rectA.Area() < rectB.Area()) ||
					(dA == dB && rectA.Area() == rectB.Area() && len(groupA) <= len(groupB))
			}
		}
		e := rest[bestIdx]
		rest[bestIdx] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
		if bestToA {
			groupA = append(groupA, e)
			rectA.Enlarge(e.Rect)
		} else {
			groupB = append(groupB, e)
			rectB.Enlarge(e.Rect)
		}
	}

	n.Entries = groupA
	sibling := &Node{Leaf: n.Leaf, Entries: groupB}
	if _, err := t.allocNode(sibling); err != nil {
		return nil, err
	}
	return sibling, nil
}
