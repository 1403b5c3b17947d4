// Package rtree implements a disk-resident R-tree over the pagestore
// layer. One tree node occupies exactly one page; all node reads and
// writes go through an LRU buffer pool so that experiments observe the
// same I/O behaviour the paper measures. The tree supports Guttman
// quadratic-split insertion, deletion with tree condensation, STR bulk
// loading, window search, and raw node access for the best-first
// traversals used by the skyline and ranked-search packages.
package rtree

import (
	"encoding/binary"
	"fmt"
	"math"

	"fairassign/internal/geom"
	"fairassign/internal/pagestore"
)

// Entry is one slot of a node. In internal nodes Child points to the child
// page and Rect is the child's MBR. In leaves Rect is the degenerate
// rectangle of the object's point and ID is the object identifier.
type Entry struct {
	Rect  geom.Rect
	Child pagestore.PageID // internal nodes only
	ID    uint64           // leaf nodes only
}

// Item is a data object stored in the tree: an identifier plus its
// D-dimensional feature vector.
type Item struct {
	ID    uint64
	Point geom.Point
}

// Node is the decoded form of one tree page. Nodes returned by
// Tree.ReadNode are shared via the buffer pool's decoded-node cache and
// must be treated as immutable; update paths obtain private copies
// through readNodeForUpdate.
type Node struct {
	Page    pagestore.PageID
	Leaf    bool
	Entries []Entry
}

// MBR returns the minimum bounding rectangle of all entries in the node.
func (n *Node) MBR() geom.Rect {
	if len(n.Entries) == 0 {
		return geom.Rect{}
	}
	r := n.Entries[0].Rect.Clone()
	for _, e := range n.Entries[1:] {
		r.Enlarge(e.Rect)
	}
	return r
}

// Node page layout (little endian):
//
//	offset 0: flags   uint8 (bit 0: leaf)
//	offset 1: count   uint16
//	offset 3: entries count × entrySize
//
// Internal entry: min[D]float64, max[D]float64, child int64.
// Leaf entry:     point[D]float64, id uint64.
const nodeHeaderSize = 3

func internalEntrySize(dims int) int { return 2*8*dims + 8 }
func leafEntrySize(dims int) int     { return 8*dims + 8 }

// internalCapacity returns the max entries an internal node page can hold.
func internalCapacity(pageSize, dims int) int {
	return (pageSize - nodeHeaderSize) / internalEntrySize(dims)
}

// leafCapacity returns the max entries a leaf node page can hold.
func leafCapacity(pageSize, dims int) int {
	return (pageSize - nodeHeaderSize) / leafEntrySize(dims)
}

func putFloat(buf []byte, v float64) {
	binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
}

func getFloat(buf []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(buf))
}

// encodeNode serializes n into buf, a page image of the page's size
// that the caller owns. Every byte of buf is written, with zeros past
// the last entry, so a reused buffer carries nothing over.
func encodeNode(n *Node, buf []byte, dims int) error {
	var cap, esz int
	if n.Leaf {
		cap, esz = leafCapacity(len(buf), dims), leafEntrySize(dims)
	} else {
		cap, esz = internalCapacity(len(buf), dims), internalEntrySize(dims)
	}
	if len(n.Entries) > cap {
		return fmt.Errorf("rtree: node overflow: %d entries, capacity %d", len(n.Entries), cap)
	}
	buf[0] = 0
	if n.Leaf {
		buf[0] = 1
	}
	binary.LittleEndian.PutUint16(buf[1:3], uint16(len(n.Entries)))
	off := nodeHeaderSize
	for _, e := range n.Entries {
		if n.Leaf {
			for d := 0; d < dims; d++ {
				putFloat(buf[off+8*d:], e.Rect.Min[d])
			}
			binary.LittleEndian.PutUint64(buf[off+8*dims:], e.ID)
		} else {
			for d := 0; d < dims; d++ {
				putFloat(buf[off+8*d:], e.Rect.Min[d])
				putFloat(buf[off+8*(dims+d):], e.Rect.Max[d])
			}
			binary.LittleEndian.PutUint64(buf[off+16*dims:], uint64(e.Child))
		}
		off += esz
	}
	clear(buf[off:])
	return nil
}

// decodeNode parses a page image into a Node. All entry coordinates share
// one contiguous backing array (one allocation per node instead of one to
// two per entry); leaf entries are degenerate rectangles, so their Min and
// Max alias the same D floats. Decoded nodes are treated as immutable
// everywhere — mutation paths work on copies (see readNodeForUpdate) and
// replace whole Rect values rather than writing through Min/Max — so the
// sharing is safe, and so is caching the node across traversals.
func decodeNode(page pagestore.PageID, buf []byte, dims int) (*Node, error) {
	if len(buf) < nodeHeaderSize {
		return nil, fmt.Errorf("rtree: page %d too small to decode", page)
	}
	n := &Node{Page: page, Leaf: buf[0]&1 == 1}
	count := int(binary.LittleEndian.Uint16(buf[1:3]))
	var esz, perEntry int
	if n.Leaf {
		esz, perEntry = leafEntrySize(dims), dims
	} else {
		esz, perEntry = internalEntrySize(dims), 2*dims
	}
	if nodeHeaderSize+count*esz > len(buf) {
		return nil, fmt.Errorf("rtree: page %d corrupt: count %d exceeds page", page, count)
	}
	n.Entries = make([]Entry, count)
	coords := make([]float64, count*perEntry)
	off := nodeHeaderSize
	for i := 0; i < count; i++ {
		var e Entry
		base := i * perEntry
		if n.Leaf {
			p := geom.Point(coords[base : base+dims : base+dims])
			for d := 0; d < dims; d++ {
				p[d] = getFloat(buf[off+8*d:])
			}
			e.Rect = geom.Rect{Min: p, Max: p}
			e.ID = binary.LittleEndian.Uint64(buf[off+8*dims:])
			e.Child = pagestore.InvalidPage
		} else {
			min := geom.Point(coords[base : base+dims : base+dims])
			max := geom.Point(coords[base+dims : base+2*dims : base+2*dims])
			for d := 0; d < dims; d++ {
				min[d] = getFloat(buf[off+8*d:])
				max[d] = getFloat(buf[off+8*(dims+d):])
			}
			e.Rect = geom.Rect{Min: min, Max: max}
			e.Child = pagestore.PageID(binary.LittleEndian.Uint64(buf[off+16*dims:]))
		}
		n.Entries[i] = e
		off += esz
	}
	return n, nil
}
