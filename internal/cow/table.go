// Package cow holds the chunked copy-on-write table behind every
// workspace snapshot: the object, function and pair tables, and the
// page table of the versioned page store.
//
// A table hashes its keys into a power-of-two number of chunks, each a
// sorted run of keys with their values beside them, and reaches the
// chunks through a two-level directory: a root of pages, each holding
// pageChunks chunk pointers. Every page and chunk records the
// generation (the number of freezes before it) that made it, so the
// writer knows which ones a frozen copy may share. A freeze copies only
// the root, one pointer per page; the writer's first write to a chunk
// after a freeze clones that chunk (two slice copies) and, unless an
// earlier write did, its page (pageChunks pointers), so neither cost
// grows with the entries.
package cow

import (
	"iter"
	"slices"
)

const (
	// chunkSize is the average chunk occupancy past which a Table
	// doubles its chunk count. It bounds the cost of the writer's first
	// write to a chunk after a freeze (one chunk clone).
	chunkSize = 64
	// pageChunks is the number of chunk pointers in a directory page.
	// It bounds the cost of the first write to a page after a freeze
	// (one page clone), while the page count bounds the cost of the
	// freeze itself (one pointer per page).
	pageChunks = 64
)

// chunk is one run of entries: keys ascending, vals[i] stored under
// keys[i]. No chunk is written after the generation that made it
// ends, so a frozen copy can share it.
type chunk[V any] struct {
	gen  uint64
	keys []uint64
	vals []V
}

// clone returns a copy of c made by generation gen, with room for
// extra more entries.
func (c *chunk[V]) clone(gen uint64, extra int) *chunk[V] {
	n := len(c.keys)
	d := &chunk[V]{gen: gen, keys: make([]uint64, n, n+extra), vals: make([]V, n, n+extra)}
	copy(d.keys, c.keys)
	copy(d.vals, c.vals)
	return d
}

// page is one directory page: pageChunks chunk pointers, of which a
// table with fewer chunks than that uses a prefix.
type page[V any] struct {
	gen    uint64
	chunks [pageChunks]*chunk[V]
}

// Frozen is the read side of a Table. A frozen copy is one of these,
// and no writer touches its root, pages or chunks again, so readers
// look values up without locks.
type Frozen[V any] struct {
	root  []*page[V]
	shift uint // 64 - log2(chunk count): the hash's top bits pick the chunk
	n     int
}

// index returns the index of the chunk holding key k (Fibonacci
// hashing: IDs are often dense, so they are mixed before the top bits
// pick the chunk).
func (t *Frozen[V]) index(k uint64) int {
	return int((k * 0x9E3779B97F4A7C15) >> t.shift)
}

// slot returns the directory slot of chunk i.
func (t *Frozen[V]) slot(i int) **chunk[V] {
	return &t.root[i/pageChunks].chunks[i%pageChunks]
}

// Get returns the value stored under k.
func (t *Frozen[V]) Get(k uint64) (V, bool) {
	c := *t.slot(t.index(k))
	if i, ok := slices.BinarySearch(c.keys, k); ok {
		return c.vals[i], true
	}
	var zero V
	return zero, false
}

// Len returns the number of entries.
func (t *Frozen[V]) Len() int { return t.n }

// All iterates the table in a fixed order: chunk by chunk, and by
// ascending key within a chunk.
func (t *Frozen[V]) All() iter.Seq2[uint64, V] {
	return func(yield func(uint64, V) bool) {
		for _, p := range t.root {
			for _, c := range &p.chunks {
				if c == nil {
					break
				}
				for i, k := range c.keys {
					if !yield(k, c.vals[i]) {
						return
					}
				}
			}
		}
	}
}

// Table is a copy-on-write table: the writer's own storage for a table
// that snapshot readers read. Freeze hands out an immutable copy for
// the cost of copying the root; the writer then clones a page and a
// chunk on its first write to them after the freeze, so a capture
// costs O(pages) pointer copies and a mutation O(changed chunks)
// clones, never O(entries). The table doubles its chunk count as it
// grows, keeping chunks near chunkSize entries without a size knob.
// Not safe for concurrent writers; readers use frozen copies.
type Table[V any] struct {
	Frozen[V]
	// gen is the current generation. Freeze bumps it, so every page or
	// chunk an older generation made may be shared with a frozen copy.
	gen uint64
}

// New returns an empty table sized for about hint entries.
func New[V any](hint int) *Table[V] {
	bits := uint(0)
	for (1<<bits)*chunkSize < hint {
		bits++
	}
	t := &Table[V]{}
	t.resize(bits)
	for i := range 1 << bits {
		*t.slot(i) = &chunk[V]{keys: make([]uint64, 0, hint>>bits), vals: make([]V, 0, hint>>bits)}
	}
	return t
}

// resize gives the table an empty directory for 1<<bits chunks, its
// pages made by the current generation; the caller fills every slot.
func (t *Table[V]) resize(bits uint) {
	t.shift = 64 - bits
	t.root = make([]*page[V], max(1, (1<<bits)/pageChunks))
	for i := range t.root {
		t.root[i] = &page[V]{gen: t.gen}
	}
}

// Gen returns the table's generation, the number of freezes so far.
// Writes made now belong to it: the next Freeze's copy holds them, and
// writes after that Freeze belong to the next generation.
func (t *Table[V]) Gen() uint64 { return t.gen }

// Freeze returns an immutable copy of the table. Every page and chunk
// is then shared, so the writer's next write to each clones it first.
func (t *Table[V]) Freeze() Frozen[V] {
	f := t.Frozen
	f.root = slices.Clone(t.root)
	t.gen++
	return f
}

// writable returns chunk i with room for extra more entries, cloning
// its page and then the chunk first if a frozen copy may share them.
func (t *Table[V]) writable(i, extra int) *chunk[V] {
	p := t.root[i/pageChunks]
	if p.gen != t.gen {
		p = &page[V]{gen: t.gen, chunks: p.chunks}
		t.root[i/pageChunks] = p
	}
	s := &p.chunks[i%pageChunks]
	if (*s).gen != t.gen {
		*s = (*s).clone(t.gen, extra)
	}
	return *s
}

// Set stores v under k.
func (t *Table[V]) Set(k uint64, v V) {
	ci := t.index(k)
	i, ok := slices.BinarySearch((*t.slot(ci)).keys, k)
	if ok {
		t.writable(ci, 0).vals[i] = v
		return
	}
	if t.n >= chunkSize<<(64-t.shift) {
		t.grow()
		ci = t.index(k)
		i, _ = slices.BinarySearch((*t.slot(ci)).keys, k)
	}
	c := t.writable(ci, 1)
	c.keys = slices.Insert(c.keys, i, k)
	c.vals = slices.Insert(c.vals, i, v)
	t.n++
}

// Del removes k; deleting an absent key clones nothing.
func (t *Table[V]) Del(k uint64) {
	ci := t.index(k)
	i, ok := slices.BinarySearch((*t.slot(ci)).keys, k)
	if !ok {
		return
	}
	c := t.writable(ci, 0)
	c.keys = slices.Delete(c.keys, i, i+1)
	c.vals = slices.Delete(c.vals, i, i+1)
	t.n--
}

// grow doubles the chunk count, splitting chunk i into chunks 2i and
// 2i+1 (one more top hash bit). A split keeps each half's keys in
// their order, so they need no sort. The old pages and chunks are left
// as they are for any frozen copy still holding them.
func (t *Table[V]) grow() {
	old := t.Frozen
	bits := 64 - t.shift
	t.resize(bits + 1)
	for i := range 1 << bits {
		c := *old.slot(i)
		odd := 0
		for _, k := range c.keys {
			odd += t.index(k) & 1
		}
		halves := [2]*chunk[V]{
			{gen: t.gen, keys: make([]uint64, 0, len(c.keys)-odd), vals: make([]V, 0, len(c.keys)-odd)},
			{gen: t.gen, keys: make([]uint64, 0, odd), vals: make([]V, 0, odd)},
		}
		for j, k := range c.keys {
			h := halves[t.index(k)&1]
			h.keys = append(h.keys, k)
			h.vals = append(h.vals, c.vals[j])
		}
		*t.slot(2 * i) = halves[0]
		*t.slot(2*i + 1) = halves[1]
	}
}
