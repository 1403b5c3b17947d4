// Package cow holds the chunked copy-on-write hash table behind every
// workspace snapshot: the object, function and pair tables, and the
// page table of the versioned page store.
package cow

import (
	"iter"
	"maps"
)

// chunkSize is the average chunk occupancy past which a Table doubles
// its chunk count. It bounds the cost of the writer's first write to a
// chunk after a freeze (one chunk clone), while the chunk count bounds
// the cost of the freeze itself (one pointer per chunk).
const chunkSize = 64

// Frozen is the read side of a Table: a hash table from IDs to values
// split into a power-of-two number of chunks, each a small Go map. A
// frozen copy is one of these, and no writer touches its chunks again,
// so readers look values up without locks.
type Frozen[V any] struct {
	chunks []map[uint64]V
	shift  uint // 64 - log2(len(chunks)): the hash's top bits pick the chunk
	n      int
}

// chunkOf returns the index of the chunk holding key k (Fibonacci
// hashing: IDs are often dense, so they are mixed before the top bits
// pick the chunk).
func (t *Frozen[V]) chunkOf(k uint64) int {
	return int((k * 0x9E3779B97F4A7C15) >> t.shift)
}

// Get returns the value stored under k.
func (t *Frozen[V]) Get(k uint64) (V, bool) {
	v, ok := t.chunks[t.chunkOf(k)][k]
	return v, ok
}

// Len returns the number of entries.
func (t *Frozen[V]) Len() int { return t.n }

// All iterates the table in chunk order (and map order within a chunk).
func (t *Frozen[V]) All() iter.Seq2[uint64, V] {
	return func(yield func(uint64, V) bool) {
		for _, c := range t.chunks {
			for k, v := range c {
				if !yield(k, v) {
					return
				}
			}
		}
	}
}

// Table is a copy-on-write hash table: the writer's own storage for a
// table that snapshot readers read. Freeze hands out an immutable copy
// for the cost of copying the chunk-pointer array; the writer then
// clones a chunk on its first write to it after the freeze, so a
// capture costs O(chunks) pointer copies and a mutation O(changed
// chunks) clones, never O(entries). The table doubles its chunk count
// as it grows, keeping chunks near chunkSize entries without a size
// knob. Not safe for concurrent writers; readers use frozen copies.
type Table[V any] struct {
	Frozen[V]
	// gens[i] is the generation that created chunks[i]. Freeze bumps
	// gen, so every older chunk may be shared with a frozen copy.
	gens []uint64
	gen  uint64
}

// New returns an empty table sized for about hint entries.
func New[V any](hint int) *Table[V] {
	bits := uint(0)
	for (1<<bits)*chunkSize < hint {
		bits++
	}
	t := &Table[V]{gens: make([]uint64, 1<<bits)}
	t.chunks = make([]map[uint64]V, 1<<bits)
	t.shift = 64 - bits
	for i := range t.chunks {
		t.chunks[i] = make(map[uint64]V, hint>>bits)
	}
	return t
}

// Gen returns the table's generation, the number of freezes so far.
// Writes made now belong to it: the next Freeze's copy holds them, and
// writes after that Freeze belong to the next generation.
func (t *Table[V]) Gen() uint64 { return t.gen }

// Freeze returns an immutable copy of the table. Every chunk is then
// shared, so the writer's next write to each clones it first.
func (t *Table[V]) Freeze() Frozen[V] {
	f := t.Frozen
	f.chunks = append([]map[uint64]V(nil), t.chunks...)
	t.gen++
	return f
}

// writable returns key k's chunk, cloning it first if a frozen copy
// may share it.
func (t *Table[V]) writable(k uint64) map[uint64]V {
	i := t.chunkOf(k)
	if t.gens[i] != t.gen {
		t.chunks[i] = maps.Clone(t.chunks[i])
		t.gens[i] = t.gen
	}
	return t.chunks[i]
}

// Set stores v under k.
func (t *Table[V]) Set(k uint64, v V) {
	c := t.writable(k)
	if _, ok := c[k]; !ok {
		if t.n >= len(t.chunks)*chunkSize {
			t.grow()
			c = t.chunks[t.chunkOf(k)]
		}
		t.n++
	}
	c[k] = v
}

// Del removes k; deleting an absent key clones nothing.
func (t *Table[V]) Del(k uint64) {
	if _, ok := t.Get(k); ok {
		delete(t.writable(k), k)
		t.n--
	}
}

// grow doubles the chunk count, splitting chunk i into chunks 2i and
// 2i+1 (one more top hash bit). The old chunks are left as they are for
// any frozen copy still holding them.
func (t *Table[V]) grow() {
	chunks := make([]map[uint64]V, 2*len(t.chunks))
	t.gens = make([]uint64, len(chunks))
	for i := range chunks {
		chunks[i] = make(map[uint64]V, chunkSize/2)
		t.gens[i] = t.gen
	}
	t.shift--
	for _, c := range t.chunks {
		for k, v := range c {
			chunks[t.chunkOf(k)][k] = v
		}
	}
	t.chunks = chunks
}
