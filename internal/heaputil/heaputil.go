// Package heaputil provides a boxing-free binary heap over a plain slice.
//
// container/heap moves every element through an `any`, which heap-allocates
// one box per Push — on the hot best-first traversals (BBS, BRS) that
// is one allocation per R-tree entry visited and dominates the allocation
// profile once nodes themselves are cached. These generic helpers keep
// elements in the slice's own storage.
//
// The sift logic mirrors container/heap exactly (same comparison and swap
// sequence), so for identical push/pop sequences the heap layout — and
// therefore the pop order among equal keys — is bit-identical to the
// container/heap code it replaces. That keeps traversal orders, and with
// them the paper's I/O traces, unchanged.
package heaputil

// Push adds e to the heap. less must define a strict weak ordering; the
// element for which less holds against every other ends up at index 0.
func Push[T any](h *[]T, less func(a, b T) bool, e T) {
	*h = append(*h, e)
	up(*h, less, len(*h)-1)
}

// Pop removes and returns the top element (index 0). It must not be
// called on an empty heap.
func Pop[T any](h *[]T, less func(a, b T) bool) T {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	down(s[:n], less, 0)
	e := s[n]
	var zero T
	s[n] = zero // do not retain popped elements through the backing array
	*h = s[:n]
	return e
}

func up[T any](s []T, less func(a, b T) bool, j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !less(s[j], s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func down[T any](s []T, less func(a, b T) bool, i int) {
	n := len(s)
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && less(s[j2], s[j1]) {
			j = j2
		}
		if !less(s[j], s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
}
