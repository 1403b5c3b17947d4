package assign

import "reflect"

// PartitionCapture returns the capture view v holds for object partition
// i. External tests compare captures across views to check that a commit
// re-captured exactly the partitions it changed.
func PartitionCapture(v *View, i int) any { return v.pub.parts[i] }

// CaptureChunks returns the identities (map pointers) of the chunks of
// the frozen tables view v reads: every object partition's chunks, the
// function table's, and the pair table's. External tests compare them
// across epochs to check that a capture shares every chunk its epoch
// left unwritten.
func CaptureChunks(v *View) (objs, funcs, pairs []uintptr) {
	for _, pp := range v.pub.parts {
		objs = append(objs, chunkIDs(&pp.objs)...)
	}
	return objs, chunkIDs(&v.pub.funcs), chunkIDs(&v.pub.byFunc)
}

func chunkIDs[V any](t *frozenTable[V]) []uintptr {
	ids := make([]uintptr, len(t.chunks))
	for i, c := range t.chunks {
		ids[i] = reflect.ValueOf(c).Pointer()
	}
	return ids
}
