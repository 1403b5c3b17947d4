package assign

import "reflect"

// CaptureChunks returns the identities (map pointers) of the chunks of
// the frozen tables view v reads: the object table's, the function
// table's, and the pair table's. External tests compare them across
// epochs to check that a capture shares every chunk its epoch left
// unwritten.
func CaptureChunks(v *View) (objs, funcs, pairs []uintptr) {
	return chunkIDs(&v.pub.obj.objs), chunkIDs(&v.pub.funcs), chunkIDs(&v.pub.byFunc)
}

// chunkIDs reads a frozen table's chunk maps (unexported in package
// cow) through reflection.
func chunkIDs(t any) []uintptr {
	chunks := reflect.ValueOf(t).Elem().FieldByName("chunks")
	ids := make([]uintptr, chunks.Len())
	for i := range ids {
		ids[i] = chunks.Index(i).Pointer()
	}
	return ids
}

// ObjectCapture returns the identities of the object capture view v
// composes and of the page snapshot that capture pins, so external
// tests can check which epochs share one.
func ObjectCapture(v *View) (capture, snap uintptr) {
	return reflect.ValueOf(v.pub.obj).Pointer(), reflect.ValueOf(v.pub.obj.snap).Pointer()
}
