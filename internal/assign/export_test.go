package assign

import "reflect"

// CaptureChunks returns the identities (chunk pointers) of the chunks
// of the frozen tables view v reads: the object table's, the function
// table's, and the pair table's. External tests compare them across
// epochs to check that a capture shares every chunk its epoch left
// unwritten.
func CaptureChunks(v *View) (objs, funcs, pairs []uintptr) {
	return chunkIDs(&v.pub.obj.objs), chunkIDs(&v.pub.funcs), chunkIDs(&v.pub.byFunc)
}

// chunkIDs walks a frozen table's directory (unexported in package
// cow) through reflection: the chunk pointers of every root page, in
// directory order.
func chunkIDs(t any) []uintptr {
	var ids []uintptr
	root := reflect.ValueOf(t).Elem().FieldByName("root")
	for i := range root.Len() {
		chunks := root.Index(i).Elem().FieldByName("chunks")
		for j := range chunks.Len() {
			if c := chunks.Index(j); !c.IsNil() {
				ids = append(ids, c.Pointer())
			}
		}
	}
	return ids
}

// ObjectCapture returns the identities of the object capture view v
// composes and of the page snapshot that capture pins, so external
// tests can check which epochs share one.
func ObjectCapture(v *View) (capture, snap uintptr) {
	return reflect.ValueOf(v.pub.obj).Pointer(), reflect.ValueOf(v.pub.obj.snap).Pointer()
}
