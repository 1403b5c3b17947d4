package assign

// PartitionCapture returns the capture view v holds for object partition
// i. External tests compare captures across views to check that a commit
// re-captured exactly the partitions it changed.
func PartitionCapture(v *View, i int) any { return v.pub.parts[i] }
