package rtree

import "fairassign/internal/pagestore"

// Delete removes the item (matched by ID and point) from the tree,
// condensing underfull nodes and reinserting their orphaned entries, as in
// Guttman's original algorithm. It returns ErrNotFound if the item is not
// stored.
func (t *Tree) Delete(item Item) error {
	path, found, err := t.findLeaf(t.root, item, make([]pathElem, 0, t.height))
	if err != nil {
		return err
	}
	if !found {
		return ErrNotFound
	}
	// Condensation edits the path's nodes: give it private copies.
	for i := range path {
		path[i].node = path[i].node.clone()
	}
	leaf := path[len(path)-1].node
	idx := -1
	for i, e := range leaf.Entries {
		if e.ID == item.ID && e.Rect.Min.Equal(item.Point) {
			idx = i
			break
		}
	}
	if idx == -1 {
		return ErrNotFound
	}
	leaf.Entries = append(leaf.Entries[:idx], leaf.Entries[idx+1:]...)
	if err := t.condenseTree(path); err != nil {
		return err
	}
	t.size--
	return nil
}

// findLeaf appends to path the access path from node id down to the
// leaf containing the item, and reports whether it found one; on a miss
// path is returned as given. Unlike chooseSubtree it may explore several
// branches whose MBRs contain the point. It reads the shared cached
// nodes and copies none.
func (t *Tree) findLeaf(id pagestore.PageID, item Item, path []pathElem) ([]pathElem, bool, error) {
	n, err := t.ReadNode(id)
	if err != nil {
		return path, false, err
	}
	path = append(path, pathElem{node: n})
	if n.Leaf {
		for _, e := range n.Entries {
			if e.ID == item.ID && e.Rect.Min.Equal(item.Point) {
				return path, true, nil
			}
		}
		return path[:len(path)-1], false, nil
	}
	for i, e := range n.Entries {
		if !e.Rect.Contains(item.Point) {
			continue
		}
		path[len(path)-1].entryIdx = i
		var found bool
		if path, found, err = t.findLeaf(e.Child, item, path); found || err != nil {
			return path, found, err
		}
	}
	return path[:len(path)-1], false, nil
}

// orphan is a subtree (or leaf entry) detached during condensation that
// must be reinserted at its original level.
type orphan struct {
	entry Entry
	level int // 1 = leaf entry
}

// condenseTree ascends the deletion path: underfull nodes are removed and
// their entries queued for reinsertion; MBRs along the path shrink.
func (t *Tree) condenseTree(path []pathElem) error {
	var orphans []orphan
	for i := len(path) - 1; i >= 1; i-- {
		n := path[i].node
		parent := path[i-1].node
		minFill := t.minInternal
		level := len(path) - i
		if n.Leaf {
			minFill = t.minLeaf
		}
		if len(n.Entries) < minFill {
			// Drop n from its parent; queue entries for reinsertion.
			pi := path[i-1].entryIdx
			parent.Entries = append(parent.Entries[:pi], parent.Entries[pi+1:]...)
			for _, e := range n.Entries {
				orphans = append(orphans, orphan{entry: e, level: level})
			}
			if err := t.freeNode(n.Page); err != nil {
				return err
			}
		} else {
			if err := t.writeNode(n); err != nil {
				return err
			}
			parent.Entries[path[i-1].entryIdx].Rect = n.MBR()
		}
	}
	root := path[0].node
	if err := t.writeNode(root); err != nil {
		return err
	}

	// Shrink the root while it is an internal node with a single child.
	for {
		rn, err := t.ReadNode(t.root)
		if err != nil {
			return err
		}
		if rn.Leaf || len(rn.Entries) != 1 {
			break
		}
		child := rn.Entries[0].Child
		if err := t.freeNode(rn.Page); err != nil {
			return err
		}
		t.setRoot(child)
		t.height--
	}

	// Reinsert orphans. Leaf entries go back as normal inserts; subtree
	// entries are inserted at their original level, adjusted for any root
	// shrinking that happened above.
	for _, o := range orphans {
		level := o.level
		if level > t.height {
			level = t.height
		}
		if err := t.insertEntry(o.entry, level); err != nil {
			return err
		}
	}
	return nil
}
