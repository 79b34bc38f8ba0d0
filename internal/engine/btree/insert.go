package btree

import (
	"sort"

	"hstoragedb/internal/simclock"
)

// Insert adds (key, rid) to the tree, splitting nodes as needed. Index
// maintenance during RF1 runs with the updating query's plan level.
func (t *Tree) Insert(clk *simclock.Clock, e Entry, level int) error {
	root, pages, err := t.readMeta(clk, level)
	if err != nil {
		return err
	}

	newChild, sepKey, newPages, err := t.insertInto(clk, root, e, level, pages)
	if err != nil {
		return err
	}
	pages = newPages
	if newChild >= 0 {
		// Root split: grow the tree by one level.
		img := image(nodeInternal, 1, root)
		putSep(img[internalHeader:], sepKey, newChild)
		newRoot := pages
		pages++
		if err := t.pool.Put(clk, t.tag(level), newRoot, img); err != nil {
			return err
		}
		root = newRoot
	}
	return t.writeMeta(clk, root, pages)
}

// insertInto inserts into the subtree rooted at page. On split it returns
// the new right sibling's page number and separator key; otherwise the
// returned page is -1. It threads the tree's page count through for new
// allocations.
func (t *Tree) insertInto(clk *simclock.Clock, page int64, e Entry, level int, pages int64) (int64, int64, int64, error) {
	n, err := t.openNode(clk, page, level)
	if err != nil {
		return -1, 0, pages, err
	}

	var img []byte
	if n.leaf {
		// Before the first entry ordered at or after e by key, page, slot.
		idx := sort.Search(n.count, func(i int) bool {
			le := n.entry(i)
			if le.Key != e.Key {
				return le.Key > e.Key
			}
			if le.RID.Page != e.RID.Page {
				return le.RID.Page > e.RID.Page
			}
			return le.RID.Slot >= e.RID.Slot
		})
		var w [leafEntrySize]byte
		putEntry(w[:], e)
		if n.count < LeafCap {
			return -1, 0, pages, t.edit(clk, level, page, n, idx, w[:])
		}
		img = n.splice(idx, 0, w[:])
	} else {
		idx := n.rank(e.Key, true)
		newChild, sepKey, newPages, err := t.insertInto(clk, n.child(idx), e, level, pages)
		pages = newPages
		if err != nil || newChild < 0 {
			return -1, 0, pages, err
		}
		// Child split: install the separator.
		var w [internalEntrySize]byte
		putSep(w[:], sepKey, newChild)
		img = n.splice(idx, 0, w[:])
		if n.count < InternalCap {
			return -1, 0, pages, t.pool.Put(clk, t.tag(level), page, img)
		}
	}
	// Split the overfull image; the right sibling is written first.
	full := node{data: img, count: n.count + 1, leaf: n.leaf}
	rightPage := pages
	pages++
	left, right, sep := full.split(rightPage)
	if err := t.pool.Put(clk, t.tag(level), rightPage, right); err != nil {
		return -1, 0, pages, err
	}
	if err := t.pool.Put(clk, t.tag(level), page, left); err != nil {
		return -1, 0, pages, err
	}
	return rightPage, sep, pages, nil
}

// DeleteEntry removes the single entry (key, rid), returning whether it
// was found. Used by RF2 to maintain secondary indexes whose keys are
// shared by many rows.
func (t *Tree) DeleteEntry(clk *simclock.Clock, e Entry, level int) (bool, error) {
	page, err := t.descend(clk, e.Key, level)
	if err != nil {
		return false, err
	}
	for page >= 0 {
		leaf, err := t.openNode(clk, page, level)
		if err != nil {
			return false, err
		}
		i := leaf.rank(e.Key, false)
		for ; i < leaf.count && leaf.key(i) == e.Key; i++ {
			if leaf.entry(i).RID == e.RID {
				return true, t.pool.Put(clk, t.tag(level), page, leaf.splice(i, 1, nil))
			}
		}
		if i < leaf.count {
			return false, nil // past the key
		}
		page = leaf.next()
	}
	return false, nil
}

// Delete removes every entry with the given key (lazy deletion: leaves may
// underflow; no rebalancing). It returns the number of entries removed.
func (t *Tree) Delete(clk *simclock.Clock, key int64, level int) (int, error) {
	page, err := t.descend(clk, key, level)
	if err != nil {
		return 0, err
	}
	removed := 0
	for page >= 0 {
		leaf, err := t.openNode(clk, page, level)
		if err != nil {
			return removed, err
		}
		lo := leaf.rank(key, false)
		hi := lo
		for hi < leaf.count && leaf.key(hi) == key {
			hi++
		}
		if hi > lo {
			removed += hi - lo
			if err := t.pool.Put(clk, t.tag(level), page, leaf.splice(lo, hi-lo, nil)); err != nil {
				return removed, err
			}
		}
		if hi < leaf.count {
			break // past the key
		}
		// Duplicates may spill into the next leaf.
		page = leaf.next()
	}
	return removed, nil
}
