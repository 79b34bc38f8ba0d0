package hybrid

import "hstoragedb/internal/dss"

// blockMeta is the cache's per-block metadata: one entry in the lookup
// hash table (Section 5.2, <lbn, <pbn, prio>>) that is simultaneously a
// node of one of its policy's intrusive LRU lists.
type blockMeta struct {
	lbn    int64
	pbn    int64
	class  int // the policy's list the entry is on: a priority group, an ARC list
	dirty  bool
	tenant dss.TenantID // tenant the block's destage is billed to

	prev, next *blockMeta
}

// lruList is an intrusive doubly-linked list ordered from MRU (front) to
// LRU (back). The zero value must be initialized with init before use.
type lruList struct {
	root blockMeta // sentinel
	n    int
}

func (l *lruList) init() {
	l.root.prev = &l.root
	l.root.next = &l.root
	l.n = 0
}

func (l *lruList) len() int { return l.n }

// pushFront inserts b at the MRU position.
func (l *lruList) pushFront(b *blockMeta) {
	b.prev = &l.root
	b.next = l.root.next
	l.root.next.prev = b
	l.root.next = b
	l.n++
}

// remove unlinks b from the list.
func (l *lruList) remove(b *blockMeta) {
	b.prev.next = b.next
	b.next.prev = b.prev
	b.prev, b.next = nil, nil
	l.n--
}

// moveToFront marks b as most recently used.
func (l *lruList) moveToFront(b *blockMeta) {
	l.remove(b)
	l.pushFront(b)
}

// back returns the LRU entry, or nil if the list is empty.
func (l *lruList) back() *blockMeta {
	if l.n == 0 {
		return nil
	}
	return l.root.prev
}
