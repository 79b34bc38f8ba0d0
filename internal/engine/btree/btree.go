// Package btree implements a disk-resident B+tree index over int64 keys,
// mapping each key to heap RIDs (duplicates allowed). All page accesses go
// through the buffer pool with an Index/Random semantic tag carrying the
// issuing operator's plan level, so index traffic classifies under Rule 2
// exactly like the table fetches it drives.
//
// Page 0 is a meta page holding the root pointer; node pages follow.
// Leaves are chained for range scans. Deletion is lazy (no rebalancing),
// which is sufficient for the RF2 update function.
package btree

import (
	"encoding/binary"
	"fmt"
	"sort"

	"hstoragedb/internal/engine/bufferpool"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/simclock"
)

const (
	metaMagic = 0x68535442 // "hSTB"

	nodeLeaf     = 0
	nodeInternal = 1

	// leaf entry: key(8) + page(8) + slot(2)
	leafEntrySize = 18
	// internal entry: key(8) + child(8); plus one leading child(8)
	internalEntrySize = 16

	leafHeader     = 1 + 2 + 8 // type, count, next
	internalHeader = 1 + 2 + 8 // type, count, child0

	// LeafCap and InternalCap are the fan-outs implied by the page size.
	LeafCap     = (pagestore.PageSize - leafHeader) / leafEntrySize
	InternalCap = (pagestore.PageSize - internalHeader) / internalEntrySize
)

// Entry is one indexed (key, rid) pair.
type Entry struct {
	Key int64
	RID catalog.RID
}

// Tree is a handle to an index stored under an object ID.
type Tree struct {
	Object pagestore.ObjectID
	pool   *bufferpool.Pool
}

// Open binds a tree handle to an index object.
func Open(obj pagestore.ObjectID, pool *bufferpool.Pool) *Tree {
	return &Tree{Object: obj, pool: pool}
}

func (t *Tree) tag(level int) policy.Tag {
	return policy.Tag{Object: t.Object, Content: policy.Index, Pattern: policy.Random, Level: level}
}

// ---- node encoding ----

type leafNode struct {
	next    int64
	entries []Entry
}

type internalNode struct {
	children []int64 // len(keys)+1
	keys     []int64
}

func encodeLeaf(n *leafNode) []byte {
	buf := make([]byte, leafHeader, leafHeader+len(n.entries)*leafEntrySize)
	buf[0] = nodeLeaf
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(n.entries)))
	binary.LittleEndian.PutUint64(buf[3:], uint64(n.next))
	var w [leafEntrySize]byte
	for _, e := range n.entries {
		binary.LittleEndian.PutUint64(w[0:], uint64(e.Key))
		binary.LittleEndian.PutUint64(w[8:], uint64(e.RID.Page))
		binary.LittleEndian.PutUint16(w[16:], e.RID.Slot)
		buf = append(buf, w[:]...)
	}
	return buf
}

func encodeInternal(n *internalNode) []byte {
	buf := make([]byte, internalHeader, internalHeader+len(n.keys)*internalEntrySize)
	buf[0] = nodeInternal
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(n.keys)))
	binary.LittleEndian.PutUint64(buf[3:], uint64(n.children[0]))
	var w [internalEntrySize]byte
	for i, k := range n.keys {
		binary.LittleEndian.PutUint64(w[0:], uint64(k))
		binary.LittleEndian.PutUint64(w[8:], uint64(n.children[i+1]))
		buf = append(buf, w[:]...)
	}
	return buf
}

func decodeNode(data []byte) (*leafNode, *internalNode, error) {
	if len(data) < leafHeader {
		return nil, nil, fmt.Errorf("btree: short node page")
	}
	count := int(binary.LittleEndian.Uint16(data[1:]))
	switch data[0] {
	case nodeLeaf:
		n := &leafNode{next: int64(binary.LittleEndian.Uint64(data[3:]))}
		n.entries = make([]Entry, count)
		off := leafHeader
		for i := 0; i < count; i++ {
			if off+leafEntrySize > len(data) {
				return nil, nil, fmt.Errorf("btree: truncated leaf entry %d", i)
			}
			n.entries[i] = Entry{
				Key: int64(binary.LittleEndian.Uint64(data[off:])),
				RID: catalog.RID{
					Page: int64(binary.LittleEndian.Uint64(data[off+8:])),
					Slot: binary.LittleEndian.Uint16(data[off+16:]),
				},
			}
			off += leafEntrySize
		}
		return n, nil, nil
	case nodeInternal:
		n := &internalNode{
			children: make([]int64, 1, count+1),
			keys:     make([]int64, count),
		}
		n.children[0] = int64(binary.LittleEndian.Uint64(data[3:]))
		off := internalHeader
		for i := 0; i < count; i++ {
			if off+internalEntrySize > len(data) {
				return nil, nil, fmt.Errorf("btree: truncated internal entry %d", i)
			}
			n.keys[i] = int64(binary.LittleEndian.Uint64(data[off:]))
			n.children = append(n.children, int64(binary.LittleEndian.Uint64(data[off+8:])))
			off += internalEntrySize
		}
		return nil, n, nil
	}
	return nil, nil, fmt.Errorf("btree: unknown node type %d", data[0])
}

// node is a validated view of an encoded node in its page frame: the
// search path reads keys, children and entries by offset instead of
// building a leafNode/internalNode (decodeNode stays for the paths that
// modify a node). Frames are immutable (see bufferpool.Get), so a node
// stays valid, as the image it was opened on, across later pool calls.
type node struct {
	data  []byte
	count int
	leaf  bool
}

// openNode checks the header and that count entries are present.
func openNode(data []byte) (node, error) {
	if len(data) < leafHeader {
		return node{}, fmt.Errorf("btree: short node page")
	}
	n := node{data: data, count: int(binary.LittleEndian.Uint16(data[1:]))}
	size := internalEntrySize
	switch data[0] {
	case nodeLeaf:
		n.leaf = true
		size = leafEntrySize
	case nodeInternal:
	default:
		return node{}, fmt.Errorf("btree: unknown node type %d", data[0])
	}
	if leafHeader+n.count*size > len(data) {
		return node{}, fmt.Errorf("btree: truncated node (%d entries)", n.count)
	}
	return n, nil
}

// i64 reads the little-endian word at off.
func (n node) i64(off int) int64 { return int64(binary.LittleEndian.Uint64(n.data[off:])) }

// next is a leaf's right sibling (-1 at the end of the chain).
func (n node) next() int64 { return n.i64(3) }

// entry is a leaf's entry i.
func (n node) entry(i int) Entry {
	off := leafHeader + i*leafEntrySize
	return Entry{
		Key: n.i64(off),
		RID: catalog.RID{Page: n.i64(off + 8), Slot: binary.LittleEndian.Uint16(n.data[off+16:])},
	}
}

// lowerBound is the first leaf entry with key >= key (count if none).
func (n node) lowerBound(key int64) int {
	lo, hi := 0, n.count
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.i64(leafHeader+mid*leafEntrySize) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childFor is the child of an internal node that may hold key: the one
// left of the first separator strictly greater than key.
func (n node) childFor(key int64) int64 {
	lo, hi := 0, n.count
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.i64(internalHeader+mid*internalEntrySize) <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// Child 0 sits in the header; child i > 0 follows separator i-1.
	if lo == 0 {
		return n.i64(3)
	}
	return n.i64(internalHeader + (lo-1)*internalEntrySize + 8)
}

func encodeMeta(root int64, pages int64) []byte {
	buf := make([]byte, 20)
	binary.LittleEndian.PutUint32(buf[0:], metaMagic)
	binary.LittleEndian.PutUint64(buf[4:], uint64(root))
	binary.LittleEndian.PutUint64(buf[12:], uint64(pages))
	return buf
}

func decodeMeta(data []byte) (root, pages int64, err error) {
	if len(data) < 20 || binary.LittleEndian.Uint32(data[0:]) != metaMagic {
		return 0, 0, fmt.Errorf("btree: bad meta page")
	}
	return int64(binary.LittleEndian.Uint64(data[4:])), int64(binary.LittleEndian.Uint64(data[12:])), nil
}

// ---- page I/O helpers ----

func (t *Tree) readMeta(clk *simclock.Clock, level int) (root, pages int64, err error) {
	data, err := t.pool.Get(clk, t.tag(level), 0)
	if err != nil {
		return 0, 0, err
	}
	return decodeMeta(data)
}

func (t *Tree) writeMeta(clk *simclock.Clock, root, pages int64) error {
	return t.pool.Put(clk, t.tag(0), 0, encodeMeta(root, pages))
}

func (t *Tree) readNode(clk *simclock.Clock, page int64, level int) (*leafNode, *internalNode, error) {
	data, err := t.pool.Get(clk, t.tag(level), page)
	if err != nil {
		return nil, nil, err
	}
	return decodeNode(data)
}

// openNode reads a page and opens the encoded node in its frame.
func (t *Tree) openNode(clk *simclock.Clock, page int64, level int) (node, error) {
	data, err := t.pool.Get(clk, t.tag(level), page)
	if err != nil {
		return node{}, err
	}
	return openNode(data)
}

// ---- bulk build ----

// Build constructs the tree from entries (sorted in place by key) and
// returns the number of pages written. Loads run on the caller's clock;
// experiment setup typically uses a scratch clock and resets statistics
// afterwards.
func Build(clk *simclock.Clock, pool *bufferpool.Pool, obj pagestore.ObjectID, entries []Entry) (*Tree, int64, error) {
	t := Open(obj, pool)
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Key != entries[j].Key {
			return entries[i].Key < entries[j].Key
		}
		if entries[i].RID.Page != entries[j].RID.Page {
			return entries[i].RID.Page < entries[j].RID.Page
		}
		return entries[i].RID.Slot < entries[j].RID.Slot
	})

	nextPage := int64(1)
	// Fill leaves to ~90% so RF1 inserts rarely split.
	leafFill := LeafCap * 9 / 10
	if leafFill < 1 {
		leafFill = 1
	}

	type childRef struct {
		firstKey int64
		page     int64
	}
	var level []childRef

	if len(entries) == 0 {
		// Empty tree: a single empty leaf as root.
		if err := pool.Put(clk, t.tag(0), 1, encodeLeaf(&leafNode{next: -1})); err != nil {
			return nil, 0, err
		}
		if err := t.writeMeta(clk, 1, 2); err != nil {
			return nil, 0, err
		}
		return t, 2, nil
	}

	// Leaf level.
	for i := 0; i < len(entries); {
		end := i + leafFill
		if end > len(entries) {
			end = len(entries)
		}
		page := nextPage
		nextPage++
		next := int64(-1)
		if end < len(entries) {
			next = nextPage // the following leaf
		}
		n := &leafNode{next: next, entries: entries[i:end]}
		if err := pool.Put(clk, t.tag(0), page, encodeLeaf(n)); err != nil {
			return nil, 0, err
		}
		level = append(level, childRef{firstKey: entries[i].Key, page: page})
		i = end
	}

	// Internal levels.
	fill := InternalCap * 9 / 10
	if fill < 2 {
		fill = 2
	}
	for len(level) > 1 {
		var up []childRef
		for i := 0; i < len(level); {
			end := i + fill
			if end > len(level) {
				end = len(level)
			}
			group := level[i:end]
			n := &internalNode{}
			n.children = append(n.children, group[0].page)
			for _, c := range group[1:] {
				n.keys = append(n.keys, c.firstKey)
				n.children = append(n.children, c.page)
			}
			page := nextPage
			nextPage++
			if err := pool.Put(clk, t.tag(0), page, encodeInternal(n)); err != nil {
				return nil, 0, err
			}
			up = append(up, childRef{firstKey: group[0].firstKey, page: page})
			i = end
		}
		level = up
	}

	if err := t.writeMeta(clk, level[0].page, nextPage); err != nil {
		return nil, 0, err
	}
	return t, nextPage, nil
}

// ---- search ----

// descend returns the page number of the leaf that may contain key.
func (t *Tree) descend(clk *simclock.Clock, key int64, level int) (int64, error) {
	root, _, err := t.readMeta(clk, level)
	if err != nil {
		return 0, err
	}
	page := root
	for {
		n, err := t.openNode(clk, page, level)
		if err != nil {
			return 0, err
		}
		if n.leaf {
			return page, nil
		}
		page = n.childFor(key)
	}
}

// Iterator walks leaf entries in key order within [lo, hi], reading each
// entry from the leaf's frame as it is consumed.
type Iterator struct {
	t     *Tree
	clk   *simclock.Clock
	level int
	hi    int64

	leaf node
	idx  int
	done bool
}

// Seek positions an iterator at the first entry with key >= lo, bounded
// above by hi (inclusive). The iterator's page fetches carry the plan
// level of the issuing operator.
func (t *Tree) Seek(clk *simclock.Clock, lo, hi int64, level int) (*Iterator, error) {
	it := &Iterator{}
	return it, t.seek(it, clk, lo, hi, level)
}

// seek is Seek into a caller-supplied iterator, which Lookup keeps on its
// stack.
func (t *Tree) seek(it *Iterator, clk *simclock.Clock, lo, hi int64, level int) error {
	page, err := t.descend(clk, lo, level)
	if err != nil {
		return err
	}
	leaf, err := t.openNode(clk, page, level)
	if err != nil {
		return err
	}
	if !leaf.leaf {
		return fmt.Errorf("btree: page %d turned internal under a seek", page)
	}
	*it = Iterator{t: t, clk: clk, level: level, hi: hi, leaf: leaf, idx: leaf.lowerBound(lo)}
	return nil
}

// Next returns the next entry in range; ok=false when exhausted.
func (it *Iterator) Next() (Entry, bool, error) {
	for !it.done {
		if it.idx < it.leaf.count {
			e := it.leaf.entry(it.idx)
			it.idx++
			if e.Key > it.hi {
				break
			}
			return e, true, nil
		}
		next := it.leaf.next()
		if next < 0 {
			break
		}
		leaf, err := it.t.openNode(it.clk, next, it.level)
		if err != nil {
			return Entry{}, false, err
		}
		if !leaf.leaf {
			return Entry{}, false, fmt.Errorf("btree: leaf chain reaches internal page %d", next)
		}
		it.leaf, it.idx = leaf, 0
	}
	it.done = true
	return Entry{}, false, nil
}

// Lookup returns all RIDs for an exact key. It allocates only the result.
func (t *Tree) Lookup(clk *simclock.Clock, key int64, level int) ([]catalog.RID, error) {
	var it Iterator
	if err := t.seek(&it, clk, key, key, level); err != nil {
		return nil, err
	}
	var out []catalog.RID
	for {
		e, ok, err := it.Next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, e.RID)
	}
}
