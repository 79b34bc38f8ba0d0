// Package btree implements a disk-resident B+tree index over int64 keys,
// mapping each key to heap RIDs (duplicates allowed). All page accesses go
// through the buffer pool with an Index/Random semantic tag carrying the
// issuing operator's plan level, so index traffic classifies under Rule 2
// exactly like the table fetches it drives.
//
// Page 0 is a meta page holding the root pointer; node pages follow.
// Leaves are chained for range scans. Deletion is lazy (no rebalancing),
// which is sufficient for the RF2 update function.
//
// A node has one representation, its encoded page image: searches read it
// in the frame, and writes splice a new image from its bytes.
package btree

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

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

// ---- node images ----

// node is the one representation of a B-tree node: a validated view of
// its encoded page image. Search reads keys, children and entries by
// offset; Insert and Delete build a changed node as a new image spliced
// from the old one's bytes, except that an Insert into a leaf image its
// transaction already wrote splices in place (Tree.edit). Every other
// frame is immutable (see bufferpool.Get), so a node stays valid, as the
// image it was opened on, across later pool calls.
//
// Both kinds share one header, type(1) count(2) word(8), where the word is
// a leaf's right sibling (-1 at the end of the chain) or an internal
// node's child 0. Entry i follows at leafHeader + i*size: a leaf entry is
// key, RID page, RID slot; an internal entry is separator i and child i+1.
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
	switch data[0] {
	case nodeLeaf:
		n.leaf = true
	case nodeInternal:
	default:
		return node{}, fmt.Errorf("btree: unknown node type %d", data[0])
	}
	if n.end() > len(data) {
		return node{}, fmt.Errorf("btree: truncated node (%d entries)", n.count)
	}
	return n, nil
}

// size is the width of one entry.
func (n node) size() int {
	if n.leaf {
		return leafEntrySize
	}
	return internalEntrySize
}

// end is the image's length: a frame read back from the store carries
// padding beyond it, which no edit copies.
func (n node) end() int { return leafHeader + n.count*n.size() }

// i64 reads the little-endian word at off.
func (n node) i64(off int) int64 { return int64(binary.LittleEndian.Uint64(n.data[off:])) }

// next is a leaf's right sibling (-1 at the end of the chain).
func (n node) next() int64 { return n.i64(3) }

// key is entry i's key (a leaf key or a separator).
func (n node) key(i int) int64 { return n.i64(leafHeader + i*n.size()) }

// child is an internal node's child i: 0 sits in the header, i > 0
// follows separator i-1.
func (n node) child(i int) int64 {
	if i == 0 {
		return n.next()
	}
	return n.i64(internalHeader + (i-1)*internalEntrySize + 8)
}

// entry is a leaf's entry i.
func (n node) entry(i int) Entry {
	off := leafHeader + i*leafEntrySize
	return Entry{
		Key: n.i64(off),
		RID: catalog.RID{Page: n.i64(off + 8), Slot: binary.LittleEndian.Uint16(n.data[off+16:])},
	}
}

// rank is the number of leading keys below key, or at or below it with
// orEqual. In a leaf it is the first entry >= key; in an internal node,
// the child left of the first separator >= key (where a search starts) or
// > key with orEqual (where an insert goes).
func (n node) rank(key int64, orEqual bool) int {
	lo, hi, size := 0, n.count, n.size()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if k := n.i64(leafHeader + mid*size); k < key || orEqual && k == key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// splice returns a new image of n, in one allocation, with del entries
// removed at i and the encoded entries ins put in their place. n's own
// image is left as it was: Tree.edit splices in place instead when the
// image is the bound transaction's own.
func (n node) splice(i, del int, ins []byte) []byte {
	off := leafHeader + i*n.size()
	buf := pagestore.NewPage(n.end() - del*n.size() + len(ins))[:0]
	buf = append(buf, n.data[:off]...)
	buf = append(buf, ins...)
	buf = append(buf, n.data[off+del*n.size():n.end()]...)
	binary.LittleEndian.PutUint16(buf[1:], uint16(n.count-del+len(ins)/n.size()))
	return buf
}

// cut returns a new image of entries [from, to) of n under header word.
func (n node) cut(from, to int, word int64) []byte {
	buf := image(n.data[0], to-from, word)
	copy(buf[leafHeader:], n.data[leafHeader+from*n.size():leafHeader+to*n.size()])
	return buf
}

// split cuts an overfull node in two. A leaf keeps entries [0, mid) and
// chains to rightPage; the right half starts with the separator. An
// internal node's middle separator moves up, and its child becomes the
// right half's child 0.
func (n node) split(rightPage int64) (left, right []byte, sep int64) {
	mid := n.count / 2
	if n.leaf {
		return n.cut(0, mid, rightPage), n.cut(mid, n.count, n.next()), n.key(mid)
	}
	return n.cut(0, mid, n.next()), n.cut(mid+1, n.count, n.child(mid+1)), n.key(mid)
}

// image allocates a node image of count entries under a set header; the
// entries are the caller's to fill.
func image(typ byte, count int, word int64) []byte {
	buf := pagestore.NewPage(leafHeader + count*node{leaf: typ == nodeLeaf}.size())
	buf[0] = typ
	binary.LittleEndian.PutUint16(buf[1:], uint16(count))
	binary.LittleEndian.PutUint64(buf[3:], uint64(word))
	return buf
}

// putEntry encodes a leaf entry into b.
func putEntry(b []byte, e Entry) {
	binary.LittleEndian.PutUint64(b, uint64(e.Key))
	binary.LittleEndian.PutUint64(b[8:], uint64(e.RID.Page))
	binary.LittleEndian.PutUint16(b[16:], e.RID.Slot)
}

// putSep encodes an internal entry, a separator and the child right of
// it, into b.
func putSep(b []byte, key, child int64) {
	binary.LittleEndian.PutUint64(b, uint64(key))
	binary.LittleEndian.PutUint64(b[8:], uint64(child))
}

func encodeMeta(root int64, pages int64) []byte {
	buf := make([]byte, 20) // Put on every Insert: a page each costs more than the store's copy
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

// edit writes page's leaf n with the encoded entries ins put in at i.
// An image the stream's transaction installed since its first touch of
// the page is its own (bufferpool.Pool.Owned): the splice moves its bytes
// in place when the result fits. Any other image stays as it is, and the
// splice builds a new one.
func (t *Tree) edit(clk *simclock.Clock, level int, page int64, n node, i int, ins []byte) error {
	tag := t.tag(level)
	old := n.end()
	end := old + len(ins)
	if end > cap(n.data) || !t.pool.Owned(clk, tag, page, n.data) {
		return t.pool.Put(clk, tag, page, n.splice(i, 0, ins))
	}
	off := leafHeader + i*n.size()
	buf := n.data[:end]
	copy(buf[off+len(ins):], buf[off:old])
	copy(buf[off:], ins)
	binary.LittleEndian.PutUint16(buf[1:], uint16(n.count+len(ins)/n.size()))
	return t.pool.Put(clk, tag, page, buf)
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
	slices.SortFunc(entries, func(a, b Entry) int {
		if c := cmp.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		if c := cmp.Compare(a.RID.Page, b.RID.Page); c != 0 {
			return c
		}
		return cmp.Compare(a.RID.Slot, b.RID.Slot)
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
		if err := pool.Put(clk, t.tag(0), 1, image(nodeLeaf, 0, -1)); err != nil {
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
		img := image(nodeLeaf, end-i, next)
		for j, e := range entries[i:end] {
			putEntry(img[leafHeader+j*leafEntrySize:], e)
		}
		if err := pool.Put(clk, t.tag(0), page, img); err != nil {
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
			img := image(nodeInternal, len(group)-1, group[0].page)
			for j, c := range group[1:] {
				putSep(img[internalHeader+j*internalEntrySize:], c.firstKey, c.page)
			}
			page := nextPage
			nextPage++
			if err := pool.Put(clk, t.tag(0), page, img); err != nil {
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

// descend returns the page number of the first leaf that may contain key.
// A split or Build can leave a run of duplicates on both sides of a
// separator equal to their key, so a search goes left of it and walks
// the leaf chain from there.
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
		page = n.child(n.rank(key, false))
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
	*it = Iterator{t: t, clk: clk, level: level, hi: hi, leaf: leaf, idx: leaf.rank(lo, false)}
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
