package btree

// The reference the node edits are checked against: the B-tree's write
// path as it was when every node on it was decoded into a leafNode or
// internalNode and re-encoded whole. TestEditsMatchDecodeEncode runs one
// operation stream through both and requires byte-equal pages.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"hstoragedb/internal/engine/bufferpool"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/simclock"
)

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

// readNode reads a page and decodes it.
func (t *Tree) readNode(clk *simclock.Clock, page int64, level int) (*leafNode, *internalNode, error) {
	data, err := t.pool.Get(clk, t.tag(level), page)
	if err != nil {
		return nil, nil, err
	}
	return decodeNode(data)
}

// refInsert is Insert as it was, decode and encode: it adds (key, rid) to the tree, splitting nodes as needed. Index
// maintenance during RF1 runs with the updating query's plan level.
func (t *Tree) refInsert(clk *simclock.Clock, e Entry, level int) error {
	root, pages, err := t.readMeta(clk, level)
	if err != nil {
		return err
	}

	newChild, sepKey, newPages, err := t.refInsertInto(clk, root, e, level, pages)
	if err != nil {
		return err
	}
	pages = newPages
	if newChild >= 0 {
		// Root split: grow the tree by one level.
		n := &internalNode{children: []int64{root, newChild}, keys: []int64{sepKey}}
		newRoot := pages
		pages++
		if err := t.pool.Put(clk, t.tag(level), newRoot, encodeInternal(n)); err != nil {
			return err
		}
		root = newRoot
	}
	return t.writeMeta(clk, root, pages)
}

// refInsertInto inserts into the subtree rooted at page. On split it returns
// the new right sibling's page number and separator key; otherwise the
// returned page is -1. It threads the tree's page count through for new
// allocations.
func (t *Tree) refInsertInto(clk *simclock.Clock, page int64, e Entry, level int, pages int64) (int64, int64, int64, error) {
	leaf, internal, err := t.readNode(clk, page, level)
	if err != nil {
		return -1, 0, pages, err
	}

	if leaf != nil {
		idx := sort.Search(len(leaf.entries), func(i int) bool {
			le := leaf.entries[i]
			if le.Key != e.Key {
				return le.Key > e.Key
			}
			if le.RID.Page != e.RID.Page {
				return le.RID.Page > e.RID.Page
			}
			return le.RID.Slot >= e.RID.Slot
		})
		leaf.entries = append(leaf.entries, Entry{})
		copy(leaf.entries[idx+1:], leaf.entries[idx:])
		leaf.entries[idx] = e

		if len(leaf.entries) <= LeafCap {
			return -1, 0, pages, t.pool.Put(clk, t.tag(level), page, encodeLeaf(leaf))
		}
		// Split the leaf.
		mid := len(leaf.entries) / 2
		right := &leafNode{next: leaf.next, entries: append([]Entry(nil), leaf.entries[mid:]...)}
		rightPage := pages
		pages++
		leaf.entries = leaf.entries[:mid]
		leaf.next = rightPage
		if err := t.pool.Put(clk, t.tag(level), rightPage, encodeLeaf(right)); err != nil {
			return -1, 0, pages, err
		}
		if err := t.pool.Put(clk, t.tag(level), page, encodeLeaf(leaf)); err != nil {
			return -1, 0, pages, err
		}
		return rightPage, right.entries[0].Key, pages, nil
	}

	idx := sort.Search(len(internal.keys), func(i int) bool { return internal.keys[i] > e.Key })
	newChild, sepKey, newPages, err := t.refInsertInto(clk, internal.children[idx], e, level, pages)
	pages = newPages
	if err != nil || newChild < 0 {
		return -1, 0, pages, err
	}

	// Child split: install the separator.
	internal.keys = append(internal.keys, 0)
	copy(internal.keys[idx+1:], internal.keys[idx:])
	internal.keys[idx] = sepKey
	internal.children = append(internal.children, 0)
	copy(internal.children[idx+2:], internal.children[idx+1:])
	internal.children[idx+1] = newChild

	if len(internal.keys) <= InternalCap {
		return -1, 0, pages, t.pool.Put(clk, t.tag(level), page, encodeInternal(internal))
	}
	// Split the internal node; the middle key moves up.
	mid := len(internal.keys) / 2
	upKey := internal.keys[mid]
	right := &internalNode{
		keys:     append([]int64(nil), internal.keys[mid+1:]...),
		children: append([]int64(nil), internal.children[mid+1:]...),
	}
	internal.keys = internal.keys[:mid]
	internal.children = internal.children[:mid+1]
	rightPage := pages
	pages++
	if err := t.pool.Put(clk, t.tag(level), rightPage, encodeInternal(right)); err != nil {
		return -1, 0, pages, err
	}
	if err := t.pool.Put(clk, t.tag(level), page, encodeInternal(internal)); err != nil {
		return -1, 0, pages, err
	}
	return rightPage, upKey, pages, nil
}

// refDeleteEntry is DeleteEntry as it was: it removes the single entry (key, rid), returning whether it
// was found. Used by RF2 to maintain secondary indexes whose keys are
// shared by many rows.
func (t *Tree) refDeleteEntry(clk *simclock.Clock, e Entry, level int) (bool, error) {
	page, err := t.descend(clk, e.Key, level)
	if err != nil {
		return false, err
	}
	for page >= 0 {
		leaf, _, err := t.readNode(clk, page, level)
		if err != nil {
			return false, err
		}
		past := false
		for i, le := range leaf.entries {
			if le.Key == e.Key && le.RID == e.RID {
				leaf.entries = append(leaf.entries[:i], leaf.entries[i+1:]...)
				return true, t.pool.Put(clk, t.tag(level), page, encodeLeaf(leaf))
			}
			if le.Key > e.Key {
				past = true
				break
			}
		}
		if past || leaf.next < 0 {
			return false, nil
		}
		page = leaf.next
	}
	return false, nil
}

// refDelete is Delete as it was: it removes every entry with the given key (lazy deletion: leaves may
// underflow; no rebalancing). It returns the number of entries removed.
func (t *Tree) refDelete(clk *simclock.Clock, key int64, level int) (int, error) {
	page, err := t.descend(clk, key, level)
	if err != nil {
		return 0, err
	}
	removed := 0
	for page >= 0 {
		leaf, _, err := t.readNode(clk, page, level)
		if err != nil {
			return removed, err
		}
		kept := leaf.entries[:0]
		before := len(leaf.entries)
		past := false
		for _, e := range leaf.entries {
			if e.Key == key {
				continue
			}
			if e.Key > key {
				past = true
			}
			kept = append(kept, e)
		}
		leaf.entries = kept
		if len(kept) != before {
			removed += before - len(kept)
			if err := t.pool.Put(clk, t.tag(level), page, encodeLeaf(leaf)); err != nil {
				return removed, err
			}
		}
		if past || leaf.next < 0 {
			break
		}
		// Duplicates may spill into the next leaf.
		page = leaf.next
	}
	return removed, nil
}

// access is one pool access of a tree operation: Gets and Puts in order,
// with the image a Put installed.
type access struct {
	tag   policy.Tag
	page  int64
	write bool
	img   []byte
}

// recorder logs every access a harness's clock makes to its pool.
func recorder(h *harness) *[]access {
	log := &[]access{}
	h.pool.BindTxn(&h.clk, &bufferpool.TxnHooks{
		ID: 1,
		Acquire: func(tag policy.Tag, page int64, write bool) error {
			*log = append(*log, access{tag: tag, page: page, write: write})
			return nil
		},
		Capture: func(_ policy.Tag, _ int64, _ []byte, _ bool, post []byte) bool {
			(*log)[len(*log)-1].img = post
			return false
		},
	})
	return log
}

// sameImage fails unless got equals want byte for byte, with the same
// length and capacity.
func sameImage(t testing.TB, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) || len(got) != len(want) || cap(got) != cap(want) {
		t.Fatalf("%s: image of %d bytes (cap %d), reference %d (cap %d)\n got %x\nwant %x",
			what, len(got), cap(got), len(want), cap(want), got, want)
	}
}

// editPair runs the node edits on one harness and the decode/encode
// reference on another, checking after every operation that both made the
// same Gets and Puts in the same order, with equal images.
type editPair struct {
	t          *testing.T
	edit, ref  *harness
	et, rt     *Tree
	elog, rlog *[]access
	splits     int // operations that wrote more than a leaf and the meta page
	walks      int // deletes that read on along the leaf chain
}

func newEditPair(t *testing.T, frames int, entries []Entry) *editPair {
	p := &editPair{t: t, edit: newHarnessFrames(t, frames), ref: newHarnessFrames(t, frames)}
	var err error
	if p.et, _, err = Build(&p.edit.clk, p.edit.pool, 1, append([]Entry(nil), entries...)); err != nil {
		t.Fatal(err)
	}
	if p.rt, _, err = Build(&p.ref.clk, p.ref.pool, 1, append([]Entry(nil), entries...)); err != nil {
		t.Fatal(err)
	}
	// Build writes images directly: each must be what the decoded node
	// encodes to. Every page is still in its frame, as Build put it.
	for page, pages := int64(1), p.pages(); page < pages; page++ {
		data, _ := p.get(page)
		l, in, err := decodeNode(data)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		if l != nil {
			want = encodeLeaf(l)
		} else {
			want = encodeInternal(in)
		}
		sameImage(t, fmt.Sprintf("built page %d", page), data, want)
	}
	p.elog, p.rlog = recorder(p.edit), recorder(p.ref)
	return p
}

// get reads page from both pools, in the same order on each so that they
// keep one LRU order.
func (p *editPair) get(page int64) (edit, ref []byte) {
	var clk simclock.Clock
	edit, err := p.edit.pool.Get(&clk, p.et.tag(0), page)
	if err != nil {
		p.t.Fatal(err)
	}
	if ref, err = p.ref.pool.Get(&clk, p.rt.tag(0), page); err != nil {
		p.t.Fatal(err)
	}
	return edit, ref
}

// pages is the trees' page count.
func (p *editPair) pages() int64 {
	meta, _ := p.get(0)
	_, pages, err := decodeMeta(meta)
	if err != nil {
		p.t.Fatal(err)
	}
	return pages
}

// check compares the two access logs of the last operation, then clears
// them; with all it also compares every page of both trees. Every change
// to a page is a Put, so equal Puts keep every page equal.
func (p *editPair) check(op string, all bool) {
	t := p.t
	t.Helper()
	e, r := *p.elog, *p.rlog
	if len(e) != len(r) {
		t.Fatalf("%s: %d pool accesses, reference %d", op, len(e), len(r))
	}
	puts, leaf, walked := 0, int64(-1), false
	for i := range e {
		if e[i].tag != r[i].tag || e[i].page != r[i].page || e[i].write != r[i].write {
			t.Fatalf("%s: access %d is %+v page %d (write %v), reference %+v page %d (write %v)",
				op, i, e[i].tag, e[i].page, e[i].write, r[i].tag, r[i].page, r[i].write)
		}
		if e[i].write {
			sameImage(t, fmt.Sprintf("%s: put %d (page %d)", op, i, e[i].page), e[i].img, r[i].img)
			puts++
		} else if leaf < 0 && i > 0 && e[i].page == e[i-1].page {
			leaf = e[i].page // a delete opens the leaf its descent ended on
		} else if leaf >= 0 && e[i].page != leaf {
			walked = true // and reads another after it
		}
	}
	if puts > 2 && strings.HasPrefix(op, "insert") {
		p.splits++
	}
	if walked && strings.HasPrefix(op, "delete") {
		p.walks++
	}
	*p.elog, *p.rlog = (*p.elog)[:0], (*p.rlog)[:0]
	if !all {
		return
	}
	for page, pages := int64(0), p.pages(); page < pages; page++ {
		if got, want := p.get(page); !bytes.Equal(got, want) {
			t.Fatalf("%s: page %d differs: %d bytes, reference %d", op, page, len(got), len(want))
		}
	}
}

func (p *editPair) insert(e Entry, all bool) {
	err, rerr := p.et.Insert(&p.edit.clk, e, 0), p.rt.refInsert(&p.ref.clk, e, 0)
	if err != nil || rerr != nil {
		p.t.Fatal(err, rerr)
	}
	p.check(fmt.Sprintf("insert %v", e), all)
}

func (p *editPair) deleteEntry(e Entry) {
	ok, err := p.et.DeleteEntry(&p.edit.clk, e, 0)
	rok, rerr := p.rt.refDeleteEntry(&p.ref.clk, e, 0)
	if err != nil || rerr != nil || ok != rok {
		p.t.Fatalf("DeleteEntry(%v) = %v, %v; reference %v, %v", e, ok, err, rok, rerr)
	}
	p.check(fmt.Sprintf("delete entry %v", e), true)
}

func (p *editPair) delete(key int64) {
	n, err := p.et.Delete(&p.edit.clk, key, 0)
	rn, rerr := p.rt.refDelete(&p.ref.clk, key, 0)
	if err != nil || rerr != nil || n != rn {
		p.t.Fatalf("Delete(%d) = %d, %v; reference %d, %v", key, n, err, rn, rerr)
	}
	p.check(fmt.Sprintf("delete key %d", key), true)
}

// TestEditsMatchDecodeEncode runs one seeded operation stream through the
// node edits and through the decode/encode reference. Every Get and Put
// must come in the same order with byte-equal images, so locks, log
// records and simulated time cannot tell the two apart.
func TestEditsMatchDecodeEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	randRID := func() catalog.RID { return catalog.RID{Page: rng.Int63n(400), Slot: uint16(rng.Intn(50))} }

	t.Run("grown", func(t *testing.T) {
		// A pool of eight frames evicts, so nodes come back from the store
		// padded to a full page. Inserts over 300 keys split leaves and the
		// root leaf, and leave runs of duplicates across leaf boundaries;
		// a mixed stream then deletes along them.
		p := newEditPair(t, 8, nil)
		var live []Entry
		for i := 0; i < 3000; i++ {
			e := Entry{Key: int64(rng.Intn(300)), RID: randRID()}
			p.insert(e, true)
			live = append(live, e)
		}
		// Walked on both sides, so both pools keep one LRU order.
		if len(spanningRuns(t, p.edit, p.et)) == 0 || len(spanningRuns(t, p.ref, p.rt)) == 0 {
			t.Fatal("no run of duplicates spans two leaves")
		}
		p.check("walk the leaf chain", true)
		for i := 0; i < 1500; i++ {
			switch r := rng.Intn(10); {
			case r < 4:
				e := Entry{Key: int64(rng.Intn(300)), RID: randRID()}
				p.insert(e, true)
				live = append(live, e)
			case r < 8 && len(live) > 0:
				j := rng.Intn(len(live))
				p.deleteEntry(live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			case r < 9:
				p.deleteEntry(Entry{Key: int64(rng.Intn(310) - 5), RID: randRID()})
			default:
				p.delete(int64(rng.Intn(310) - 5))
			}
		}
		if p.splits == 0 || p.walks == 0 {
			t.Fatalf("stream made %d splitting inserts and %d deletes across leaves", p.splits, p.walks)
		}
	})

	t.Run("internal", func(t *testing.T) {
		// A built root holds 459 children at 90 % fill; appending past the
		// largest key splits the rightmost leaf until the root itself
		// splits and the tree grows a level.
		entries := make([]Entry, 0, 459*(LeafCap*9/10))
		for i := 0; i < cap(entries); i++ {
			entries = append(entries, Entry{Key: int64(i / 2), RID: rid(int64(i))})
		}
		p := newEditPair(t, 1024, entries)
		meta0, _ := p.get(0)
		key := int64(len(entries))
		for i := 0; ; i++ {
			p.insert(Entry{Key: key + int64(i/3), RID: randRID()}, i%1000 == 0)
			if meta, _ := p.get(0); !bytes.Equal(meta[4:12], meta0[4:12]) {
				break
			}
		}
		for i := 0; i < 50; i++ {
			p.delete(key + int64(rng.Intn(5000)))
		}
		p.check("end", true)
	})
}

// FuzzNodeEdits: arbitrary page bytes are either rejected by openNode as
// by decodeNode, or splice and split them exactly as the reference's
// decode, slice edit and encode do.
func FuzzNodeEdits(f *testing.F) {
	leaf := encodeLeaf(&leafNode{next: 9, entries: []Entry{{1, rid(1)}, {1, rid(2)}, {5, rid(3)}}})
	internal := encodeInternal(&internalNode{children: []int64{4, 5, 6}, keys: []int64{10, 20}})
	for _, seed := range [][]byte{
		leaf, internal, append(leaf, make([]byte, 40)...), encodeLeaf(&leafNode{next: -1}),
		encodeInternal(&internalNode{children: []int64{3}}), leaf[:len(leaf)-1], {2, 0, 0}, nil,
	} {
		f.Add(seed, uint16(1), int64(7), int64(3))
	}
	f.Fuzz(func(t *testing.T, data []byte, pos uint16, key, word int64) {
		n, err := openNode(data)
		l, in, rerr := decodeNode(data)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("openNode: %v, decodeNode: %v", err, rerr)
		}
		if err != nil {
			return
		}
		p := int(pos) % (n.count + 1)
		if !n.leaf {
			sameImage(t, "copy", n.splice(0, 0, nil), encodeInternal(in))
			var w [internalEntrySize]byte
			putSep(w[:], key, word)
			got := n.splice(p, 0, w[:])
			keys := append(append(append([]int64(nil), in.keys[:p]...), key), in.keys[p:]...)
			children := append(append(append([]int64(nil), in.children[:p+1]...), word), in.children[p+1:]...)
			sameImage(t, "insert", got, encodeInternal(&internalNode{children: children, keys: keys}))
			left, right, sep := node{data: got, count: n.count + 1}.split(word)
			mid := len(keys) / 2
			sameImage(t, "left", left, encodeInternal(&internalNode{children: children[:mid+1], keys: keys[:mid]}))
			sameImage(t, "right", right, encodeInternal(&internalNode{children: children[mid+1:], keys: keys[mid+1:]}))
			if sep != keys[mid] {
				t.Fatalf("separator %d, reference %d", sep, keys[mid])
			}
			return
		}
		sameImage(t, "copy", n.splice(0, 0, nil), encodeLeaf(l))
		e := Entry{Key: key, RID: catalog.RID{Page: word, Slot: pos}}
		var w [leafEntrySize]byte
		putEntry(w[:], e)
		got := n.splice(p, 0, w[:])
		entries := append(append(append([]Entry(nil), l.entries[:p]...), e), l.entries[p:]...)
		sameImage(t, "insert", got, encodeLeaf(&leafNode{next: l.next, entries: entries}))
		left, right, sep := node{data: got, count: n.count + 1, leaf: true}.split(word)
		mid := len(entries) / 2
		sameImage(t, "left", left, encodeLeaf(&leafNode{next: word, entries: entries[:mid]}))
		sameImage(t, "right", right, encodeLeaf(&leafNode{next: l.next, entries: entries[mid:]}))
		if sep != entries[mid].Key {
			t.Fatalf("separator %d, reference %d", sep, entries[mid].Key)
		}
		if n.count > 0 {
			p := int(pos) % n.count
			del := 1 + int(uint64(key)%uint64(n.count-p))
			kept := append(append([]Entry(nil), l.entries[:p]...), l.entries[p+del:]...)
			sameImage(t, "delete", n.splice(p, del, nil), encodeLeaf(&leafNode{next: l.next, entries: kept}))
		}
	})
}
