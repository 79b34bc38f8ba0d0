package bufferpool

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"
	"unsafe"

	"hstoragedb/internal/dss"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/engine/storagemgr"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/simclock"
)

type harness struct {
	store *pagestore.Store
	sys   hybrid.System
	mgr   *storagemgr.Manager
	clk   simclock.Clock
}

func newHarness(t testing.TB) *harness {
	t.Helper()
	store := pagestore.NewStore()
	if err := store.Create(1); err != nil {
		t.Fatal(err)
	}
	if err := store.Create(2); err != nil {
		t.Fatal(err)
	}
	sys, err := hybrid.New(hybrid.Config{Mode: hybrid.HStorage, CacheBlocks: 512})
	if err != nil {
		t.Fatal(err)
	}
	return &harness{
		store: store,
		sys:   sys,
		mgr:   storagemgr.New(store, sys, policy.NewAssignmentTable(dss.DefaultPolicySpace())),
	}
}

func tag(obj pagestore.ObjectID) policy.Tag {
	return policy.Tag{Object: obj, Content: policy.Table, Pattern: policy.Sequential}
}

// blockIO sums the blocks the storage system has read and written.
func blockIO(h *harness) (reads, writes int64) {
	for _, c := range h.sys.Stats().PerClass {
		reads += c.ReadBlocks
		writes += c.WriteBlocks
	}
	return reads, writes
}

func TestGetMissThenHit(t *testing.T) {
	h := newHarness(t)
	p := New(h.mgr, 4)
	if _, err := p.Get(&h.clk, tag(1), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(&h.clk, tag(1), 0); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats %+v", s)
	}
	// A buffer pool hit produces no storage traffic.
	if reads := h.sys.Stats().Class(dss.DefaultPolicySpace().Sequential()).Requests; reads != 1 {
		t.Fatalf("storage saw %d reads, want 1", reads)
	}
}

// TestWarmGetMissAllocatesNothing: once the pool is full, a Get miss on
// the heap store evicts a clean frame and reuses its entry, and the
// store plans the read without allocating, so the miss allocates
// nothing.
func TestWarmGetMissAllocatesNothing(t *testing.T) {
	const frames = 8
	h := newHarness(t)
	p := New(h.mgr, frames)
	page := int64(0)
	get := func() {
		if _, err := p.Get(&h.clk, tag(1), page%(4*frames)); err != nil {
			t.Fatal(err)
		}
		page++
	}
	for range 8 * frames {
		get()
	}
	before := p.Stats().Misses
	if n := testing.AllocsPerRun(200, get); n != 0 {
		t.Errorf("a warm Get miss allocates %.2f times, want 0", n)
	}
	if misses := p.Stats().Misses - before; misses != 201 {
		t.Fatalf("%d misses in 201 Gets", misses)
	}
}

// TestRecycledEntryIsANewFrame: the entry of a frame evicted clean
// serves the next page installed with nothing of the old frame but a
// higher version, so a FlushAll that snapshotted the old frame cannot
// clear the new one's dirty bit.
func TestRecycledEntryIsANewFrame(t *testing.T) {
	h := newHarness(t)
	p := New(h.mgr, 1)
	if _, err := p.Get(&h.clk, tag(1), 0); err != nil {
		t.Fatal(err)
	}
	old := p.table[key{obj: 1, page: 0}]
	oldVersion := old.version
	data := []byte{7}
	if err := p.Put(&h.clk, tag(2), 5, data); err != nil {
		t.Fatal(err)
	}
	e := p.table[key{obj: 2, page: 5}]
	if e != old {
		t.Fatal("the clean victim's entry was not reused")
	}
	if _, ok := p.table[key{obj: 1, page: 0}]; ok || len(p.table) != 1 {
		t.Fatalf("table holds %d frames", len(p.table))
	}
	if e.version <= oldVersion || !e.dirty || &e.data[0] != &data[0] || e.pins != 0 || e.verLSN != 0 {
		t.Fatalf("recycled entry %+v (old version %d)", e, oldVersion)
	}
}

func TestPutMakesDirtyAndWriteBack(t *testing.T) {
	h := newHarness(t)
	p := New(h.mgr, 2)
	data := make([]byte, 16)
	data[0] = 42
	if err := p.Put(&h.clk, tag(1), 0, data); err != nil {
		t.Fatal(err)
	}
	// Fill past capacity to force the dirty page out.
	if _, err := p.Get(&h.clk, tag(1), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(&h.clk, tag(1), 2); err != nil {
		t.Fatal(err)
	}
	if p.Stats().WriteBack != 1 {
		t.Fatalf("writebacks %d", p.Stats().WriteBack)
	}
	// The written page round-trips through the page store.
	got, _, err := h.store.Read(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Fatal("write-back lost data")
	}
}

func TestEvictionOrderIsLRU(t *testing.T) {
	h := newHarness(t)
	p := New(h.mgr, 2)
	_, _ = p.Get(&h.clk, tag(1), 0)
	_, _ = p.Get(&h.clk, tag(1), 1)
	_, _ = p.Get(&h.clk, tag(1), 0) // touch page 0
	_, _ = p.Get(&h.clk, tag(1), 2) // evicts page 1
	p.ResetStats()
	_, _ = p.Get(&h.clk, tag(1), 0)
	if p.Stats().Hits != 1 {
		t.Fatal("page 0 was evicted although recently used")
	}
	_, _ = p.Get(&h.clk, tag(1), 1)
	if p.Stats().Misses != 1 {
		t.Fatal("page 1 should have been the LRU victim")
	}
}

func TestFlushAllCleans(t *testing.T) {
	h := newHarness(t)
	p := New(h.mgr, 8)
	for i := int64(0); i < 5; i++ {
		if err := p.Put(&h.clk, tag(1), i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.FlushAll(&h.clk); err != nil {
		t.Fatal(err)
	}
	if h.store.Pages(1) != 5 {
		t.Fatalf("store has %d pages, want 5", h.store.Pages(1))
	}
	// A second flush writes nothing new.
	before := p.Stats().WriteBack
	if err := p.FlushAll(&h.clk); err != nil {
		t.Fatal(err)
	}
	if p.Stats().WriteBack != before {
		t.Fatal("clean pages rewritten")
	}
}

// writeLog is a page store that records the order pages are written in.
type writeLog struct {
	*pagestore.Store
	order []key
}

func (w *writeLog) Write(id pagestore.ObjectID, page int64, data []byte) ([]pagestore.Access, error) {
	w.order = append(w.order, key{obj: id, page: page})
	return w.Store.Write(id, page, data)
}

// FlushAll writes dirty frames back in ascending (object, page) order
// whatever order they were dirtied in: the frame table is a map, and its
// iteration order must not become the device's I/O order.
func TestFlushAllWritesInPageOrder(t *testing.T) {
	h := newHarness(t)
	store := &writeLog{Store: h.store}
	mgr := storagemgr.New(store, h.sys, policy.NewAssignmentTable(dss.DefaultPolicySpace()))
	p := New(mgr, 64)
	for _, k := range []key{{2, 7}, {1, 9}, {2, 0}, {1, 3}, {1, 12}, {2, 4}, {1, 0}, {2, 11}, {1, 6}, {2, 2}} {
		if err := p.Put(&h.clk, tag(k.obj), k.page, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.FlushAll(&h.clk); err != nil {
		t.Fatal(err)
	}
	if len(store.order) != 10 {
		t.Fatalf("%d pages written back, want 10", len(store.order))
	}
	for i := 1; i < len(store.order); i++ {
		a, b := store.order[i-1], store.order[i]
		if a.obj > b.obj || (a.obj == b.obj && a.page >= b.page) {
			t.Fatalf("write-back order not ascending: %v", store.order)
		}
	}
}

func TestInvalidateDropsWithoutWriteBack(t *testing.T) {
	h := newHarness(t)
	p := New(h.mgr, 8)
	_ = p.Put(&h.clk, policy.Tag{Object: 2, Content: policy.Temp}, 0, []byte{1})
	p.Invalidate(2)
	if p.Len() != 0 {
		t.Fatal("invalidated page still resident")
	}
	if err := p.FlushAll(&h.clk); err != nil {
		t.Fatal(err)
	}
	if h.store.Pages(2) != 0 {
		t.Fatal("dead temp page written back")
	}
}

func TestWriteBackClassification(t *testing.T) {
	h := newHarness(t)
	p := New(h.mgr, 8)
	// Temp content write-back must classify as temporary (priority 1);
	// table content as update (write buffer).
	_ = p.Put(&h.clk, policy.Tag{Object: 2, Content: policy.Temp}, 0, []byte{1})
	_ = p.Put(&h.clk, tag(1), 0, []byte{2})
	if err := p.FlushAll(&h.clk); err != nil {
		t.Fatal(err)
	}
	snap := h.sys.Stats()
	if snap.Class(dss.DefaultPolicySpace().Temporary()).WriteBlocks != 1 {
		t.Fatalf("temp write-back not classified: %+v", snap.PerClass)
	}
	if snap.Class(dss.ClassWriteBuffer).WriteBlocks != 1 {
		t.Fatalf("update write-back not classified: %+v", snap.PerClass)
	}
}

func TestDropAll(t *testing.T) {
	h := newHarness(t)
	p := New(h.mgr, 8)
	_, _ = p.Get(&h.clk, tag(1), 0)
	p.DropAll()
	if p.Len() != 0 {
		t.Fatal("DropAll left pages")
	}
	if p.Capacity() != 8 {
		t.Fatal("capacity changed")
	}
}

// TestFirstTouch holds the pool's first-touch record: a bound
// transaction's pending version is its undo image and redo base, and the
// frame pin its no-steal hold, until CommitVersions and Release or
// Rollback.
func TestFirstTouch(t *testing.T) {
	img := func(b byte) []byte { return bytes.Repeat([]byte{b}, 16) }
	type record struct {
		page      int64
		pre, post []byte
	}
	touched := func(t *testing.T, p *Pool, h *TxnHooks) []record {
		t.Helper()
		var got []record
		if err := p.Touched(h, func(obj pagestore.ObjectID, page int64, pre, post []byte) error {
			got = append(got, record{page, pre, post})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	bind := func(p *Pool, id int64) (*simclock.Clock, *TxnHooks) {
		clk, h := &simclock.Clock{}, &TxnHooks{ID: id}
		p.BindTxn(clk, h)
		return clk, h
	}
	put := func(t *testing.T, p *Pool, clk *simclock.Clock, page int64, data []byte) {
		t.Helper()
		if err := p.Put(clk, tag(1), page, data); err != nil {
			t.Fatal(err)
		}
	}
	frame := func(t *testing.T, p *Pool, page int64) *entry {
		t.Helper()
		e, ok := p.table[key{obj: 1, page: page}]
		if !ok {
			t.Fatalf("page %d has no frame", page)
		}
		return e
	}
	// clean installs committed content for pages and writes it back, so
	// the frames hold it clean.
	clean := func(t *testing.T, h *harness, p *Pool, pages ...int64) {
		t.Helper()
		for _, page := range pages {
			put(t, p, &h.clk, page, img(byte(page+1)))
		}
		if err := p.FlushAll(&h.clk); err != nil {
			t.Fatal(err)
		}
	}
	drained := func(t *testing.T, p *Pool) {
		t.Helper()
		if n, vs := p.PinnedFrames(), p.VersionStats(); n != 0 || vs.Versions != 0 || vs.Bytes != 0 {
			t.Fatalf("%d pinned frames, %+v left", n, vs)
		}
	}

	cases := []struct {
		name string
		run  func(t *testing.T, h *harness, p *Pool)
	}{
		{"re-touch keeps the first pre-image and dirty bit", func(t *testing.T, h *harness, p *Pool) {
			clean(t, h, p, 0)
			clk, tx := bind(p, 1)
			put(t, p, clk, 0, img(7))
			put(t, p, clk, 0, img(8))
			got := touched(t, p, tx)
			if len(got) != 1 || !bytes.Equal(got[0].pre, img(1)) || !bytes.Equal(got[0].post, img(8)) {
				t.Fatalf("touched %v, want page 0 from %v to %v", got, img(1), img(8))
			}
			if e := frame(t, p, 0); e.pins != 1 || !e.uncommitted {
				t.Fatalf("frame pins %d, uncommitted %v", e.pins, e.uncommitted)
			}
			p.Rollback(tx)
			if e := frame(t, p, 0); !bytes.Equal(e.data, img(1)) || e.dirty || e.uncommitted {
				t.Fatalf("rolled back to %v (dirty %v, uncommitted %v)", e.data, e.dirty, e.uncommitted)
			}
			drained(t, p)
		}},
		{"a page with no frame has a nil pre-image and is dropped only past the object's end", func(t *testing.T, h *harness, p *Pool) {
			clk, tx := bind(p, 1)
			put(t, p, clk, 0, img(7))
			if got := touched(t, p, tx); len(got) != 1 || got[0].pre != nil || !bytes.Equal(got[0].post, img(7)) {
				t.Fatalf("touched %v, want page 0 from nil to %v", got, img(7))
			}
			p.Rollback(tx)
			if p.Len() != 0 {
				t.Fatal("the aborted page kept its frame")
			}
			if err := p.FlushAll(&h.clk); err != nil {
				t.Fatal(err)
			}
			if h.store.Pages(1) != 0 {
				t.Fatal("the aborted page was written back")
			}
			drained(t, p)
		}},
		{"a touch after a seal, before the release", func(t *testing.T, h *harness, p *Pool) {
			clk1, t1 := bind(p, 1)
			put(t, p, clk1, 0, img(1))
			p.CommitVersions(t1, 10, 0)
			clk2, t2 := bind(p, 2)
			put(t, p, clk2, 0, img(2))
			if e := frame(t, p, 0); e.pins != 2 {
				t.Fatalf("%d pins, want one per transaction", e.pins)
			}
			p.Release(t1)
			if e := frame(t, p, 0); e.pins != 1 {
				t.Fatalf("T1's release left %d pins, want T2's", e.pins)
			}
			if got := touched(t, p, t2); len(got) != 1 || !bytes.Equal(got[0].pre, img(1)) {
				t.Fatalf("T2 touched %v, want page 0 from T1's image", got)
			}
			p.Rollback(t2)
			if e := frame(t, p, 0); !bytes.Equal(e.data, img(1)) || e.verLSN != 10 || e.pins != 0 || e.uncommitted {
				t.Fatalf("rolled back to %v at LSN %d (pins %d, uncommitted %v), want T1's image at 10",
					e.data, e.verLSN, e.pins, e.uncommitted)
			}
			if vs := p.VersionStats(); vs.Versions != 1 {
				t.Fatalf("%d versions, want T1's sealed one", vs.Versions)
			}
		}},
		{"a reloaded frame rolls back to the chain horizon", func(t *testing.T, h *harness, p *Pool) {
			clk1, t1 := bind(p, 1)
			put(t, p, clk1, 0, img(1))
			p.CommitVersions(t1, 10, 0)
			p.Release(t1)
			// Page 0 is written back and read in again: the frame no
			// longer knows it was committed at 10, the chain does.
			for page := int64(1); page <= 8; page++ {
				if _, err := p.Get(&h.clk, tag(1), page); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := p.Get(&h.clk, tag(1), 0); err != nil {
				t.Fatal(err)
			}
			if e := frame(t, p, 0); e.verLSN != 0 {
				t.Fatalf("reloaded frame at LSN %d", e.verLSN)
			}
			clk2, t2 := bind(p, 2)
			put(t, p, clk2, 0, img(2))
			p.Rollback(t2)
			if e := frame(t, p, 0); !bytes.Equal(e.data[:16], img(1)) || e.verLSN != 10 {
				t.Fatalf("rolled back to %v at LSN %d, want T1's image at 10", e.data[:16], e.verLSN)
			}
		}},
		{"rollback runs in reverse first-touch order", func(t *testing.T, h *harness, p *Pool) {
			// One record per page: the order leaves no trace in the frames,
			// so the row holds the list's order as Touched reports it, and
			// that the reverse walk restores every record on it. Page 1
			// lies between two written pages, so it exists with no frame.
			clean(t, h, p, 0, 2)
			stored, _, err := h.store.Read(1, 1)
			if err != nil {
				t.Fatal(err)
			}
			clk, tx := bind(p, 1)
			for _, page := range []int64{2, 1, 0} {
				put(t, p, clk, page, img(9))
			}
			got := touched(t, p, tx)
			if len(got) != 3 || got[0].page != 2 || got[1].page != 1 || got[2].page != 0 ||
				!bytes.Equal(got[0].pre, img(3)) || !bytes.Equal(got[1].pre, stored) || !bytes.Equal(got[2].pre, img(1)) {
				t.Fatal("touched records are not pages 2, 1, 0 from their first images")
			}
			p.Rollback(tx)
			for page, want := range [][]byte{img(1), stored, img(3)} {
				if e := frame(t, p, int64(page)); !bytes.Equal(e.data, want) || e.dirty {
					t.Fatalf("page %d not restored clean to its first image (dirty %v)", page, e.dirty)
				}
			}
			drained(t, p)
		}},
		{"a first touch with no frame takes the stored page", func(t *testing.T, h *harness, p *Pool) {
			clean(t, h, p, 0)
			p.DropAll()
			stored, _, err := h.store.Read(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			sclk := &simclock.Clock{}
			p.BindSnapshot(sclk, func() int64 { return 5 })
			same := func(a, b []byte) bool { return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0] }

			// T1 touches the page with no frame, and rolls back.
			clk1, t1 := bind(p, 1)
			r0, w0 := blockIO(h)
			put(t, p, clk1, 0, img(7))
			if got := touched(t, p, t1); len(got) != 1 || !same(got[0].pre, stored) {
				t.Fatal("the pre-image is not the stored page itself")
			}
			if got, err := p.Get(sclk, tag(1), 0); err != nil || !same(got, stored) {
				t.Fatalf("snapshot Get = %v; want the stored page", err)
			}
			if r, w := blockIO(h); r != r0 || w != w0 || sclk.Now() != 0 {
				t.Fatalf("the touch and the snapshot read cost %d reads, %d writes, %v", r-r0, w-w0, sclk.Now())
			}
			p.Rollback(t1)
			if e := frame(t, p, 0); !same(e.data, stored) || e.dirty || e.uncommitted {
				t.Fatalf("rolled back to dirty %v, uncommitted %v, not the stored page", e.dirty, e.uncommitted)
			}
			drained(t, p)

			// T2 touches it with no frame again and commits; the snapshot
			// keeps the version alive, and the write-back has nothing to read.
			p.DropAll()
			clk2, t2 := bind(p, 2)
			put(t, p, clk2, 0, img(8))
			p.CommitVersions(t2, 10, 10)
			p.Release(t2)
			if got, err := p.Get(sclk, tag(1), 0); err != nil || !same(got, stored) {
				t.Fatalf("snapshot Get after the commit = %v; want the stored page", err)
			}
			r0, w0 = blockIO(h)
			for page := int64(1); page <= 8; page++ {
				put(t, p, &h.clk, page, img(byte(page)))
			}
			if _, ok := p.table[key{obj: 1, page: 0}]; ok {
				t.Fatal("page 0 was not evicted")
			}
			if r, w := blockIO(h); r != r0 || w != w0+1 {
				t.Fatalf("the eviction read %d and wrote %d blocks, want 0 and 1", r-r0, w-w0)
			}
		}},
		{"a store error on a first touch leaves the pool as it was", func(t *testing.T, h *harness, p *Pool) {
			clean(t, h, p, 0)
			p.DropAll()
			h.store.KillAfter(0)
			if _, err := h.store.Write(1, 1, img(1)); !errors.Is(err, pagestore.ErrKilled) {
				t.Fatalf("the cut let a write through: %v", err)
			}
			clk, tx := bind(p, 1)
			if err := p.Put(clk, tag(1), 0, img(7)); !errors.Is(err, pagestore.ErrKilled) {
				t.Fatalf("Put on a killed store = %v, want ErrKilled", err)
			}
			if p.Len() != 0 || len(touched(t, p, tx)) != 0 {
				t.Fatal("the failed Put left a frame or a record")
			}
			drained(t, p)
		}},
		{"a snapshot stream counts a miss and a hit as a plain stream does", func(t *testing.T, h *harness, p *Pool) {
			sclk := &simclock.Clock{}
			p.BindSnapshot(sclk, func() int64 { return 5 })
			for _, clk := range []*simclock.Clock{&h.clk, sclk} {
				p.DropAll()
				p.ResetStats()
				for i := 0; i < 2; i++ {
					if _, err := p.Get(clk, tag(1), 0); err != nil {
						t.Fatal(err)
					}
				}
				if s := p.Stats(); s.Misses != 1 || s.Hits != 1 {
					t.Fatalf("stats %+v, want one miss, then one hit", s)
				}
			}
		}},
		{"after DropAll every call skips the missing records", func(t *testing.T, h *harness, p *Pool) {
			clean(t, h, p, 0, 1)
			clk1, t1 := bind(p, 1)
			put(t, p, clk1, 0, img(7))
			put(t, p, clk1, 2, img(7))
			clk2, t2 := bind(p, 2)
			put(t, p, clk2, 1, img(7))
			p.DropAll()
			// A reader brings pages 0 and 1 back in new frames.
			for _, page := range []int64{0, 1} {
				if _, err := p.Get(&h.clk, tag(1), page); err != nil {
					t.Fatal(err)
				}
			}
			if got := touched(t, p, t1); len(got) != 0 {
				t.Fatalf("touched %v after DropAll", got)
			}
			p.CommitVersions(t1, 10, 0)
			if e := frame(t, p, 0); e.verLSN != 0 {
				t.Fatalf("a gone record stamped the new frame with LSN %d", e.verLSN)
			}
			p.Rollback(t1)
			p.Release(t2)
			for _, page := range []int64{0, 1} {
				if e := frame(t, p, page); !bytes.Equal(e.data[:16], img(byte(page+1))) || e.pins != 0 {
					t.Fatalf("new frame of page %d: %v with %d pins", page, e.data[:16], e.pins)
				}
			}
			if p.Len() != 2 {
				t.Fatalf("%d frames, want the reader's two", p.Len())
			}
			drained(t, p)
		}},
		{"a snapshot-bound stream skips the lock hook and cannot Put", func(t *testing.T, h *harness, p *Pool) {
			clean(t, h, p, 0)
			clk, tx := bind(p, 1)
			hooked := 0
			tx.Acquire = func(policy.Tag, int64, bool) error { hooked++; return nil }
			if lsn := p.BindSnapshot(clk, func() int64 { return 5 }); lsn != 5 {
				t.Fatalf("bound snapshot %d, want 5", lsn)
			}
			if vs := p.VersionStats(); vs.Snapshots != 1 || vs.OldestSnapshot != 5 {
				t.Fatalf("%+v, want one snapshot at 5", vs)
			}
			if got, err := p.Get(clk, tag(1), 0); err != nil || !bytes.Equal(got[:16], img(1)) {
				t.Fatalf("snapshot Get = %v, %v; want %v", got, err, img(1))
			}
			if err := p.Put(clk, tag(1), 0, img(7)); err == nil {
				t.Fatal("Put on a snapshot-bound stream succeeded")
			}
			if hooked != 0 {
				t.Fatalf("the replaced transaction's hook ran %d times", hooked)
			}
			p.UnbindSnapshot(clk)
			if vs := p.VersionStats(); vs.Snapshots != 0 {
				t.Fatalf("%+v after UnbindSnapshot", vs)
			}
			// Unbound, the stream writes again, and no hook runs.
			put(t, p, clk, 0, img(8))
			if hooked != 0 || len(touched(t, p, tx)) != 0 {
				t.Fatalf("an unbound Put reached the transaction (%d hooks)", hooked)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newHarness(t)
			c.run(t, h, New(h.mgr, 8))
		})
	}
}

// lruLen counts the frames on the LRU list.
func (p *Pool) lruLen() int {
	n := 0
	for e := p.head.next; e != &p.head; e = e.next {
		n++
	}
	return n
}

// TestPutRacingGetLeavesNoOrphan: a Put of a page the pool does not hold
// writes a dirty victim back with the latch dropped, and a Get of the
// same page may install a frame in that window. The Put must write into
// that frame, not install a second one and leave the Get's on the LRU
// list with no table entry. The raced page alternates between two: each
// round's four Puts evict it, so it is absent when the next round starts.
func TestPutRacingGetLeavesNoOrphan(t *testing.T) {
	h := newHarness(t)
	p := New(h.mgr, 4)
	var put, get simclock.Clock
	for i := 0; i < 20000; i++ {
		for f := int64(0); f < 4; f++ {
			if err := p.Put(&h.clk, tag(2), f, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		page := int64(i % 2)
		done := make(chan error)
		go func() { done <- p.Put(&put, tag(1), page, []byte{1}) }()
		go func() {
			_, err := p.Get(&get, tag(1), page)
			done <- err
		}()
		for range 2 {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		p.mu.Lock()
		listed, framed := p.lruLen(), len(p.table)
		p.mu.Unlock()
		if listed != framed {
			t.Fatalf("round %d: %d frames on the LRU list, %d in the table", i, listed, framed)
		}
	}
}

// TestOwned: a transaction owns the image it installed on a page since
// its first touch, and no other: not a committed frame, not the frame of
// another stream, not a Get slice it Put back, not after the seal. While
// it edits its own image in place, the pending version, the snapshot
// reading it and, on abort, the restored frame keep the committed bytes.
func TestOwned(t *testing.T) {
	committed := func(t *testing.T, h *harness, p *Pool) []byte {
		t.Helper()
		img := pagestore.NewPage(16)
		copy(img, "committed bytes!")
		if err := p.Put(&h.clk, tag(1), 0, img); err != nil {
			t.Fatal(err)
		}
		if err := p.FlushAll(&h.clk); err != nil {
			t.Fatal(err)
		}
		return img
	}
	bind := func(p *Pool) (*simclock.Clock, *TxnHooks) {
		clk, h := &simclock.Clock{}, &TxnHooks{ID: 1}
		p.BindTxn(clk, h)
		return clk, h
	}
	get := func(t *testing.T, p *Pool, clk *simclock.Clock) []byte {
		t.Helper()
		data, err := p.Get(clk, tag(1), 0)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	put := func(t *testing.T, p *Pool, clk *simclock.Clock, data []byte) {
		t.Helper()
		if err := p.Put(clk, tag(1), 0, data); err != nil {
			t.Fatal(err)
		}
	}
	pre := func(t *testing.T, p *Pool, tx *TxnHooks) []byte {
		t.Helper()
		var out []byte
		if err := p.Touched(tx, func(_ pagestore.ObjectID, _ int64, pre, _ []byte) error {
			out = pre
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	// edits installs a new image of page 0 on clk's transaction, then
	// rewrites it in place n times, each time checking that it is owned.
	edits := func(t *testing.T, p *Pool, clk *simclock.Clock, n int) []byte {
		t.Helper()
		img := append(pagestore.NewPage(0), get(t, p, clk)[:16]...)
		put(t, p, clk, img)
		for i := 0; i < n; i++ {
			if !p.Owned(clk, tag(1), 0, get(t, p, clk)) {
				t.Fatalf("edit %d: the transaction's own image is not owned", i)
			}
			img[i] = '*'
			put(t, p, clk, img)
		}
		return img
	}

	cases := []struct {
		name string
		run  func(t *testing.T, h *harness, p *Pool)
	}{
		{"the pending version and a snapshot keep the committed bytes", func(t *testing.T, h *harness, p *Pool) {
			was := bytes.Clone(committed(t, h, p))
			sclk := &simclock.Clock{}
			p.BindSnapshot(sclk, func() int64 { return 5 })
			clk, tx := bind(p)
			if p.Owned(clk, tag(1), 0, get(t, p, clk)) {
				t.Fatal("a committed frame is owned before the first touch")
			}
			sum := crc32.ChecksumIEEE(was)
			img := edits(t, p, clk, 3)
			if got := pre(t, p, tx); crc32.ChecksumIEEE(got) != sum {
				t.Fatalf("the pending version became %q", got)
			}
			if got := get(t, p, sclk); !bytes.Equal(got, was) {
				t.Fatalf("the snapshot reads %q, want %q", got, was)
			}
			if p.Owned(&h.clk, tag(1), 0, img) || p.Owned(sclk, tag(1), 0, img) {
				t.Fatal("an unbound or snapshot stream owns the transaction's image")
			}
			if temp := (policy.Tag{Object: 1, Content: policy.Temp}); p.Owned(clk, temp, 0, img) {
				t.Fatal("unversioned content is owned")
			}
			p.CommitVersions(tx, 10, 0)
			if p.Owned(clk, tag(1), 0, img) {
				t.Fatal("the frame is still owned after its version is sealed")
			}
			p.Release(tx)
			if got := get(t, p, sclk); !bytes.Equal(got, was) {
				t.Fatalf("after the commit the snapshot reads %q, want %q", got, was)
			}
		}},
		{"a Put of the Get slice is not owned", func(t *testing.T, h *harness, p *Pool) {
			committed(t, h, p)
			clk, tx := bind(p)
			data := get(t, p, clk)
			put(t, p, clk, data)
			if p.Owned(clk, tag(1), 0, data) {
				t.Fatal("the frame that is also the undo image is owned")
			}
			p.Rollback(tx)
		}},
		{"another stream's transaction does not own the image", func(t *testing.T, h *harness, p *Pool) {
			committed(t, h, p)
			clk, tx := bind(p)
			img := edits(t, p, clk, 1)
			other := &simclock.Clock{}
			p.BindTxn(other, &TxnHooks{ID: 2})
			if p.Owned(other, tag(1), 0, img) {
				t.Fatal("transaction 2 owns transaction 1's image")
			}
			p.Rollback(tx)
		}},
		{"rollback after repeat edits restores the frame byte for byte", func(t *testing.T, h *harness, p *Pool) {
			was := committed(t, h, p)
			keep := bytes.Clone(was)
			clk, tx := bind(p)
			edits(t, p, clk, 5)
			p.Rollback(tx)
			got := get(t, p, &h.clk)
			if !bytes.Equal(got, keep) || unsafe.SliceData(got) != unsafe.SliceData(was) {
				t.Fatalf("rolled back to %q, want the committed image %q", got, keep)
			}
			if p.Owned(clk, tag(1), 0, got) {
				t.Fatal("the restored frame is owned")
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newHarness(t)
			c.run(t, h, New(h.mgr, 8))
		})
	}
}
