package bufferpool

import (
	"testing"

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

func newHarness(t *testing.T) *harness {
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
	got, _, err := h.store.ReadPage(1, 0)
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
