package heap

import (
	"fmt"
	"testing"

	"hstoragedb/internal/dss"
	"hstoragedb/internal/engine/bufferpool"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/engine/storagemgr"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/simclock"
)

type harness struct {
	store *pagestore.Store
	pool  *bufferpool.Pool
	clk   simclock.Clock
}

func newHarness(t testing.TB, bpPages int) *harness {
	t.Helper()
	store := pagestore.NewStore()
	sys, err := hybrid.New(hybrid.Config{Mode: hybrid.HStorage, CacheBlocks: 1024})
	if err != nil {
		t.Fatal(err)
	}
	mgr := storagemgr.New(store, sys, policy.NewAssignmentTable(dss.DefaultPolicySpace()))
	return &harness{store: store, pool: bufferpool.New(mgr, bpPages)}
}

func testSchema() catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "k", Type: catalog.Int64},
		catalog.Column{Name: "v", Type: catalog.String},
	)
}

func row(k int64) catalog.Tuple {
	return catalog.Tuple{catalog.IntDatum(k), catalog.StringDatum(fmt.Sprintf("val-%d", k))}
}

func TestAppendScanRoundTrip(t *testing.T) {
	h := newHarness(t, 64)
	_ = h.store.Create(1)
	f := NewFile(1, testSchema(), policy.Table)
	app := f.NewAppender(&h.clk, h.pool, 0)
	const n = 2000
	for i := int64(0); i < n; i++ {
		if _, err := app.Append(row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.pool.FlushAll(&h.clk); err != nil {
		t.Fatal(err)
	}
	if app.Rows() != n {
		t.Fatalf("rows %d", app.Rows())
	}
	if app.Pages() < 2 {
		t.Fatalf("expected multiple pages, got %d", app.Pages())
	}

	sc := f.NewScanner(&h.clk, h.pool, h.store.Pages(1))
	var got int64
	for {
		tup, _, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if tup[0].I != got {
			t.Fatalf("row %d reads key %d", got, tup[0].I)
		}
		got++
	}
	if got != n {
		t.Fatalf("scanned %d of %d", got, n)
	}
}

func TestFetchByRID(t *testing.T) {
	h := newHarness(t, 64)
	_ = h.store.Create(1)
	f := NewFile(1, testSchema(), policy.Table)
	app := f.NewAppender(&h.clk, h.pool, 0)
	rids := make([]catalog.RID, 0, 500)
	for i := int64(0); i < 500; i++ {
		rid, err := app.Append(row(i))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	_ = app.Close()
	for i, rid := range rids {
		tup, err := f.Fetch(&h.clk, h.pool, rid, 0)
		if err != nil {
			t.Fatal(err)
		}
		if tup[0].I != int64(i) {
			t.Fatalf("rid %v fetched key %d, want %d", rid, tup[0].I, i)
		}
	}
}

func TestDeleteTombstones(t *testing.T) {
	h := newHarness(t, 64)
	_ = h.store.Create(1)
	f := NewFile(1, testSchema(), policy.Table)
	app := f.NewAppender(&h.clk, h.pool, 0)
	var rids []catalog.RID
	for i := int64(0); i < 10; i++ {
		rid, _ := app.Append(row(i))
		rids = append(rids, rid)
	}
	_ = app.Close()
	_ = h.pool.FlushAll(&h.clk)

	ok, err := f.Delete(&h.clk, h.pool, rids[3], 0)
	if err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	// Double delete reports false.
	ok, err = f.Delete(&h.clk, h.pool, rids[3], 0)
	if err != nil || ok {
		t.Fatalf("double delete: %v %v", ok, err)
	}
	// Fetch of a tombstone returns nil without error.
	tup, err := f.Fetch(&h.clk, h.pool, rids[3], 0)
	if err != nil || tup != nil {
		t.Fatalf("tombstone fetch: %v %v", tup, err)
	}
	// Other RIDs keep their positions.
	tup, err = f.Fetch(&h.clk, h.pool, rids[4], 0)
	if err != nil || tup[0].I != 4 {
		t.Fatalf("neighbor shifted: %v %v", tup, err)
	}
	// Scan skips the tombstone.
	sc := f.NewScanner(&h.clk, h.pool, h.store.Pages(1))
	count := 0
	for {
		tup, _, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if tup[0].I == 3 {
			t.Fatal("deleted row visible in scan")
		}
		count++
	}
	if count != 9 {
		t.Fatalf("scan saw %d rows, want 9", count)
	}
}

func TestAppendExtendsExistingFile(t *testing.T) {
	h := newHarness(t, 64)
	_ = h.store.Create(1)
	f := NewFile(1, testSchema(), policy.Table)
	app := f.NewAppender(&h.clk, h.pool, 0)
	for i := int64(0); i < 300; i++ {
		_, _ = app.Append(row(i))
	}
	_ = app.Close()
	firstPages := h.store.Pages(1)

	app2 := f.NewAppender(&h.clk, h.pool, firstPages)
	rid, err := app2.Append(row(300))
	if err != nil {
		t.Fatal(err)
	}
	if rid.Page != firstPages {
		t.Fatalf("extension started at page %d, want %d", rid.Page, firstPages)
	}
	_ = app2.Close()
}

func TestOversizedTupleRejected(t *testing.T) {
	h := newHarness(t, 8)
	_ = h.store.Create(1)
	f := NewFile(1, testSchema(), policy.Table)
	app := f.NewAppender(&h.clk, h.pool, 0)
	big := catalog.Tuple{catalog.IntDatum(1), catalog.StringDatum(string(make([]byte, pagestore.PageSize)))}
	if _, err := app.Append(big); err == nil {
		t.Fatal("oversized tuple accepted")
	}
}

func TestSequentialScanIsSequentialOnDisk(t *testing.T) {
	// A heap scan must produce a (mostly) sequential LBA run on the HDD:
	// the premise behind Rule 1.
	store := pagestore.NewStore()
	sys, _ := hybrid.New(hybrid.Config{Mode: hybrid.HDDOnly})
	mgr := storagemgr.New(store, sys, policy.NewAssignmentTable(dss.DefaultPolicySpace()))
	pool := bufferpool.New(mgr, 8)
	var clk simclock.Clock

	_ = store.Create(1)
	f := NewFile(1, testSchema(), policy.Table)
	app := f.NewAppender(&clk, pool, 0)
	for i := int64(0); i < 3000; i++ {
		_, _ = app.Append(row(i))
	}
	_ = app.Close()
	_ = pool.FlushAll(&clk)
	pool.DropAll()
	sys.HDD().Reset()

	sc := f.NewScanner(&clk, pool, store.Pages(1))
	for {
		_, _, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	st := sys.HDD().Stats()
	// The I/O scheduler coalesces and reads ahead, so the scan reaches
	// the platter as a handful of large runs: at most a couple of
	// positioning penalties regardless of how many pages were read.
	if st.RandAccess > 2 {
		t.Fatalf("scan not sequential: seq=%d rand=%d", st.SeqAccesses, st.RandAccess)
	}
	if st.BlocksRead < store.Pages(1) {
		t.Fatalf("scan read %d blocks for %d pages", st.BlocksRead, store.Pages(1))
	}
}

// benchFile loads rows rows into object 1 of a pool that holds them all,
// so the benchmarks below time decoding, not I/O.
func benchFile(tb testing.TB, rows int64) (*harness, *File, []catalog.RID) {
	tb.Helper()
	h := newHarness(tb, 4096)
	_ = h.store.Create(1)
	f := NewFile(1, testSchema(), policy.Table)
	app := f.NewAppender(&h.clk, h.pool, 0)
	rids := make([]catalog.RID, 0, rows)
	for i := int64(0); i < rows; i++ {
		rid, err := app.Append(row(i))
		if err != nil {
			tb.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := app.Close(); err != nil {
		tb.Fatal(err)
	}
	return h, f, rids
}

var sinkTuple catalog.Tuple

func BenchmarkFetch(b *testing.B) {
	h, f, rids := benchFile(b, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := f.Fetch(&h.clk, h.pool, rids[(i*7919)%len(rids)], 0)
		if err != nil {
			b.Fatal(err)
		}
		sinkTuple = t
	}
}

// BenchmarkScan is the leaf of a sequential scan: decode in place, run
// the predicate on the borrowed tuple, copy the survivors. One op is one
// row read.
func BenchmarkScan(b *testing.B) {
	for _, reject := range []int64{0, 98} {
		b.Run(fmt.Sprintf("reject%d", reject), func(b *testing.B) {
			h, f, _ := benchFile(b, 20000)
			pages := h.store.Pages(1)
			sc := f.NewScanner(&h.clk, h.pool, pages)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t, _, ok, err := sc.NextBorrowed()
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					sc = f.NewScanner(&h.clk, h.pool, pages)
					continue
				}
				if t[0].I%100 >= reject {
					sinkTuple = t.Owned()
				}
			}
		})
	}
}

func BenchmarkUpdate(b *testing.B) {
	h, f, rids := benchFile(b, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := (i * 7919) % len(rids)
		if err := f.Update(&h.clk, h.pool, rids[k], row(int64(k)), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAllocationBudget pins what the in-place decode buys: a fetch costs
// the tuple and its string backing, a scanned row that is dropped costs
// nothing.
func TestAllocationBudget(t *testing.T) {
	h, f, rids := benchFile(t, 2000)
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		tup, err := f.Fetch(&h.clk, h.pool, rids[i%len(rids)], 0)
		if err != nil || tup == nil {
			t.Fatalf("fetch: %v %v", tup, err)
		}
		i += 37
	}); n > 2 {
		t.Errorf("Fetch allocates %.1f times, want <= 2", n)
	}
	sc := f.NewScanner(&h.clk, h.pool, h.store.Pages(1))
	if _, _, ok, err := sc.NextBorrowed(); !ok || err != nil { // sizes the scratch
		t.Fatal(ok, err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, _, ok, err := sc.NextBorrowed(); !ok || err != nil {
			t.Fatal(ok, err)
		}
	}); n != 0 {
		t.Errorf("a dropped scan row allocates %.1f times, want 0", n)
	}
}
