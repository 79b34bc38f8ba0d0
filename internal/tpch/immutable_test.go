package tpch

import (
	"hash/crc32"
	"testing"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/txn"
	"hstoragedb/internal/engine/wal"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/pagestore"
)

// TestStoredPagesAreNeverWrittenInto guards the contract the in-place
// decoders and the sharing ReadPage rest on: a page frame, and the stored
// page behind it, is replaced (Pool.Put, Store.WritePage) and never
// written into. Every stored page is checksummed, then the whole read and
// write surface runs — RF1, the 22 queries, RF2 and a transactional OLTP
// burst — on a pool large enough that nothing is evicted, so the frames
// stay the store's own slices for the whole run. A stored page that still
// is the slice it was (WritePage installs a fresh one) must still hold
// the bytes it held.
func TestStoredPagesAreNeverWrittenInto(t *testing.T) {
	ds := loadSmall(t)
	store := ds.DB.Store
	type pageID struct {
		obj  pagestore.ObjectID
		page int64
	}
	type image struct {
		data []byte
		sum  uint32
	}
	before := map[pageID]image{}
	for _, obj := range store.Objects() {
		for p := int64(0); p < store.Pages(obj); p++ {
			data, _, err := store.Read(obj, p)
			if err != nil {
				t.Fatal(err)
			}
			before[pageID{obj, p}] = image{data: data, sum: crc32.ChecksumIEEE(data)}
		}
	}

	inst, err := ds.DB.NewInstance(engine.InstanceConfig{
		Storage:         hybrid.Config{Mode: hybrid.HStorage, CacheBlocks: 1024},
		BufferPoolPages: 4*len(before) + 4096,
		WorkMem:         500,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess := inst.NewSession()
	if _, err := ds.RF1(sess); err != nil {
		t.Fatal(err)
	}
	for _, q := range PowerOrder() {
		if _, _, err := sess.ExecuteDiscard(ds.MustQuery(q, 1)); err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
	}
	if _, err := ds.RF2(sess); err != nil {
		t.Fatal(err)
	}
	log, err := wal.New(&sess.Clk, inst.Mgr, wal.Config{SegmentPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.NewOLTP(1).RunTxn(txn.NewManager(inst, log), sess, 150); err != nil {
		t.Fatal(err)
	}
	if ev := inst.Pool.Stats().Evictions; ev != 0 {
		t.Fatalf("%d evictions: the pool was meant to hold everything", ev)
	}

	kept := 0
	for id, was := range before {
		data, _, err := store.Read(id.obj, id.page)
		if err != nil {
			t.Fatal(err)
		}
		if &data[0] != &was.data[0] {
			continue // replaced by a write-back of RF1/RF2
		}
		kept++
		if sum := crc32.ChecksumIEEE(data); sum != was.sum {
			t.Fatalf("object %d page %d was written into: checksum %08x, was %08x", id.obj, id.page, sum, was.sum)
		}
	}
	if kept < len(before)/2 {
		t.Fatalf("only %d of %d stored pages are still the slice they were: the check guards nothing", kept, len(before))
	}
}
