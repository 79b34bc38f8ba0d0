package tpch

import (
	"hash/crc32"
	"sync"
	"testing"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/txn"
	"hstoragedb/internal/engine/wal"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/pagestore"
)

type pageID struct {
	obj  pagestore.ObjectID
	page int64
}

type image struct {
	data []byte
	sum  uint32
}

func imageOf(data []byte) image { return image{data: data, sum: crc32.ChecksumIEEE(data)} }

// zeroObject is an object no catalog ID reaches; its one page is never
// written, so it reads as the store's shared zero page.
const zeroObject = pagestore.LogBase - 1

// readZeroPage returns the shared slice a never-written page reads as.
func readZeroPage(t *testing.T, store pagestore.Backend) []byte {
	t.Helper()
	if !store.Exists(zeroObject) {
		if err := store.Create(zeroObject); err != nil {
			t.Fatal(err)
		}
	}
	data, _, err := store.Read(zeroObject, 0)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runEverything drives the whole read and write surface on a pool of
// poolPages frames: RF1, the 22 queries, RF2 and a transactional OLTP
// burst.
func runEverything(t *testing.T, ds *Dataset, poolPages int) *engine.Instance {
	t.Helper()
	inst, err := ds.DB.NewInstance(engine.InstanceConfig{
		Storage:         hybrid.Config{Mode: hybrid.HStorage, CacheBlocks: 1024},
		BufferPoolPages: poolPages,
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
	return inst
}

// TestStoredPagesAreNeverWrittenInto guards the contract the in-place
// decoders, the sharing Read and the backends' keeping of what they are
// handed rest on: a page frame, and the stored page behind it, is
// replaced (Pool.Put, Store.Write) and never written into. Neither
// is the zero page every never-written page reads as.
func TestStoredPagesAreNeverWrittenInto(t *testing.T) {
	// Every stored page is checksummed, then everything runs on a pool
	// large enough that nothing is evicted, so the frames stay the
	// store's own slices for the whole run. A stored page that still is
	// the slice it was must still hold the bytes it held.
	t.Run("pool holds everything", func(t *testing.T) {
		ds := loadSmall(t)
		store := ds.DB.Store
		zero := readZeroPage(t, store)
		before := map[pageID]image{}
		for _, obj := range store.Objects() {
			for p := int64(0); p < store.Pages(obj); p++ {
				data, _, err := store.Read(obj, p)
				if err != nil {
					t.Fatal(err)
				}
				before[pageID{obj, p}] = imageOf(data)
			}
		}
		inst := runEverything(t, ds, 4*len(before)+4096)
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
		checkZeroPage(t, store, zero)
	})

	// On a small pool, write-backs, temp spills and log forces reach the
	// store as the very images the pool held, kept by reference. Every
	// block stored is checksummed as it is stored and checked again when
	// it is replaced, when its object is dropped and at the end.
	t.Run("small pool", func(t *testing.T) {
		ds := loadSmall(t)
		cs := &checkedStore{Backend: ds.DB.Store, t: t, blocks: map[pagestore.ObjectID]map[int64]image{}}
		zero := readZeroPage(t, cs.Backend)
		for _, obj := range cs.Objects() {
			for p := int64(0); p < cs.Pages(obj); p++ {
				cs.record(obj, p)
			}
		}
		ds.DB.Store = cs
		inst := runEverything(t, ds, 64)
		if st := inst.Pool.Stats(); st.WriteBack == 0 {
			t.Fatalf("no write-backs on a %d-frame pool: %+v", inst.Pool.Capacity(), st)
		}
		for obj := range cs.blocks {
			cs.verify(obj)
		}
		if cs.keptTemp == 0 || 2*cs.kept < cs.writes {
			t.Fatalf("%d of %d writes kept by reference, %d of them temp pages: the check guards little",
				cs.kept, cs.writes, cs.keptTemp)
		}
		checkZeroPage(t, cs.Backend, zero)
	})
}

// checkZeroPage fails unless a never-written page still reads as the
// same shared slice, all zeroes.
func checkZeroPage(t *testing.T, store pagestore.Backend, zero []byte) {
	t.Helper()
	now := readZeroPage(t, store)
	if &now[0] != &zero[0] {
		t.Fatal("a never-written page no longer reads as the shared zero page")
	}
	for i, b := range zero {
		if b != 0 {
			t.Fatalf("the shared zero page was written into at byte %d", i)
		}
	}
}

// checkedStore is a backend that checksums every block it stores and
// fails the test once a block it stored no longer holds those bytes.
type checkedStore struct {
	pagestore.Backend
	t      *testing.T
	mu     sync.Mutex
	blocks map[pagestore.ObjectID]map[int64]image

	writes, kept, keptTemp int
}

// record checksums the block stored for (obj, page). Caller holds mu or
// is alone.
func (s *checkedStore) record(obj pagestore.ObjectID, page int64) []byte {
	data, _, err := s.Backend.Read(obj, page)
	if err != nil {
		s.t.Fatal(err)
	}
	if s.blocks[obj] == nil {
		s.blocks[obj] = map[int64]image{}
	}
	s.blocks[obj][page] = imageOf(data)
	return data
}

// check fails if the block recorded for (obj, page) changed.
func (s *checkedStore) check(obj pagestore.ObjectID, page int64, was image) {
	if sum := crc32.ChecksumIEEE(was.data); sum != was.sum {
		s.t.Fatalf("object %d page %d was written into after it was stored: checksum %08x, was %08x",
			obj, page, sum, was.sum)
	}
}

// verify checks every recorded block of obj. Caller holds mu or is
// alone.
func (s *checkedStore) verify(obj pagestore.ObjectID) {
	for p, was := range s.blocks[obj] {
		s.check(obj, p, was)
	}
}

func (s *checkedStore) Write(id pagestore.ObjectID, page int64, data []byte) ([]pagestore.Access, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if was, ok := s.blocks[id][page]; ok {
		s.check(id, page, was)
	}
	plan, err := s.Backend.Write(id, page, data)
	if err != nil {
		return plan, err
	}
	s.writes++
	if stored := s.record(id, page); len(data) > 0 && &stored[0] == &data[0] {
		s.kept++
		if id >= pagestore.TempBase {
			s.keptTemp++
		}
	}
	return plan, nil
}

func (s *checkedStore) Delete(id pagestore.ObjectID) ([]pagestore.Extent, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.verify(id)
	delete(s.blocks, id)
	return s.Backend.Delete(id)
}
