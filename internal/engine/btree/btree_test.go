package btree

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

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
	pool *bufferpool.Pool
	clk  simclock.Clock
}

func newHarness(t testing.TB) *harness { return newHarnessFrames(t, 256) }

// newHarnessFrames is a harness whose pool holds frames pages.
func newHarnessFrames(t testing.TB, frames int) *harness {
	t.Helper()
	store := pagestore.NewStore()
	if err := store.Create(1); err != nil {
		t.Fatal(err)
	}
	sys, err := hybrid.New(hybrid.Config{Mode: hybrid.HStorage, CacheBlocks: 4096})
	if err != nil {
		t.Fatal(err)
	}
	mgr := storagemgr.New(store, sys, policy.NewAssignmentTable(dss.DefaultPolicySpace()))
	return &harness{pool: bufferpool.New(mgr, frames)}
}

func rid(i int64) catalog.RID {
	return catalog.RID{Page: i / 50, Slot: uint16(i % 50)}
}

func buildTree(t testing.TB, h *harness, n int64) *Tree {
	entries := make([]Entry, 0, n)
	for i := int64(0); i < n; i++ {
		entries = append(entries, Entry{Key: i, RID: rid(i)})
	}
	rand.New(rand.NewSource(1)).Shuffle(len(entries), func(i, j int) {
		entries[i], entries[j] = entries[j], entries[i]
	})
	tree, pages, err := Build(&h.clk, h.pool, 1, entries)
	if err != nil {
		t.Fatal(err)
	}
	if pages < 2 {
		t.Fatalf("tree of %d keys in %d pages", n, pages)
	}
	return tree
}

func TestBuildAndLookup(t *testing.T) {
	h := newHarness(t)
	tree := buildTree(t, h, 10000)
	for _, k := range []int64{0, 1, 4999, 9999} {
		rids, err := tree.Lookup(&h.clk, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) != 1 || rids[0] != rid(k) {
			t.Fatalf("key %d -> %v", k, rids)
		}
	}
	if rids, _ := tree.Lookup(&h.clk, 123456, 0); len(rids) != 0 {
		t.Fatalf("phantom key found: %v", rids)
	}
	if rids, _ := tree.Lookup(&h.clk, -5, 0); len(rids) != 0 {
		t.Fatalf("negative key found: %v", rids)
	}
}

func TestRangeScan(t *testing.T) {
	h := newHarness(t)
	tree := buildTree(t, h, 5000)
	it, err := tree.Seek(&h.clk, 1000, 1999, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(1000)
	for {
		e, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if e.Key != want {
			t.Fatalf("got key %d, want %d", e.Key, want)
		}
		want++
	}
	if want != 2000 {
		t.Fatalf("range ended at %d", want)
	}
}

func TestDuplicateKeys(t *testing.T) {
	h := newHarness(t)
	entries := make([]Entry, 0, 300)
	for i := int64(0); i < 100; i++ {
		for d := int64(0); d < 3; d++ {
			entries = append(entries, Entry{Key: i, RID: rid(i*3 + d)})
		}
	}
	tree, _, err := Build(&h.clk, h.pool, 1, entries)
	if err != nil {
		t.Fatal(err)
	}
	rids, err := tree.Lookup(&h.clk, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 3 {
		t.Fatalf("duplicates: %v", rids)
	}
}

func TestEmptyTree(t *testing.T) {
	h := newHarness(t)
	tree, _, err := Build(&h.clk, h.pool, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rids, _ := tree.Lookup(&h.clk, 1, 0); len(rids) != 0 {
		t.Fatal("empty tree found a key")
	}
	// Inserting into an empty tree works.
	if err := tree.Insert(&h.clk, Entry{Key: 7, RID: rid(7)}, 0); err != nil {
		t.Fatal(err)
	}
	if rids, _ := tree.Lookup(&h.clk, 7, 0); len(rids) != 1 {
		t.Fatal("inserted key not found")
	}
}

func TestInsertWithSplits(t *testing.T) {
	h := newHarness(t)
	tree, _, err := Build(&h.clk, h.pool, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Enough inserts to split leaves and grow the root at least once.
	const n = 3000
	perm := rand.New(rand.NewSource(2)).Perm(n)
	for _, k := range perm {
		if err := tree.Insert(&h.clk, Entry{Key: int64(k), RID: rid(int64(k))}, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []int64{0, 1, n / 2, n - 1} {
		rids, err := tree.Lookup(&h.clk, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(rids) != 1 || rids[0] != rid(k) {
			t.Fatalf("key %d -> %v", k, rids)
		}
	}
	// Full scan returns everything in order.
	it, err := tree.Seek(&h.clk, 0, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	count := 0
	for {
		e, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if e.Key < prev {
			t.Fatalf("out of order: %d after %d", e.Key, prev)
		}
		prev = e.Key
		count++
	}
	if count != n {
		t.Fatalf("scan found %d of %d", count, n)
	}
}

func TestDeleteKey(t *testing.T) {
	h := newHarness(t)
	tree := buildTree(t, h, 1000)
	removed, err := tree.Delete(&h.clk, 500, 0)
	if err != nil || removed != 1 {
		t.Fatalf("delete: %d %v", removed, err)
	}
	if rids, _ := tree.Lookup(&h.clk, 500, 0); len(rids) != 0 {
		t.Fatal("deleted key still found")
	}
	// Neighbors untouched.
	if rids, _ := tree.Lookup(&h.clk, 499, 0); len(rids) != 1 {
		t.Fatal("neighbor lost")
	}
	if removed, _ := tree.Delete(&h.clk, 500, 0); removed != 0 {
		t.Fatal("double delete removed something")
	}
}

func TestDeleteEntry(t *testing.T) {
	h := newHarness(t)
	entries := []Entry{
		{Key: 1, RID: rid(10)},
		{Key: 1, RID: rid(11)},
		{Key: 2, RID: rid(20)},
	}
	tree, _, err := Build(&h.clk, h.pool, 1, entries)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := tree.DeleteEntry(&h.clk, Entry{Key: 1, RID: rid(10)}, 0)
	if err != nil || !ok {
		t.Fatalf("delete entry: %v %v", ok, err)
	}
	rids, _ := tree.Lookup(&h.clk, 1, 0)
	if len(rids) != 1 || rids[0] != rid(11) {
		t.Fatalf("wrong survivor: %v", rids)
	}
	ok, _ = tree.DeleteEntry(&h.clk, Entry{Key: 9, RID: rid(9)}, 0)
	if ok {
		t.Fatal("phantom delete succeeded")
	}
}

// sortEntries orders entries by key, RID page and RID slot.
func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		if a.RID.Page != b.RID.Page {
			return a.RID.Page < b.RID.Page
		}
		return a.RID.Slot < b.RID.Slot
	})
}

// truthRange is what a search of [lo, hi] must find among all, the
// tree's contents: every entry in range, sorted.
func truthRange(all []Entry, lo, hi int64) []Entry {
	var out []Entry
	for _, e := range all {
		if lo <= e.Key && e.Key <= hi {
			out = append(out, e)
		}
	}
	sortEntries(out)
	return out
}

// separators collects every separator key of the tree's internal nodes.
func separators(t testing.TB, h *harness, tree *Tree) []int64 {
	t.Helper()
	root, _, err := tree.readMeta(&h.clk, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []int64
	var walk func(page int64)
	walk = func(page int64) {
		_, internal, err := tree.readNode(&h.clk, page, 0)
		if err != nil {
			t.Fatal(err)
		}
		if internal == nil {
			return
		}
		out = append(out, internal.keys...)
		for _, c := range internal.children {
			walk(c)
		}
	}
	walk(root)
	return out
}

// spanningRuns lists the keys whose run of duplicates crosses a leaf
// boundary (the left leaf ends with the key the right one starts with).
func spanningRuns(t testing.TB, h *harness, tree *Tree) []int64 {
	t.Helper()
	page, err := tree.descend(&h.clk, -1<<62, 0)
	if err != nil {
		t.Fatal(err)
	}
	var spans []int64
	for last, first := int64(0), true; page >= 0; first = false {
		leaf, _, err := tree.readNode(&h.clk, page, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(leaf.entries) > 0 {
			if !first && leaf.entries[0].Key == last {
				spans = append(spans, last)
			}
			last = leaf.entries[len(leaf.entries)-1].Key
		}
		page = leaf.next
	}
	return spans
}

// checkSearch compares Seek, and Lookup for a single key, with the
// entries of all in [lo, hi]. Seek returns keys in order; duplicates of
// one key may come in any RID order, since a run split across leaves is
// not sorted by RID across them.
func checkSearch(t testing.TB, h *harness, tree *Tree, all []Entry, lo, hi int64) {
	t.Helper()
	want := truthRange(all, lo, hi)
	it, err := tree.Seek(&h.clk, lo, hi, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []Entry
	for {
		e, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if len(got) > 0 && e.Key < got[len(got)-1].Key {
			t.Fatalf("Seek(%d, %d): key %d after %d", lo, hi, e.Key, got[len(got)-1].Key)
		}
		got = append(got, e)
	}
	seen := append([]Entry(nil), got...)
	sortEntries(seen)
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("Seek(%d, %d): %d entries %v, truth %d entries %v", lo, hi, len(got), got, len(want), want)
	}
	if lo != hi {
		return
	}
	rids, err := tree.Lookup(&h.clk, lo, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != len(got) {
		t.Fatalf("Lookup(%d): %d rids, Seek %d", lo, len(rids), len(got))
	}
	for i, e := range got {
		if rids[i] != e.RID {
			t.Fatalf("Lookup(%d)[%d] = %v, Seek %v", lo, i, rids[i], e.RID)
		}
	}
}

// straddleTree is a multi-level tree, bulk-built or grown by shuffled
// inserts, of 2*LeafCap keys 0, 10, 20, ... each five times over, so that
// runs of duplicates straddle leaf boundaries. It returns the entries.
func straddleTree(t testing.TB, grow bool) (*harness, *Tree, []Entry) {
	t.Helper()
	h := newHarness(t)
	const n = 2 * LeafCap
	var entries []Entry
	for i := int64(0); i < n; i++ {
		for d := int64(0); d < 5; d++ {
			entries = append(entries, Entry{Key: 10 * i, RID: rid(5*i + d)})
		}
	}
	var tree *Tree
	var err error
	if grow {
		if tree, _, err = Build(&h.clk, h.pool, 1, nil); err != nil {
			t.Fatal(err)
		}
		rand.New(rand.NewSource(5)).Shuffle(len(entries), func(i, j int) {
			entries[i], entries[j] = entries[j], entries[i]
		})
		for _, e := range entries {
			if err := tree.Insert(&h.clk, e, 0); err != nil {
				t.Fatal(err)
			}
		}
	} else if tree, _, err = Build(&h.clk, h.pool, 1, append([]Entry(nil), entries...)); err != nil {
		t.Fatal(err)
	}
	if len(spanningRuns(t, h, tree)) == 0 {
		t.Fatal("no run of duplicates spans two leaves: the case is not covered")
	}
	return h, tree, entries
}

// Property: every search agrees with a sorted-slice truth, on random
// insert workloads and on multi-level trees with straddling runs.
func TestTreeMatchesReference(t *testing.T) {
	f := func(keysRaw []int16) bool {
		h := newHarness(t)
		tree, _, err := Build(&h.clk, h.pool, 1, nil)
		if err != nil {
			return false
		}
		var all []Entry
		for i, kr := range keysRaw {
			e := Entry{Key: int64(kr), RID: rid(int64(i))}
			if err := tree.Insert(&h.clk, e, 0); err != nil {
				return false
			}
			all = append(all, e)
		}
		for _, e := range all {
			checkSearch(t, h, tree, all, e.Key, e.Key)
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}

	// Probed: below the first separator and the smallest key, on and
	// around every separator, above the last separator and the largest
	// key, and ranges across leaves.
	for name, grow := range map[string]bool{"built": false, "inserted": true} {
		t.Run(name, func(t *testing.T) {
			h, tree, all := straddleTree(t, grow)
			const n = 2 * LeafCap
			seps := separators(t, h, tree)
			if len(seps) < 3 {
				t.Fatalf("tree has %d separators", len(seps))
			}
			sort.Slice(seps, func(i, j int) bool { return seps[i] < seps[j] })
			probes := []int64{-7, 0, 5, seps[0] - 10, 10*n - 10, 10 * n, 10*n + 99}
			for _, s := range seps {
				probes = append(probes, s-1, s, s+1)
			}
			for _, k := range probes {
				checkSearch(t, h, tree, all, k, k)
				checkSearch(t, h, tree, all, k, k+10*LeafCap/2)
			}
			checkSearch(t, h, tree, all, -100, 10*n+100)
		})
	}
}

// TestSearchesSeeAStraddlingRun: every search finds the whole of a run of
// duplicates that a split or Build left on both sides of a separator
// equal to its key, the left leaf's copies included.
func TestSearchesSeeAStraddlingRun(t *testing.T) {
	ops := []struct {
		name    string
		deletes bool
		// run finds or removes key's copies and counts them.
		run func(tree *Tree, clk *simclock.Clock, key int64, copies []Entry) (int, error)
	}{
		{"Lookup", false, func(tree *Tree, clk *simclock.Clock, key int64, _ []Entry) (int, error) {
			rids, err := tree.Lookup(clk, key, 0)
			return len(rids), err
		}},
		{"Seek", false, func(tree *Tree, clk *simclock.Clock, key int64, _ []Entry) (int, error) {
			it, err := tree.Seek(clk, key, key, 0)
			for n := 0; err == nil; n++ {
				var ok bool
				if _, ok, err = it.Next(); !ok {
					return n, err
				}
			}
			return 0, err
		}},
		{"DeleteEntry", true, func(tree *Tree, clk *simclock.Clock, _ int64, copies []Entry) (int, error) {
			n := 0
			for _, e := range copies {
				ok, err := tree.DeleteEntry(clk, e, 0)
				if err != nil {
					return n, err
				}
				if ok {
					n++
				}
			}
			return n, nil
		}},
		{"Delete", true, func(tree *Tree, clk *simclock.Clock, key int64, _ []Entry) (int, error) {
			return tree.Delete(clk, key, 0)
		}},
	}
	for name, grow := range map[string]bool{"built": false, "inserted": true} {
		for _, op := range ops {
			t.Run(name+"/"+op.name, func(t *testing.T) {
				h, tree, all := straddleTree(t, grow)
				for _, k := range spanningRuns(t, h, tree) {
					copies := truthRange(all, k, k)
					if n, err := op.run(tree, &h.clk, k, copies); err != nil || n != len(copies) {
						t.Fatalf("key %d: %s saw %d of %d copies (%v)", k, op.name, n, len(copies), err)
					}
					if !op.deletes {
						continue
					}
					if rids, err := tree.Lookup(&h.clk, k, 0); err != nil || len(rids) != 0 {
						t.Fatalf("key %d: %d copies left after %s (%v)", k, len(rids), op.name, err)
					}
					for _, nb := range []int64{k - 10, k + 10} {
						if rids, _ := tree.Lookup(&h.clk, nb, 0); len(rids) != len(truthRange(all, nb, nb)) {
							t.Fatalf("key %d: neighbour %d lost entries to %s", k, nb, op.name)
						}
					}
				}
			})
		}
	}
}

func TestFanoutConstants(t *testing.T) {
	if LeafCap < 400 || InternalCap < 400 {
		t.Fatalf("suspicious fan-outs: leaf=%d internal=%d", LeafCap, InternalCap)
	}
}

var sinkRIDs []catalog.RID

// BenchmarkLookup is a point lookup of a unique key in a three-level
// tree held by the pool: meta page, root, leaf twice (descend, seek).
func BenchmarkLookup(b *testing.B) {
	h := newHarness(b)
	const n = 100000
	tree := buildTree(b, h, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rids, err := tree.Lookup(&h.clk, int64(i*7919)%n, 0)
		if err != nil || len(rids) != 1 {
			b.Fatal(rids, err)
		}
		sinkRIDs = rids
	}
}

// BenchmarkSeek positions an iterator and reads a 100-entry range.
func BenchmarkSeek(b *testing.B) {
	h := newHarness(b)
	const n = 100000
	tree := buildTree(b, h, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(i*7919) % (n - 100)
		it, err := tree.Seek(&h.clk, lo, lo+99, 0)
		if err != nil {
			b.Fatal(err)
		}
		got := 0
		for {
			_, ok, err := it.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			got++
		}
		if got != 100 {
			b.Fatalf("range of %d entries", got)
		}
	}
}

// TestLookupAllocationBudget: a lookup searches the encoded nodes in
// their frames and allocates its result slice only.
func TestLookupAllocationBudget(t *testing.T) {
	h := newHarness(t)
	tree := buildTree(t, h, 20000)
	k := int64(0)
	if n := testing.AllocsPerRun(200, func() {
		rids, err := tree.Lookup(&h.clk, k%20000, 0)
		if err != nil || len(rids) != 1 {
			t.Fatal(rids, err)
		}
		k += 7919
	}); n > 2 {
		t.Errorf("Lookup of a unique key allocates %.1f times, want <= 2", n)
	}
}

// TestInsertAllocationBudget: an insert that splits nothing allocates the
// new leaf image and the meta image, nothing else.
func TestInsertAllocationBudget(t *testing.T) {
	h := newHarness(t)
	tree := buildTree(t, h, 20000)
	k := int64(0)
	if n := testing.AllocsPerRun(200, func() {
		if err := tree.Insert(&h.clk, Entry{Key: k % 20000, RID: rid(20000 + k)}, 0); err != nil {
			t.Fatal(err)
		}
		k += 7919
	}); n > 2 {
		t.Errorf("Insert without a split allocates %.1f times, want <= 2", n)
	}
}

// BenchmarkInsert is one index insert into a tree held by the pool.
// "nosplit" adds duplicates of existing keys across the 50 leaves of a
// built tree, rebuilt every 2,000 inserts, before any leaf fills;
// "sequential" appends past the largest key, splitting the rightmost leaf
// every half leaf of inserts; "owned" makes 64 inserts into the one leaf
// of a small tree inside one transaction (a bound TxnHooks with no lock
// hook), so that the first insert builds the leaf's image and the rest
// edit it in place, then commits and rebuilds the tree.
func BenchmarkInsert(b *testing.B) {
	b.Run("nosplit", func(b *testing.B) {
		const n = 20000
		h := newHarness(b)
		tree := buildTree(b, h, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%2000 == 0 {
				b.StopTimer()
				tree = buildTree(b, h, n)
				b.StartTimer()
			}
			k := int64(i*7919) % n
			if err := tree.Insert(&h.clk, Entry{Key: k, RID: rid(n + int64(i))}, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("owned", func(b *testing.B) {
		const n, perTxn = 100, 64
		h := newHarness(b)
		var tree *Tree
		var tx *bufferpool.TxnHooks
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%perTxn == 0 {
				b.StopTimer()
				if tx != nil {
					commitTxn(h, tx, int64(i))
				}
				tree = buildTree(b, h, n)
				tx = bindTxn(h, int64(i+1))
				b.StartTimer()
			}
			k := int64(i*37) % n
			if err := tree.Insert(&h.clk, Entry{Key: k, RID: rid(n + int64(i))}, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		h := newHarness(b)
		tree, _, err := Build(&h.clk, h.pool, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tree.Insert(&h.clk, Entry{Key: int64(i), RID: rid(int64(i))}, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDelete removes one key ("key", Delete) or one entry ("entry",
// DeleteEntry) from a built tree of unique keys, rebuilt once every key
// is gone.
func BenchmarkDelete(b *testing.B) {
	const n = 20000
	for _, byEntry := range []bool{false, true} {
		name := "key"
		if byEntry {
			name = "entry"
		}
		b.Run(name, func(b *testing.B) {
			h := newHarness(b)
			tree := buildTree(b, h, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%n == 0 {
					b.StopTimer()
					tree = buildTree(b, h, n)
					b.StartTimer()
				}
				k := int64(i*7919) % n
				var found bool
				var err error
				if byEntry {
					found, err = tree.DeleteEntry(&h.clk, Entry{Key: k, RID: rid(k)}, 0)
				} else {
					var removed int
					removed, err = tree.Delete(&h.clk, k, 0)
					found = removed == 1
				}
				if err != nil || !found {
					b.Fatal(k, found, err)
				}
			}
		})
	}
}

// bindTxn binds an open transaction with no lock hook to h's clock, so
// the tree's writes on it first-touch pages and then edit its own images.
func bindTxn(h *harness, id int64) *bufferpool.TxnHooks {
	tx := &bufferpool.TxnHooks{ID: id}
	h.pool.BindTxn(&h.clk, tx)
	return tx
}

// commitTxn seals and releases tx's pages and unbinds it.
func commitTxn(h *harness, tx *bufferpool.TxnHooks, lsn int64) {
	h.pool.CommitVersions(tx, lsn, lsn)
	h.pool.Release(tx)
	h.pool.UnbindTxn(&h.clk)
}

// page reads a page through a stream with no binding.
func (h *harness) page(t testing.TB, page int64) []byte {
	t.Helper()
	var clk simclock.Clock
	data, err := h.pool.Get(&clk, policy.Tag{Object: 1, Content: policy.Index}, page)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestOwnedEditsMatchNewImages runs one random sequence of inserts,
// entry deletes and key deletes, with splits, on two trees: one inside
// a single transaction, which edits the leaves it already wrote in
// place, and one with no transaction, which builds every image anew.
// Every page must end byte-equal, with the same length and a page of
// capacity, and the edited tree must return what a model holds.
func TestOwnedEditsMatchNewImages(t *testing.T) {
	built := make([]Entry, 0, 600)
	for i := int64(0); i < 600; i++ {
		built = append(built, Entry{Key: i / 3, RID: rid(i)})
	}
	owned, ref := newHarness(t), newHarness(t)
	ot, _, err := Build(&owned.clk, owned.pool, 1, append([]Entry(nil), built...))
	if err != nil {
		t.Fatal(err)
	}
	rt, _, err := Build(&ref.clk, ref.pool, 1, append([]Entry(nil), built...))
	if err != nil {
		t.Fatal(err)
	}
	tx := bindTxn(owned, 1)
	model := append([]Entry(nil), built...)
	rng := rand.New(rand.NewSource(9))
	next := int64(len(built))
	for op := 0; op < 3000; op++ {
		switch r := rng.Intn(10); {
		case r < 6 || len(model) == 0:
			e := Entry{Key: rng.Int63n(250), RID: rid(next)}
			next++
			model = append(model, e)
			for _, h := range []struct {
				tree *Tree
				clk  *simclock.Clock
			}{{ot, &owned.clk}, {rt, &ref.clk}} {
				if err := h.tree.Insert(h.clk, e, 0); err != nil {
					t.Fatal(err)
				}
			}
		case r < 9:
			i := rng.Intn(len(model))
			e := model[i]
			model = append(model[:i], model[i+1:]...)
			a, err1 := ot.DeleteEntry(&owned.clk, e, 0)
			b, err2 := rt.DeleteEntry(&ref.clk, e, 0)
			if err1 != nil || err2 != nil || !a || !b {
				t.Fatalf("op %d: DeleteEntry(%v) = %v %v, %v %v", op, e, a, err1, b, err2)
			}
		default:
			k := model[rng.Intn(len(model))].Key
			kept := model[:0]
			for _, e := range model {
				if e.Key != k {
					kept = append(kept, e)
				}
			}
			want := len(model) - len(kept)
			model = kept
			a, err1 := ot.Delete(&owned.clk, k, 0)
			b, err2 := rt.Delete(&ref.clk, k, 0)
			if err1 != nil || err2 != nil || a != want || b != want {
				t.Fatalf("op %d: Delete(%d) = %d %v, %d %v; want %d", op, k, a, err1, b, err2, want)
			}
		}
	}
	_, pages, err := decodeMeta(owned.page(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if pages < 4 {
		t.Fatalf("the edits split nothing (%d pages)", pages)
	}
	for p := int64(1); p < pages; p++ {
		sameImage(t, fmt.Sprintf("page %d", p), owned.page(t, p), ref.page(t, p))
	}
	commitTxn(owned, tx, 1)
	for k := int64(0); k < 250; k++ {
		var want []catalog.RID
		for _, e := range model {
			if e.Key == k {
				want = append(want, e.RID)
			}
		}
		got, err := ot.Lookup(&owned.clk, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Page != want[j].Page {
				return want[i].Page < want[j].Page
			}
			return want[i].Slot < want[j].Slot
		})
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("key %d: %v, want %v", k, got, want)
		}
	}
}

// TestOwnedInsertsAllocateOnce: in one transaction, the first insert
// into a leaf builds its image, and every later insert into it edits
// that image, allocating only the meta page's 20 bytes.
func TestOwnedInsertsAllocateOnce(t *testing.T) {
	h := newHarness(t)
	tree := buildTree(t, h, 100)
	tx := bindTxn(h, 1)
	k := int64(0)
	insert := func() {
		if err := tree.Insert(&h.clk, Entry{Key: k % 100, RID: rid(100 + k)}, 0); err != nil {
			t.Fatal(err)
		}
		k += 37
	}
	insert()
	if n := testing.AllocsPerRun(60, insert); n > 1 {
		t.Errorf("a repeat insert into an owned leaf allocates %.1f times, want the meta image only", n)
	}
	commitTxn(h, tx, 1)
	if n := testing.AllocsPerRun(10, insert); n < 2 {
		t.Errorf("an insert with no transaction allocates %.1f times, want a new leaf image and the meta image", n)
	}
}

// TestOwnedEditsKeepCommittedImage: repeat edits of a leaf leave the
// pending version (the committed leaf) unchanged byte for byte, so a
// snapshot bound before them reads the committed entries, and after the
// seal the leaf is no longer the transaction's to edit.
func TestOwnedEditsKeepCommittedImage(t *testing.T) {
	h := newHarness(t)
	tree := buildTree(t, h, 100)
	committed := crc32.ChecksumIEEE(h.page(t, 1))
	var snap simclock.Clock
	h.pool.BindSnapshot(&snap, func() int64 { return 0 })
	tx := bindTxn(h, 1)
	pre := func() []byte {
		var got []byte
		if err := h.pool.Touched(tx, func(_ pagestore.ObjectID, page int64, pre, _ []byte) error {
			if page == 1 {
				got = pre
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	for i := int64(0); i < 20; i++ {
		if err := tree.Insert(&h.clk, Entry{Key: 1000 + i, RID: rid(1000 + i)}, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := tree.DeleteEntry(&h.clk, Entry{Key: i, RID: rid(i)}, 0); err != nil {
			t.Fatal(err)
		}
		if i > 0 && !h.pool.Owned(&h.clk, tree.tag(0), 1, h.page(t, 1)) {
			t.Fatalf("edit %d: the leaf is not the transaction's own", i)
		}
		if sum := crc32.ChecksumIEEE(pre()); sum != committed {
			t.Fatalf("edit %d: the pending version's checksum moved to %08x from %08x", i, sum, committed)
		}
	}
	for _, probe := range []struct {
		key  int64
		want int
	}{{0, 1}, {19, 1}, {1000, 0}, {1019, 0}} {
		if rids, err := tree.Lookup(&snap, probe.key, 0); err != nil || len(rids) != probe.want {
			t.Fatalf("snapshot lookup of %d: %v %v, want %d", probe.key, rids, err, probe.want)
		}
	}
	commitTxn(h, tx, 1)
	if h.pool.Owned(&h.clk, tree.tag(0), 1, h.page(t, 1)) {
		t.Fatal("the leaf is still owned after the commit")
	}
	if rids, err := tree.Lookup(&snap, 1019, 0); err != nil || len(rids) != 0 {
		t.Fatalf("after the commit the snapshot finds %v %v", rids, err)
	}
}

// TestOwnedLeafBesideUnboundLookup pins down the rule that makes
// in-place edits safe beside a stream with no transaction bound: such a
// stream takes no lock, so it may read the index a transaction writes,
// but not the leaf that transaction edits. Here an unbound stream looks
// up keys in the tree's second leaf while one transaction inserts into
// the first, the meta page and root changing under both; under -race
// any byte the two share is reported. An unbound reader of the edited
// leaf itself would be a data race, which is why the experiments run no
// index probe beside OLTP on an index the OLTP mix writes.
func TestOwnedLeafBesideUnboundLookup(t *testing.T) {
	h := newHarness(t)
	tree := buildTree(t, h, 1000)
	leafOf := func(key int64) int64 {
		page, err := tree.descend(&h.clk, key, 0)
		if err != nil {
			t.Fatal(err)
		}
		return page
	}
	first, second := leafOf(0), leafOf(500)
	if first == second || leafOf(390) != first || leafOf(800) != second {
		t.Fatalf("keys 0-390 and 500-800 do not sit in two leaves (%d, %d)", first, second)
	}
	tx := bindTxn(h, 1)
	done := make(chan error)
	go func() {
		var clk simclock.Clock
		for i := int64(0); i < 400; i++ {
			k := 500 + i%300
			rids, err := tree.Lookup(&clk, k, 0)
			if err != nil || len(rids) != 1 || rids[0] != rid(k) {
				done <- fmt.Errorf("unbound lookup of %d: %v %v", k, rids, err)
				return
			}
		}
		done <- nil
	}()
	for i := int64(0); i < 40; i++ {
		if err := tree.Insert(&h.clk, Entry{Key: i * 10, RID: rid(1000 + i)}, 0); err != nil {
			t.Fatal(err)
		}
		if i > 0 && !h.pool.Owned(&h.clk, tree.tag(0), first, h.page(t, first)) {
			t.Fatalf("insert %d: the first leaf is not the transaction's own", i)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if h.pool.Owned(&h.clk, tree.tag(0), second, h.page(t, second)) {
		t.Fatal("the leaf only the unbound stream read is owned")
	}
	commitTxn(h, tx, 1)
}
