package btree

import (
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

func newHarness(t testing.TB) *harness {
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
	return &harness{pool: bufferpool.New(mgr, 256)}
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

// refRange is the search path as it was before it read the encoded node
// in place: decodeNode on every page, sort.Search on the decoded slices.
// The in-page search must return exactly what it returns.
func refRange(t testing.TB, h *harness, tree *Tree, lo, hi int64) []Entry {
	t.Helper()
	page, _, err := tree.readMeta(&h.clk, 0)
	if err != nil {
		t.Fatal(err)
	}
	var leaf *leafNode
	for {
		l, internal, err := tree.readNode(&h.clk, page, 0)
		if err != nil {
			t.Fatal(err)
		}
		if l != nil {
			leaf = l
			break
		}
		idx := sort.Search(len(internal.keys), func(i int) bool { return internal.keys[i] > lo })
		page = internal.children[idx]
	}
	var out []Entry
	idx := sort.Search(len(leaf.entries), func(i int) bool { return leaf.entries[i].Key >= lo })
	for {
		for ; idx < len(leaf.entries); idx++ {
			if leaf.entries[idx].Key > hi {
				return out
			}
			out = append(out, leaf.entries[idx])
		}
		if leaf.next < 0 {
			return out
		}
		if leaf, _, err = tree.readNode(&h.clk, leaf.next, 0); err != nil {
			t.Fatal(err)
		}
		idx = 0
	}
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

// spanningRuns counts the leaf boundaries that fall inside a run of
// duplicates (the left leaf ends with the key the right one starts with).
func spanningRuns(t testing.TB, h *harness, tree *Tree) int {
	t.Helper()
	page, err := tree.descend(&h.clk, -1<<62, 0)
	if err != nil {
		t.Fatal(err)
	}
	spans := 0
	for last, first := int64(0), true; page >= 0; first = false {
		leaf, _, err := tree.readNode(&h.clk, page, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(leaf.entries) > 0 {
			if !first && leaf.entries[0].Key == last {
				spans++
			}
			last = leaf.entries[len(leaf.entries)-1].Key
		}
		page = leaf.next
	}
	return spans
}

// checkSearchMatchesRef compares Seek and Lookup with refRange on [lo, hi].
func checkSearchMatchesRef(t testing.TB, h *harness, tree *Tree, lo, hi int64) {
	t.Helper()
	want := refRange(t, h, tree, lo, hi)
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
		got = append(got, e)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Seek(%d, %d): %d entries %v, reference %d entries %v", lo, hi, len(got), got, len(want), want)
	}
	if lo != hi {
		return
	}
	rids, err := tree.Lookup(&h.clk, lo, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != len(want) {
		t.Fatalf("Lookup(%d): %d rids, reference %d", lo, len(rids), len(want))
	}
	for i, e := range want {
		if rids[i] != e.RID {
			t.Fatalf("Lookup(%d)[%d] = %v, reference %v", lo, i, rids[i], e.RID)
		}
	}
}

// Property: the tree agrees with a sorted reference on random workloads,
// and the in-page search agrees with decodeNode + sort.Search.
func TestTreeMatchesReference(t *testing.T) {
	f := func(keysRaw []int16) bool {
		h := newHarness(t)
		tree, _, err := Build(&h.clk, h.pool, 1, nil)
		if err != nil {
			return false
		}
		ref := map[int64]int{}
		for i, kr := range keysRaw {
			k := int64(kr)
			if err := tree.Insert(&h.clk, Entry{Key: k, RID: rid(int64(i))}, 0); err != nil {
				return false
			}
			ref[k]++
		}
		keys := make([]int64, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			rids, err := tree.Lookup(&h.clk, k, 0)
			if err != nil || len(rids) != ref[k] {
				return false
			}
			checkSearchMatchesRef(t, h, tree, k, k)
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}

	// Multi-level trees, bulk-built and grown by inserts, each key five
	// times over so runs of duplicates straddle leaf boundaries. Probed:
	// below the first separator and the smallest key, on and around every
	// separator, above the last separator and the largest key, and ranges
	// across leaves.
	for name, grow := range map[string]bool{"built": false, "inserted": true} {
		t.Run(name, func(t *testing.T) {
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
			} else if tree, _, err = Build(&h.clk, h.pool, 1, entries); err != nil {
				t.Fatal(err)
			}
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
				checkSearchMatchesRef(t, h, tree, k, k)
				checkSearchMatchesRef(t, h, tree, k, k+10*LeafCap/2)
			}
			checkSearchMatchesRef(t, h, tree, -100, 10*n+100)
			if spans := spanningRuns(t, h, tree); spans == 0 {
				t.Fatal("no run of duplicates spans two leaves: the case is not covered")
			}
		})
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
