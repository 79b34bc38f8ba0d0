package hybrid

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
)

func newTestCache(t *testing.T, blocks int) *priorityPolicy {
	t.Helper()
	sys, err := New(Config{Mode: HStorage, CacheBlocks: blocks})
	if err != nil {
		t.Fatal(err)
	}
	return sys.(*core).pol.(*priorityPolicy)
}

func read(c dss.Class, lba int64, blocks int) dss.Request {
	return dss.Request{Op: device.Read, LBA: lba, Blocks: blocks, Class: c}
}

func write(c dss.Class, lba int64, blocks int) dss.Request {
	return dss.Request{Op: device.Write, LBA: lba, Blocks: blocks, Class: c}
}

func TestSequentialNeverCached(t *testing.T) {
	c := newTestCache(t, 64)
	space := dss.DefaultPolicySpace()
	c.Submit(0, read(space.Sequential(), 0, 32))
	if got := c.Stats().CachedBlocks; got != 0 {
		t.Fatalf("sequential read cached %d blocks", got)
	}
	if c.Stats().Bypasses != 32 {
		t.Fatalf("bypasses = %d, want 32", c.Stats().Bypasses)
	}
}

func TestRandomReadAllocates(t *testing.T) {
	c := newTestCache(t, 64)
	c.Submit(0, read(2, 0, 8))
	s := c.Stats()
	if s.CachedBlocks != 8 || s.ReadAllocs != 8 {
		t.Fatalf("cached=%d readAllocs=%d, want 8/8", s.CachedBlocks, s.ReadAllocs)
	}
	// Second access: all hits.
	c.Submit(0, read(2, 0, 8))
	if got := c.Stats().Hits; got != 8 {
		t.Fatalf("hits = %d, want 8", got)
	}
}

func TestTempWriteThenReadHits(t *testing.T) {
	c := newTestCache(t, 64)
	space := dss.DefaultPolicySpace()
	c.Submit(0, write(space.Temporary(), 100, 16))
	c.Submit(0, read(space.Temporary(), 100, 16))
	s := c.Stats()
	cs := s.Class(space.Temporary())
	if cs.ReadHits != 16 {
		t.Fatalf("temp read hits = %d, want 16 (100%% per Section 6.3.3)", cs.ReadHits)
	}
}

func TestSelectiveEvictionOrder(t *testing.T) {
	// Fill with priority 5 blocks, then priority 2 arrivals must evict
	// them (5 >= 2); a further priority-6 arrival must be refused
	// (all cached blocks outrank it) and bypass.
	c := newTestCache(t, 4)
	c.Submit(0, read(5, 0, 4))
	if c.Stats().CachedBlocks != 4 {
		t.Fatal("setup failed")
	}
	c.Submit(0, read(2, 100, 2))
	s := c.Stats()
	if s.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", s.Evictions)
	}
	if g2, g5 := c.group(2).len(), c.group(5).len(); g2 != 2 || g5 != 2 {
		t.Fatalf("groups 2 and 5 hold %d and %d blocks, want 2 each", g2, g5)
	}

	// Now cache holds prios {2,2,5,5}. Incoming priority 6 must bypass:
	// the eviction candidate group is 5, and 5 < 6.
	before := c.Stats().Bypasses
	c.Submit(0, read(6, 200, 1))
	if c.Stats().Bypasses != before+1 {
		t.Fatalf("low-priority arrival was not refused")
	}
	if c.Stats().CachedBlocks != 4 {
		t.Fatalf("cache content changed: %d", c.Stats().CachedBlocks)
	}
}

func TestLRUWithinGroup(t *testing.T) {
	c := newTestCache(t, 3)
	c.Submit(0, read(3, 0, 1))
	c.Submit(0, read(3, 1, 1))
	c.Submit(0, read(3, 2, 1))
	// Touch block 0 so block 1 becomes the group's LRU.
	c.Submit(0, read(3, 0, 1))
	// New arrival evicts the least-recently-used member of group 3.
	c.Submit(0, read(3, 50, 1))
	if _, ok := c.table[1]; ok {
		t.Fatal("LRU victim (block 1) still cached")
	}
	if _, ok := c.table[0]; !ok {
		t.Fatal("recently used block 0 was evicted")
	}
}

func TestNonEvictionHitPreservesPriority(t *testing.T) {
	c := newTestCache(t, 8)
	space := dss.DefaultPolicySpace()
	c.Submit(0, read(2, 0, 1))
	// A sequential request touching the cached block must not change its
	// priority (Rule 1: "non-caching and non-eviction").
	c.Submit(0, read(space.Sequential(), 0, 1))
	if got := c.table[0].class; got != 2 {
		t.Fatalf("priority changed to %d by a sequential hit", got)
	}
	if c.Stats().Hits != 1 {
		t.Fatalf("sequential request on cached block should still hit (got %d)", c.Stats().Hits)
	}
}

func TestEvictionClassDemotes(t *testing.T) {
	c := newTestCache(t, 8)
	space := dss.DefaultPolicySpace()
	c.Submit(0, read(2, 0, 1))
	c.Submit(0, read(2, 1, 1))
	// "Non-caching and eviction" read: block 0 becomes evictable first.
	c.Submit(0, read(space.Eviction(), 0, 1))
	if got := c.table[0].class; got != int(space.Eviction()) {
		t.Fatalf("block not demoted: group %d", got)
	}
	// Fill the cache; the demoted block must go first.
	c.Submit(0, read(4, 100, 7))
	if _, ok := c.table[0]; ok {
		t.Fatal("demoted block survived eviction pressure")
	}
	if _, ok := c.table[1]; !ok {
		t.Fatal("untouched priority-2 block was evicted before the demoted one")
	}
}

func TestEvictionClassDoesNotAdmit(t *testing.T) {
	c := newTestCache(t, 8)
	space := dss.DefaultPolicySpace()
	c.Submit(0, read(space.Eviction(), 0, 4))
	if c.Stats().CachedBlocks != 0 {
		t.Fatal("eviction-class read admitted blocks")
	}
}

func TestReallocationBetweenPriorities(t *testing.T) {
	c := newTestCache(t, 8)
	c.Submit(0, read(4, 0, 1))
	c.Submit(0, read(2, 0, 1)) // re-access at higher priority
	if got := c.table[0].class; got != 2 {
		t.Fatalf("block in group %d, want re-allocated to 2", got)
	}
	if c.Stats().Reallocs != 1 {
		t.Fatalf("reallocs = %d, want 1", c.Stats().Reallocs)
	}
}

func TestWriteBufferFlush(t *testing.T) {
	// Capacity 100, b = 10% -> flush when write-buffer occupancy
	// exceeds 10 blocks.
	c := newTestCache(t, 100)
	for i := int64(0); i < 10; i++ {
		c.Submit(0, write(dss.ClassWriteBuffer, i, 1))
	}
	if c.Stats().WBFlushes != 0 {
		t.Fatalf("flushed before exceeding b")
	}
	c.Submit(0, write(dss.ClassWriteBuffer, 10, 1))
	s := c.Stats()
	if s.WBFlushes != 1 {
		t.Fatalf("WBFlushes = %d, want 1", s.WBFlushes)
	}
	if n := c.group(wbGroup).len(); n != 0 {
		t.Fatalf("write buffer not emptied: %d", n)
	}
	// Flushed dirty blocks must have been written to the HDD once the
	// deferred destages are released; adjacent destages coalesce, so
	// count blocks rather than accesses.
	c.Sched().Drain()
	if w := c.HDD().Stats().BlocksWrite; w != 11 {
		t.Fatalf("HDD blocks written = %d, want 11 (flushed buffer)", w)
	}
}

// order lists group g's blocks from its MRU to its LRU end.
func (c *priorityPolicy) order(g int) []int64 {
	var lbns []int64
	l := c.group(g)
	for b := l.root.next; b != &l.root; b = b.next {
		lbns = append(lbns, b.lbn)
	}
	return lbns
}

// TestFlushKeepsTopRegularPriority: a flush clears the dirty bit and the
// pin and nothing else. Whatever a block was before it was updated — read
// at class 4, or write-allocated into the buffer and never read — it
// leaves the buffer for RandLow in the order it was written, not for the
// group eviction empties first.
func TestFlushKeepsTopRegularPriority(t *testing.T) {
	space := dss.DefaultPolicySpace()
	c := newTestCache(t, 100) // b = 10 blocks
	c.Submit(0, read(4, 0, 3))
	writes := []int64{2, 101, 1, 102, 103, 104, 105, 106, 107, 108, 0}
	for _, lbn := range writes {
		c.Submit(0, write(dss.ClassWriteBuffer, lbn, 1))
	}
	s := c.Stats()
	if s.WBFlushes != 1 || s.Reallocs != 0 {
		t.Fatalf("flushes=%d reallocs=%d, want 1/0", s.WBFlushes, s.Reallocs)
	}
	// Every group is listed, and the cache holds nothing but the flushed
	// blocks: all of them are in RandLow.
	if len(s.GroupBlocks) != space.N+2 || s.CachedBlocks != len(writes) || s.GroupBlocks[dss.Class(space.RandLow)] != len(writes) {
		t.Fatalf("%d blocks cached in %d groups %v, want %d priorities, the buffer and the log with all %d blocks in RandLow",
			s.CachedBlocks, len(s.GroupBlocks), s.GroupBlocks, space.N, len(writes))
	}
	got := c.order(space.RandLow)
	if len(got) != len(writes) {
		t.Fatalf("RandLow holds %v, want the %d flushed blocks", got, len(writes))
	}
	for i, lbn := range got {
		if want := writes[len(writes)-1-i]; lbn != want {
			t.Fatalf("RandLow from its MRU end holds %v, want the reverse of the write order %v", got, writes)
		}
		if c.table[lbn].dirty {
			t.Fatalf("flushed block %d is still dirty", lbn)
		}
	}
	c.checkInvariants(t)
}

// TestFlushedBlocksOutliveLowPriorityReads: under eviction pressure from
// class-6 admissions every flushed block stays while group 6 turns over
// completely, and a later read at class 5 is an ordinary re-allocation.
func TestFlushedBlocksOutliveLowPriorityReads(t *testing.T) {
	c := newTestCache(t, 40) // b = 4 blocks
	c.Submit(0, read(4, 0, 1))
	flushed := []int64{0, 101, 102, 103, 104}
	for _, lbn := range flushed {
		c.Submit(0, write(dss.ClassWriteBuffer, lbn, 1))
	}
	if s := c.Stats(); s.WBFlushes != 1 {
		t.Fatalf("setup: %d flushes, want 1", s.WBFlushes)
	}
	c.Submit(0, read(6, 200, 35)) // fills the cache
	c.Submit(0, read(6, 300, 70)) // turns group 6 over twice
	s := c.Stats()
	if s.Evictions != 70 || s.GroupBlocks[6] != 35 {
		t.Fatalf("evictions=%d groups=%v, want 70 evictions, all of them from group 6", s.Evictions, s.GroupBlocks)
	}
	for lbn := int64(200); lbn < 235; lbn++ {
		if c.table[lbn] != nil {
			t.Fatalf("class-6 block %d outlived the pressure", lbn)
		}
	}
	for _, lbn := range flushed {
		if c.table[lbn] == nil {
			t.Fatalf("flushed block %d was evicted ahead of read-once class-6 blocks", lbn)
		}
	}
	c.checkInvariants(t)

	c.Submit(0, read(5, 0, 1))
	if s := c.Stats(); c.table[0].class != 5 || s.Reallocs != 1 || s.GroupBlocks[5] != 1 {
		t.Fatalf("class-5 read left block 0 in group %d after %d re-allocations, want group 5 and 1", c.table[0].class, s.Reallocs)
	}
	c.checkInvariants(t)
}

func TestWriteBufferWinsOverAnyPriority(t *testing.T) {
	c := newTestCache(t, 40)
	c.Submit(0, read(2, 0, 40)) // fill with the highest random priority
	c.Submit(0, write(dss.ClassWriteBuffer, 100, 1))
	if c.Stats().Evictions != 1 {
		t.Fatalf("write buffer failed to claim space: evictions=%d", c.Stats().Evictions)
	}
	if _, ok := c.table[100]; !ok {
		t.Fatal("update block not buffered")
	}
	if n := c.group(wbGroup).len(); n != 1 {
		t.Fatalf("write buffer holds %d blocks, want 1", n)
	}
}

func TestTrimInvalidates(t *testing.T) {
	c := newTestCache(t, 64)
	space := dss.DefaultPolicySpace()
	c.Submit(0, write(space.Temporary(), 0, 16))
	if c.Stats().CachedBlocks != 16 {
		t.Fatal("setup failed")
	}
	hddWrites := c.HDD().Stats().Writes
	c.Submit(0, dss.Request{Kind: dss.Trim, LBA: 0, Blocks: 16, Class: space.Eviction()})
	s := c.Stats()
	if s.CachedBlocks != 0 || s.Trimmed != 16 {
		t.Fatalf("cached=%d trimmed=%d, want 0/16", s.CachedBlocks, s.Trimmed)
	}
	// Dead temporary data must not be written back.
	if c.HDD().Stats().Writes != hddWrites {
		t.Fatal("TRIM wrote dead blocks to the HDD")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	c := newTestCache(t, 2)
	c.Submit(0, write(3, 0, 2)) // two dirty blocks
	c.Submit(0, read(2, 100, 1))
	s := c.Stats()
	if s.DirtyEvict != 1 {
		t.Fatalf("dirtyEvict = %d, want 1", s.DirtyEvict)
	}
	c.Sched().Drain() // release the deferred destage
	if c.HDD().Stats().Writes != 1 {
		t.Fatalf("HDD writes = %d, want 1", c.HDD().Stats().Writes)
	}
}

// TestDestageBilledToLastToucher: a dirty block one tenant wrote and
// another touched since is destaged on the HDD scheduler under the
// tenant that touched it last.
func TestDestageBilledToLastToucher(t *testing.T) {
	c := newTestCache(t, 1)
	w := write(3, 0, 1)
	w.Tenant = 1
	r := read(3, 0, 1)
	r.Tenant = 2
	at := c.Submit(0, w)
	at = c.Submit(at, r)          // a hit: tenant 2 touched the block last
	c.Submit(at, read(2, 100, 1)) // evicts the dirty block
	c.Sched().Drain()
	ts := c.hddS.TenantStats()
	if ts[1].BackgroundBlocks != 0 || ts[2].BackgroundBlocks != 1 {
		t.Fatalf("destage billed to %+v, want one block on tenant 2 only", ts)
	}
}

func TestUnclassifiedBypasses(t *testing.T) {
	c := newTestCache(t, 8)
	c.Submit(0, read(dss.ClassNone, 0, 4))
	if c.Stats().CachedBlocks != 0 {
		t.Fatal("unclassified request was cached")
	}
}

// Invariant check used by the property test.
func (c *priorityPolicy) checkInvariants(t *testing.T) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cached > c.capacity {
		t.Fatalf("occupancy %d exceeds capacity %d", c.cached, c.capacity)
	}
	// Every table entry is on exactly the list its class names.
	on := map[*blockMeta]int{}
	total := 0
	for i := range c.groups {
		g, id := &c.groups[i], i+logGroup
		total += g.len()
		for b := g.root.next; b != &g.root; b = b.next {
			if b.class != id {
				t.Fatalf("block %d in group %d tagged %d", b.lbn, id, b.class)
			}
			on[b]++
		}
	}
	if total != c.cached || total != len(c.table) {
		t.Fatalf("group total %d, cached %d, table %d diverge", total, c.cached, len(c.table))
	}
	for lbn, m := range c.table {
		if m.lbn != lbn || on[m] != 1 {
			t.Fatalf("table entry %d (lbn %d) is on %d lists", lbn, m.lbn, on[m])
		}
	}
}

// TestRandomizedInvariants hammers the cache with a random request mix
// and checks structural invariants throughout.
func TestRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := newTestCache(t, 32)
	space := dss.DefaultPolicySpace()
	classes := []dss.Class{
		space.Temporary(), 2, 3, 4, 5, 6,
		space.Sequential(), space.Eviction(), dss.ClassWriteBuffer, dss.ClassNone,
	}
	var at time.Duration
	for i := 0; i < 5000; i++ {
		cl := classes[rng.Intn(len(classes))]
		lba := int64(rng.Intn(128))
		blocks := 1 + rng.Intn(4)
		var req dss.Request
		switch rng.Intn(5) {
		case 0:
			req = write(cl, lba, blocks)
		case 1:
			req = dss.Request{Kind: dss.Trim, LBA: lba, Blocks: blocks, Class: space.Eviction()}
		default:
			req = read(cl, lba, blocks)
		}
		at = c.Submit(at, req)
		if i%100 == 0 {
			c.checkInvariants(t)
		}
	}
	c.checkInvariants(t)
	s := c.Stats()
	if s.Hits == 0 {
		t.Fatal("random mix produced no cache hits at all")
	}
}

// TestCompactionPreservesResidency: compaction sweeping over blocks
// some foreground class cached neither admits new blocks (non-caching)
// nor disturbs the residency the foreground class earned — and, being
// a negative class outside the group array, it must not panic the
// reallocation switch.
func TestCompactionPreservesResidency(t *testing.T) {
	c := newTestCache(t, 64)
	c.Submit(0, read(2, 0, 8))
	if got := c.Stats().CachedBlocks; got != 8 {
		t.Fatalf("setup cached %d blocks", got)
	}
	// Compaction rereads the cached range and writes a fresh one.
	c.Submit(0, read(dss.ClassCompaction, 0, 8))
	c.Submit(0, write(dss.ClassCompaction, 100, 8))
	s := c.Stats()
	if s.CachedBlocks != 8 {
		t.Fatalf("compaction changed residency: %d cached", s.CachedBlocks)
	}
	if s.Reallocs != 0 {
		t.Fatalf("compaction reallocated %d blocks", s.Reallocs)
	}
	// The foreground blocks still hit at their original priority.
	c.Submit(0, read(2, 0, 8))
	if got := c.Stats().Hits; got < 16 {
		t.Fatalf("hits = %d, want >= 16", got)
	}
}

// TestPinnedLogBlockIgnoresWriteBufferRequests: a (malformed) request
// carrying the write-buffer class cannot demote a pinned log block — the
// first exception re-allocation keeps — nor get it flushed: the block
// stays dirty in the log group and the HDD never sees it.
func TestPinnedLogBlockIgnoresWriteBufferRequests(t *testing.T) {
	c := newTestCache(t, 16)
	c.Submit(0, write(dss.ClassLog, 5, 1))
	if got := c.table[5].class; got != logGroup {
		t.Fatalf("log write landed in group %d", got)
	}
	for _, req := range []dss.Request{read(dss.ClassWriteBuffer, 5, 1), write(dss.ClassWriteBuffer, 5, 1)} {
		c.Submit(0, req)
		if got := c.table[5].class; got != logGroup {
			t.Fatalf("%v moved the pinned log block to group %d", req, got)
		}
	}
	s := c.Stats()
	if s.Reallocs != 0 || s.Hits != 2 || c.group(wbGroup).len() != 0 {
		t.Fatalf("reallocs=%d hits=%d buffered=%d, want 0/2/0", s.Reallocs, s.Hits, c.group(wbGroup).len())
	}
	c.Sched().Drain()
	if !c.table[5].dirty || c.HDD().Stats().Writes != 0 {
		t.Fatalf("log block dirty=%v, HDD writes %d: want dirty and none", c.table[5].dirty, c.HDD().Stats().Writes)
	}
}

// TestLogRewriteStaysOnTheSSD: a log write is a dirty block in the log
// group and nothing more. Rewriting the log's tail block on every flush
// costs one SSD write each and no HDD write at all.
func TestLogRewriteStaysOnTheSSD(t *testing.T) {
	c := newTestCache(t, 16)
	for i := 0; i < 10; i++ {
		c.Submit(0, write(dss.ClassLog, 5, 1))
	}
	c.Submit(0, write(dss.ClassLog, 6, 1))
	c.Sched().Drain()
	if w := c.HDD().Stats().Writes; w != 0 {
		t.Fatalf("log writes reached the HDD %d times", w)
	}
	if w := c.SSD().Stats().Writes; w != 11 {
		t.Fatalf("SSD writes = %d, want 11", w)
	}
	for _, lbn := range []int64{5, 6} {
		if m := c.table[lbn]; m == nil || m.class != logGroup || !m.dirty {
			t.Fatalf("log block %d: %+v, want dirty in the log group", lbn, m)
		}
	}
	if s := c.Stats(); s.Hits != 9 || s.WriteAllocs != 2 {
		t.Fatalf("hits=%d writeAllocs=%d, want 9/2", s.Hits, s.WriteAllocs)
	}
}

// TestTrimDropsDirtyLogBlocks: log truncation TRIMs the segment, and its
// dirty blocks leave the cache with no write-back: the HDD never
// receives a log block.
func TestTrimDropsDirtyLogBlocks(t *testing.T) {
	c := newTestCache(t, 16)
	c.Submit(0, write(dss.ClassLog, 0, 4))
	c.Submit(0, dss.Request{Kind: dss.Trim, LBA: 0, Blocks: 4, Class: dss.DefaultPolicySpace().Eviction()})
	c.Sched().Drain()
	s := c.Stats()
	if s.CachedBlocks != 0 || s.Trimmed != 4 || s.DirtyEvict != 0 {
		t.Fatalf("cached=%d trimmed=%d dirtyEvict=%d, want 0/4/0", s.CachedBlocks, s.Trimmed, s.DirtyEvict)
	}
	if w := c.HDD().Stats().Writes; w != 0 {
		t.Fatalf("TRIM wrote %d log blocks back to the HDD", w)
	}
	c.checkInvariants(t)
}

// TestFullPinnedCacheBypassesLog: with every slot held by pinned log
// blocks there is nothing to evict, so the next log write goes to the
// HDD directly, on the caller's time, and the cache is unchanged.
func TestFullPinnedCacheBypassesLog(t *testing.T) {
	c := newTestCache(t, 4)
	c.Submit(0, write(dss.ClassLog, 0, 4))
	done := c.Submit(0, write(dss.ClassLog, 10, 1))
	s := c.Stats()
	if s.Bypasses != 1 || s.CachedBlocks != 4 || c.table[10] != nil {
		t.Fatalf("bypasses=%d cached=%d, block 10 cached %v: want 1/4/false", s.Bypasses, s.CachedBlocks, c.table[10] != nil)
	}
	if w := c.HDD().Stats().Writes; w != 1 || done <= 0 {
		t.Fatalf("HDD writes %d, completion %v: want the write on the HDD, foreground", w, done)
	}
	c.checkInvariants(t)
}

// TestScanAndCompactionHitsLeaveLayoutAlone: a sequential or compaction
// request hitting a cached block changes neither its group nor its LRU
// position — the second exception re-allocation keeps.
func TestScanAndCompactionHitsLeaveLayoutAlone(t *testing.T) {
	c := newTestCache(t, 16)
	c.Submit(0, read(3, 0, 3)) // group 3, MRU to LRU: 2 1 0
	lru := c.table[0]
	for _, req := range []dss.Request{
		read(dss.DefaultPolicySpace().Sequential(), 0, 1),
		read(dss.ClassCompaction, 0, 1),
		write(dss.ClassCompaction, 0, 1),
	} {
		c.Submit(0, req)
		if lru.class != 3 || c.group(3).back() != lru {
			t.Fatalf("%v moved block 0: group %d, LRU end of group 3 is block %d", req, lru.class, c.group(3).back().lbn)
		}
	}
	if s := c.Stats(); s.Reallocs != 0 || s.Hits != 3 {
		t.Fatalf("reallocs=%d hits=%d, want 0/3", s.Reallocs, s.Hits)
	}
}

// TestScanReadsTheFreeCopy: a sequential read of a cached block is served
// by whichever copy costs nothing extra — the HDD when its head stands at
// the block (and the grant reads ahead like any scan miss), the HDD's
// readahead buffer when it holds the block (no device access, and the
// entry stays) — and from the SSD when the block is dirty or neither
// holds. No row moves the block within or between groups.
func TestScanReadsTheFreeCopy(t *testing.T) {
	seq := dss.DefaultPolicySpace().Sequential()
	const lbn = 100
	for _, tc := range []struct {
		name  string
		setup []dss.Request
		// Where the setup leaves the HDD: its head at the block, its
		// readahead buffer holding it.
		atHead, buffered bool
		// Deltas of the scan read: SSD reads, HDD blocks read, HDD blocks
		// read ahead, hits, bypasses.
		ssd, hdd, prefetch, hits, bypasses int64
	}{
		{name: "clean at the HDD head", // class 3 reads put the head at lbn
			setup:  []dss.Request{read(3, lbn, 3), read(3, lbn-1, 1)},
			atHead: true,
			hdd:    33, prefetch: 32, bypasses: 1},
		{name: "clean in the readahead buffer", // the scan miss of lbn-1 reads ahead over lbn
			setup:    []dss.Request{read(3, lbn, 3), read(seq, lbn-1, 1)},
			buffered: true,
			bypasses: 1},
		{name: "dirty in the buffer", // the HDD's buffered copy is stale
			setup:    []dss.Request{read(seq, lbn-1, 1), write(dss.ClassWriteBuffer, lbn, 1)},
			buffered: true,
			ssd:      1, hits: 1},
		{name: "dirty at the HDD head",
			setup:  []dss.Request{write(dss.ClassWriteBuffer, lbn, 1), read(3, lbn-1, 1)},
			atHead: true,
			ssd:    1, hits: 1},
		{name: "clean, neither at the head nor buffered", // the head stands at lbn+3
			setup: []dss.Request{read(3, lbn, 3)},
			ssd:   1, hits: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCache(t, 100)
			for _, req := range tc.setup {
				c.Submit(0, req)
			}
			meta := c.table[lbn]
			if meta == nil {
				t.Fatal("setup left the block uncached")
			}
			group, order, dirty := meta.class, c.order(meta.class), meta.dirty
			ready, buffered := c.hddS.Buffered(lbn)
			if atHead := c.HDD().HeadLBA() == lbn; atHead != tc.atHead || buffered != tc.buffered {
				t.Fatalf("setup: block at the head %v, buffered %v, want %v and %v", atHead, buffered, tc.atHead, tc.buffered)
			}
			s0, ssd0, hdd0, pf0 := c.Stats(), c.SSD().Stats(), c.HDD().Stats(), c.hddS.Stats()

			done := c.Submit(0, read(seq, lbn, 1))

			s1, ssd1, hdd1, pf1 := c.Stats(), c.SSD().Stats(), c.HDD().Stats(), c.hddS.Stats()
			got := [5]int64{ssd1.Reads - ssd0.Reads, hdd1.BlocksRead - hdd0.BlocksRead,
				pf1.PrefetchBlocks - pf0.PrefetchBlocks, s1.Hits - s0.Hits, s1.Bypasses - s0.Bypasses}
			if want := [5]int64{tc.ssd, tc.hdd, tc.prefetch, tc.hits, tc.bypasses}; got != want {
				t.Fatalf("SSD reads, HDD blocks, prefetched, hits, bypasses = %v, want %v", got, want)
			}
			if buffered {
				// Whoever serves it, the look leaves the entry in place; the
				// buffer serves it at its ready time.
				if _, still := c.hddS.Buffered(lbn); !still {
					t.Fatal("the scan read consumed the buffer entry")
				}
				if fromBuffer := tc.ssd == 0; fromBuffer && done != ready {
					t.Fatalf("buffered block completed at %v, want the buffer's ready time %v", done, ready)
				}
			}
			if meta.class != group || meta.dirty != dirty || !reflect.DeepEqual(c.order(group), order) {
				t.Fatalf("scan moved the block: group %d -> %d, order %v -> %v", group, meta.class, order, c.order(group))
			}
			c.checkInvariants(t)
		})
	}
}

// TestClassBlindScanHitsStayOnTheSSD: LRU and ARC cannot tell a scan
// from a lookup, so a cached block is a hit served by the SSD even when
// the HDD's readahead buffer or its head holds it.
func TestClassBlindScanHitsStayOnTheSSD(t *testing.T) {
	seq := dss.DefaultPolicySpace().Sequential()
	for _, mode := range []Mode{LRU, ARC} {
		sys, err := New(Config{Mode: mode, CacheBlocks: 100})
		if err != nil {
			t.Fatal(err)
		}
		c := sys.(*core)
		scanHitsTheSSD := func(lbn int64) {
			t.Helper()
			hits, ssd, hdd := c.Stats().Hits, c.SSD().Stats().Reads, c.HDD().Stats().BlocksRead
			c.Submit(0, read(seq, lbn, 1))
			if c.Stats().Hits != hits+1 || c.SSD().Stats().Reads != ssd+1 || c.HDD().Stats().BlocksRead != hdd {
				t.Fatalf("%v: scan read of cached block %d was not an SSD hit", mode, lbn)
			}
		}
		c.Submit(0, read(3, 100, 3))
		c.Submit(0, read(seq, 99, 1)) // admitted too, and read ahead over 100..
		if _, ok := c.hddS.Buffered(100); !ok {
			t.Fatalf("%v: setup left block 100 unbuffered", mode)
		}
		scanHitsTheSSD(100)
		c.Submit(0, read(3, 98, 1))
		if h := c.HDD().HeadLBA(); h != 99 {
			t.Fatalf("%v: setup left the head at %d, want 99", mode, h)
		}
		scanHitsTheSSD(99)
	}
}

// TestWriteBufferOccupancyFollowsTheList: the flush threshold b counts
// exactly the blocks on the buffer's list, through hit-promotions into
// the buffer, TRIM of buffered blocks and the b = 0 drop path.
func TestWriteBufferOccupancyFollowsTheList(t *testing.T) {
	buffered := func(c *priorityPolicy) int {
		n := 0
		for _, m := range c.table {
			if m.class == wbGroup {
				n++
			}
		}
		if n != c.group(wbGroup).len() {
			t.Fatalf("%d table entries tagged for the write buffer, %d on its list", n, c.group(wbGroup).len())
		}
		return n
	}
	c := newTestCache(t, 100) // b = 10 blocks
	c.Submit(0, read(2, 0, 6))
	c.Submit(0, write(dss.ClassWriteBuffer, 0, 6))  // six hit-promotions
	c.Submit(0, write(dss.ClassWriteBuffer, 50, 4)) // four allocations
	if got := buffered(c); got != 10 {
		t.Fatalf("buffer holds %d blocks, want 10", got)
	}
	c.Submit(0, dss.Request{Kind: dss.Trim, LBA: 50, Blocks: 3})
	c.Submit(0, read(2, 1, 1)) // a read re-allocates block 1 out of the buffer
	if got := buffered(c); got != 6 {
		t.Fatalf("buffer holds %d blocks after TRIM and re-allocation, want 6", got)
	}
	c.Submit(0, write(dss.ClassWriteBuffer, 60, 4))
	if got, flushes := buffered(c), c.Stats().WBFlushes; got != 10 || flushes != 0 {
		t.Fatalf("buffer holds %d blocks after %d flushes, want 10 and none", got, flushes)
	}
	c.Submit(0, write(dss.ClassWriteBuffer, 70, 1))
	if got, flushes := buffered(c), c.Stats().WBFlushes; got != 0 || flushes != 1 {
		t.Fatalf("buffer holds %d blocks after %d flushes, want an empty buffer and one flush", got, flushes)
	}

	// b = 0: there is no buffer, and an update drops the cached copy.
	space := dss.DefaultPolicySpace()
	space.WriteBufferFrac = 0
	sys, err := New(Config{Mode: HStorage, CacheBlocks: 100, Policy: space})
	if err != nil {
		t.Fatal(err)
	}
	c = sys.(*core).pol.(*priorityPolicy)
	c.Submit(0, read(2, 0, 4))
	c.Submit(0, write(dss.ClassWriteBuffer, 0, 2))
	if s := c.Stats(); buffered(c) != 0 || s.CachedBlocks != 2 || s.Bypasses != 2 {
		t.Fatalf("b=0: buffered=%d cached=%d bypasses=%d, want 0/2/2", buffered(c), s.CachedBlocks, s.Bypasses)
	}
	c.checkInvariants(t)
}
