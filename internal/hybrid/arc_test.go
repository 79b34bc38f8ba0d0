package hybrid

import (
	"math/rand"
	"testing"
	"time"

	"hstoragedb/internal/dss"
)

func newTestARC(t *testing.T, blocks int) *arcPolicy {
	t.Helper()
	sys, err := New(Config{Mode: ARC, CacheBlocks: blocks})
	if err != nil {
		t.Fatal(err)
	}
	return sys.(*core).pol.(*arcPolicy)
}

func (c *arcPolicy) checkInvariants(t *testing.T) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	t1, t2, b1, b2, p := c.len(listT1), c.len(listT2), c.len(listB1), c.len(listB2), c.p
	if t1+t2 > c.capacity {
		t.Fatalf("residents %d exceed capacity %d", t1+t2, c.capacity)
	}
	if t1+b1 > c.capacity {
		t.Fatalf("|T1|+|B1| = %d exceeds c", t1+b1)
	}
	if t1+t2+b1+b2 > 2*c.capacity {
		t.Fatalf("directory %d exceeds 2c", t1+t2+b1+b2)
	}
	if p < 0 || p > c.capacity {
		t.Fatalf("target p=%d out of range", p)
	}
	if len(c.table) != t1+t2+b1+b2 {
		t.Fatalf("table %d vs lists %d", len(c.table), t1+t2+b1+b2)
	}
	if c.cached != t1+t2 {
		t.Fatalf("%d slots held by %d residents", c.cached, t1+t2)
	}
	// Every table entry is on exactly the list its class names.
	on := map[*blockMeta]int{}
	for id := range c.lists {
		l := &c.lists[id]
		for b := l.root.next; b != &l.root; b = b.next {
			if b.class != id {
				t.Fatalf("block %d on list %d tagged %d", b.lbn, id, b.class)
			}
			on[b]++
		}
	}
	for lbn, m := range c.table {
		if m.lbn != lbn || on[m] != 1 {
			t.Fatalf("table entry %d (lbn %d) is on %d lists", lbn, m.lbn, on[m])
		}
	}
}

func TestARCBasicHit(t *testing.T) {
	c := newTestARC(t, 16)
	c.Submit(0, read(2, 0, 1))
	c.Submit(0, read(2, 0, 1))
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", s.Hits, s.Misses)
	}
	// A re-referenced block promotes to T2.
	if t1, t2 := c.len(listT1), c.len(listT2); t1 != 0 || t2 != 1 {
		t.Fatalf("T1=%d T2=%d, want 0/1", t1, t2)
	}
}

func TestARCScanResistance(t *testing.T) {
	// A long one-shot scan must not flush the re-referenced working set:
	// ARC's point over LRU.
	c := newTestARC(t, 32)
	// Hot set: 8 blocks, touched twice (into T2).
	for round := 0; round < 2; round++ {
		for i := int64(0); i < 8; i++ {
			c.Submit(0, read(2, i, 1))
		}
	}
	// One-shot scan of 200 cold blocks.
	for i := int64(1000); i < 1200; i++ {
		c.Submit(0, read(2, i, 1))
	}
	c.checkInvariants(t)
	// Hot set must still be resident.
	c.ResetStats()
	for i := int64(0); i < 8; i++ {
		c.Submit(0, read(2, i, 1))
	}
	if got := c.Stats().Hits; got < 6 {
		t.Fatalf("hot set lost to the scan: %d/8 hits", got)
	}
}

func TestARCGhostHitAdaptsP(t *testing.T) {
	c := newTestARC(t, 4)
	// Promote two blocks to T2 so REPLACE has frequency pages to keep.
	for round := 0; round < 2; round++ {
		for i := int64(100); i < 102; i++ {
			c.Submit(0, read(2, i, 1))
		}
	}
	// Stream new blocks: REPLACE demotes T1's LRU into B1 ghosts.
	for i := int64(0); i < 6; i++ {
		c.Submit(0, read(2, i, 1))
	}
	p0 := c.p
	if c.len(listB1) == 0 {
		t.Fatal("no B1 ghosts after overflow with a populated T2")
	}
	// Re-access a current ghost: p must grow (favor recency).
	var ghost int64 = -1
	for lbn, e := range c.table {
		if e.class == listB1 {
			ghost = lbn
			break
		}
	}
	if ghost < 0 {
		t.Fatal("no B1 entry found in the table")
	}
	c.Submit(0, read(2, ghost, 1))
	if c.p <= p0 {
		t.Fatalf("p did not grow on B1 hit: %d -> %d", p0, c.p)
	}
	c.checkInvariants(t)
}

func TestARCDirtyWriteBack(t *testing.T) {
	c := newTestARC(t, 2)
	c.Submit(0, write(2, 0, 2))
	c.Submit(0, read(2, 100, 1))
	c.Submit(0, read(2, 101, 1))
	if c.Stats().DirtyEvict == 0 {
		t.Fatal("dirty block evicted without write-back")
	}
	c.Sched().Drain() // release the deferred destage
	if c.HDD().Stats().Writes == 0 {
		t.Fatal("no HDD write for dirty eviction")
	}
}

func TestARCIgnoresTrim(t *testing.T) {
	c := newTestARC(t, 16)
	space := dss.DefaultPolicySpace()
	c.Submit(0, write(space.Temporary(), 0, 4))
	c.Submit(0, dss.Request{Kind: dss.Trim, LBA: 0, Blocks: 4, Class: space.Eviction()})
	if c.Stats().CachedBlocks != 4 {
		t.Fatal("ARC honoured TRIM; the monitoring baseline must not")
	}
}

func TestARCRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := newTestARC(t, 24)
	var at time.Duration
	for i := 0; i < 8000; i++ {
		lba := int64(rng.Intn(96))
		if rng.Intn(4) == 0 {
			at = c.Submit(at, write(2, lba, 1+rng.Intn(3)))
		} else {
			at = c.Submit(at, read(2, lba, 1+rng.Intn(3)))
		}
		if i%500 == 0 {
			c.checkInvariants(t)
		}
	}
	c.checkInvariants(t)
	if c.Stats().Hits == 0 {
		t.Fatal("no hits on a 96-block working set with a 24-block cache")
	}
}

// TestARCBeatsLRUOnScanMix demonstrates why ARC is a stronger baseline:
// a mixed workload of a hot set plus repeated long scans.
func TestARCBeatsLRUOnScanMix(t *testing.T) {
	run := func(mode Mode) float64 {
		sys, err := New(Config{Mode: mode, CacheBlocks: 64})
		if err != nil {
			t.Fatal(err)
		}
		var at time.Duration
		for round := 0; round < 30; round++ {
			// Hot set touched twice per round (a real working set).
			for pass := 0; pass < 2; pass++ {
				for i := int64(0); i < 32; i++ {
					at = sys.Submit(at, read(2, i, 1))
				}
			}
			for i := int64(0); i < 128; i++ { // scan (one-shot region)
				at = sys.Submit(at, read(2, 10000+int64(round)*128+i, 1))
			}
		}
		return sys.Stats().HitRatio()
	}
	arc := run(ARC)
	lru := run(LRU)
	if arc <= lru {
		t.Fatalf("ARC hit ratio %.3f not above LRU %.3f on scan mix", arc, lru)
	}
}
