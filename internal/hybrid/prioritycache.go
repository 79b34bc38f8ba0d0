package hybrid

import (
	"sort"
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
)

// Group ids are the integer values of the request classes, so a block's
// group names both its list and the class its destage traffic carries:
// the priority groups 1..N, and two pinned groups outside the ladder that
// selective eviction never considers. wbGroup is the write buffer of
// Rule 4, emptied by flushes; logGroup holds write-ahead-log blocks,
// dirty, which leave the cache only through TRIM when a checkpoint
// truncates the log, and so are never written to the HDD.
const (
	wbGroup  = int(dss.ClassWriteBuffer)
	logGroup = int(dss.ClassLog)
)

// priorityPolicy is the paper's hybrid storage prototype: both admission
// and eviction are driven by the caching priority carried on each request
// (Section 5.1).
//
// Cached blocks are organized into N priority groups, each managed by LRU.
// The six cache actions — hit, read allocation, write allocation,
// bypassing, re-allocation, eviction — are implemented verbatim, plus the
// write buffer of Rule 4 and TRIM-driven invalidation for temporary data.
type priorityPolicy struct {
	*core
	space dss.PolicySpace

	groups  []lruList // group g at index g-logGroup; ClassNone's slot stays empty
	wbLimit int       // b * capacity
}

func newPriorityPolicy(c *core, cfg Config) *priorityPolicy {
	p := &priorityPolicy{
		core:    c,
		space:   cfg.Policy,
		groups:  make([]lruList, cfg.Policy.N+1-logGroup),
		wbLimit: int(float64(cfg.CacheBlocks) * cfg.Policy.WriteBufferFrac),
	}
	for i := range p.groups {
		p.groups[i].init()
	}
	return p
}

func (p *priorityPolicy) group(g int) *lruList { return &p.groups[g-logGroup] }

// groupBlocks reports the occupancy of every group for a Snapshot.
func (p *priorityPolicy) groupBlocks() map[dss.Class]int {
	m := make(map[dss.Class]int, len(p.groups)-1)
	for i := range p.groups {
		if c := dss.Class(i + logGroup); c != dss.ClassNone {
			m[c] = p.groups[i].len()
		}
	}
	return m
}

// bypassRun fast-paths a multi-block sequential-class read whose range is
// entirely uncached: the whole run bypasses the cache as one scheduler
// submission instead of per-block traffic, which keeps the HDD's LBA run
// intact under contention. The engine's storage manager submits
// page-at-a-time (the scheduler's own LBA coalescing covers that shape);
// this path serves multi-block submissions from library users driving
// dss.Storage directly. Any cached block leaves the request to the
// per-block path, where place picks the copy that serves each cached
// block — HDD head, readahead buffer or SSD slot.
func (p *priorityPolicy) bypassRun(req dss.Request) bool {
	if req.Op != device.Read || req.Class != p.space.Sequential() {
		return false
	}
	for i := 0; i < req.Blocks; i++ {
		if p.table[req.LBA+int64(i)] != nil {
			return false
		}
	}
	return true
}

// streamed reports whether the HDD scheduler's readahead buffer holds lbn.
func (p *priorityPolicy) streamed(lbn int64) bool {
	_, ok := p.hddS.Buffered(lbn)
	return ok
}

// place decides one block (see placement). A sequential-class read of a
// clean cached block — Rule 1's scan meeting blocks someone else's random
// reads cached — is served by whichever copy costs nothing extra: the HDD
// when its head stands at the block, the HDD scheduler's readahead buffer
// when it already holds it, and only otherwise the SSD slot. Neither
// case touches the layout, as no scan hit does. A dirty block is always
// read from the SSD, which holds its only fresh copy — as every log block
// does: a log write is a dirty block in the log group and nothing more.
func (p *priorityPolicy) place(at time.Duration, req dss.Request, lbn int64) (outcome, int64) {
	class, write := req.Class, req.Op == device.Write
	// The two pinned classes are only meaningful on writes. Rule 4
	// updates win cache space over any other priority, bounded by the
	// write-buffer budget b. Log writes are placed in the non-evictable
	// log group, dirty, and stay there until the checkpoint that
	// truncates the log TRIMs them: the commit-critical completion time
	// is the SSD write, and the HDD never receives a copy of a log block,
	// which is durable because the cache device is (dss.ClassLog). A
	// rewritten log tail costs one SSD write, not an HDD positioning.
	buffered := write && class == dss.ClassWriteBuffer
	logged := write && class == dss.ClassLog
	meta := p.table[lbn]
	cleanScan := meta != nil && !write && class == p.space.Sequential() && !meta.dirty
	out := hit
	switch {
	case buffered && p.wbLimit <= 0:
		// The b = 0 ablation has no write buffer at all: the update goes
		// to the HDD on the caller's critical path, exactly the behaviour
		// Rule 4 exists to avoid. A cached copy would go stale (and a
		// dirty one would later destage over the fresh data): drop it.
		if meta != nil {
			p.drop(meta)
		}
		return bypass, 0

	case cleanScan && p.hdd.HeadLBA() == lbn:
		// A clean block's HDD copy is as good as its SSD copy, and this
		// read continues the run the head just finished: a transfer with
		// no positioning, which the scheduler reads ahead from like any
		// scan miss. An SSD page read would cost more and cut the HDD run.
		return bypass, 0

	case cleanScan && p.streamed(lbn):
		return prefetched, meta.pbn

	case meta != nil:
		// Action 1: cache hit, possibly followed by re-allocation. The
		// block's later destage is billed to the tenant that touched it
		// last.
		meta.tenant = req.Tenant
		switch {
		case buffered:
			p.retarget(meta, class) // joining the buffer is not counted as a re-allocation
		case write && !logged && meta.class == wbGroup:
			p.group(wbGroup).moveToFront(meta) // a buffered update stays buffered until the flush
		default:
			p.reallocate(meta, class)
		}
		if write {
			meta.dirty = true
		}

	case buffered || logged:
		// Write allocation into a pinned group. A cache entirely occupied
		// by the write buffer itself is flushed for one retry; one full
		// of pinned blocks lets the write fall through to the HDD.
		if !p.ensureSpace(at, int(class)) {
			if logged {
				return bypass, 0
			}
			p.flushWriteBuffer(at)
			if !p.ensureSpace(at, int(class)) {
				return bypass, 0
			}
		}
		out, meta = allocate, p.admit(lbn, int(class), true, req.Tenant)

	case p.space.NonCaching(class) || class <= dss.ClassNone:
		// Action 4: bypassing — low-priority blocks move directly between
		// the OS and the level-two device, as do unclassified ones and
		// reads carrying a pinned class. Log reads come only from the
		// recovery scan after a restart. The log's only copy is its
		// dirty slot in the log group, which the cache device is assumed
		// to keep across a crash (dss.ClassLog); the simulated restart
		// starts a cold cache, so the scan is charged as HDD reads.
		return bypass, 0

	default:
		// Actions 2 and 3: read allocation; write allocation — incoming
		// blocks are placed in cache, marked dirty, and the request
		// returns as soon as marking is done.
		if !p.ensureSpace(at, int(class)) {
			// No admissible victim: every cached block outranks the
			// incoming priority.
			return bypass, 0
		}
		out, meta = allocate, p.admit(lbn, int(class), write, req.Tenant)
	}

	if buffered && p.group(wbGroup).len() > p.wbLimit {
		// When occupancy exceeds b, all write-buffer content is flushed
		// into the HDD (asynchronously).
		p.flushWriteBuffer(at)
	}
	return out, meta.pbn
}

// flushWriteBuffer writes every dirty write-buffer block to the HDD in
// the background and releases the write-buffer budget. A flush changes a
// block's dirty bit and its pin and nothing else about its standing.
// Rule 4 (Section 4.2.4) ranks an update above every priority while it is
// buffered and is silent about afterwards; we let the flushed blocks stay
// in cache, clean, at RandLow — the top priority Rule 2 gives regular data
// — in write-recency order: the last request that named the block carried
// the one policy that outranks every priority, no later request has said
// otherwise, and Action 5 re-allocation corrects the standing the moment
// one does. Demoting them to RandHigh would make the pages a transaction
// just wrote the first victims of selective eviction, ahead of every
// read-once block (PERFORMANCE_STATUS.md, "Rule 4 on trial").
func (p *priorityPolicy) flushWriteBuffer(at time.Duration) {
	g := p.group(wbGroup)
	type destage struct {
		lbn    int64
		tenant dss.TenantID
	}
	var dirty []destage
	for g.len() > 0 {
		meta := g.back()
		if meta.dirty {
			dirty = append(dirty, destage{meta.lbn, meta.tenant})
			meta.dirty = false
		}
		p.moveGroup(meta, p.space.RandLow)
	}
	// Destage in LBA order: an elevator pass turns the buffer's random
	// update footprint into near-sequential HDD runs the scheduler can
	// coalesce, instead of one positioning penalty per block.
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].lbn < dirty[j].lbn })
	for _, d := range dirty {
		p.hddS.SubmitBackground(at, device.Write, d.lbn, 1, dss.ClassWriteBuffer, d.tenant)
	}
	p.base.snap.WBFlushes++
}

// retarget applies the priority carried by a request to a block already
// in cache: the block moves to the group of the request's class, or is
// touched when it is already there. It reports whether the block moved.
func (p *priorityPolicy) retarget(meta *blockMeta, class dss.Class) bool {
	g := int(class)
	switch {
	case class == p.space.Sequential(), class == dss.ClassCompaction:
		// "Non-caching and non-eviction": the block's existing priority,
		// determined by a previous request, is not affected. Likewise
		// for compaction: the block's residency was earned by a
		// foreground class, and bulk reorganization passing over it says
		// nothing about its future value.
		return false
	case class == p.space.Eviction() && meta.class == g:
		// "Non-caching and eviction": already demoted, so that it leaves
		// cache timely.
		return false
	case class == dss.ClassNone, class == dss.ClassWriteBuffer && meta.class == logGroup:
		// Unclassified requests do not disturb the layout, and log
		// blocks are pinned: a (malformed) non-log request cannot demote
		// them.
		g = meta.class
	}
	if meta.class == g {
		p.group(g).moveToFront(meta)
		return false
	}
	p.moveGroup(meta, g)
	return true
}

// reallocate is retarget counted as the paper's Action 5.
func (p *priorityPolicy) reallocate(meta *blockMeta, class dss.Class) {
	if p.retarget(meta, class) {
		p.base.snap.Reallocs++
	}
}

// ensureSpace guarantees a free slot for an incoming block of group k (a
// pinned group is negative and so outranks everything). It returns false
// when no cached block has priority >= k, i.e. selective allocation
// refuses admission.
func (p *priorityPolicy) ensureSpace(at time.Duration, k int) bool {
	if p.cached < p.capacity {
		return true
	}
	// Selective eviction: find the group whose priority is numerically
	// largest (all other blocks outrank it) and evict its LRU block.
	for prio := p.space.N; prio >= 1; prio-- {
		g := p.group(prio)
		if g.len() == 0 {
			continue
		}
		if prio < k {
			// The lowest-ranked cached block still outranks the incoming
			// one: admission denied.
			return false
		}
		victim := g.back()
		p.evicted(at, victim, dss.Class(victim.class))
		p.unlink(victim)
		return true
	}
	// Only pinned blocks (write buffer, log) remain.
	return false
}

// unlink forgets a block whose slot is already released.
func (p *priorityPolicy) unlink(meta *blockMeta) {
	p.forget(p.group(meta.class), meta)
}

// drop invalidates a block without writing it back.
func (p *priorityPolicy) drop(meta *blockMeta) {
	p.freeSlot(meta)
	p.unlink(meta)
}

// admit adds a new block to group g, its destage billed to tenant t.
// The caller has ensured space.
func (p *priorityPolicy) admit(lbn int64, g int, dirty bool, t dss.TenantID) *blockMeta {
	return p.insert(p.group(g), lbn, g, dirty, t)
}

// moveGroup transfers a block between groups.
func (p *priorityPolicy) moveGroup(meta *blockMeta, g int) {
	p.group(meta.class).remove(meta)
	meta.class = g
	p.group(g).pushFront(meta)
}

// trim invalidates an LBA range (deleted temporary files, a truncated
// log). Dirty copies are dropped without write-back: the blocks are
// useless by definition.
func (p *priorityPolicy) trim(req dss.Request) {
	for i := 0; i < req.Blocks; i++ {
		if meta := p.table[req.LBA+int64(i)]; meta != nil {
			p.drop(meta)
			p.base.snap.Trimmed++
		}
	}
}
