package hybrid

import (
	"sort"
	"sync"
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
	"hstoragedb/internal/iosched"
)

// wbGroup is the group id of the write buffer in the groups map. Regular
// priority groups use their priority number 1..N.
const wbGroup = -1

// logGroup is the group id of pinned write-ahead-log blocks. Like the
// write buffer it sits outside the 1..N priority ladder: selective
// eviction never considers it, so log blocks leave the cache only through
// TRIM when a checkpoint truncates the log.
const logGroup = -2

// priorityCache is the paper's hybrid storage prototype: an SSD cache over
// an HDD where both admission and eviction are driven by the caching
// priority carried on each request (Section 5.1).
//
// Cached blocks are organized into N priority groups, each managed by LRU.
// The six cache actions — hit, read allocation, write allocation,
// bypassing, re-allocation, eviction — are implemented verbatim, plus the
// write buffer of Rule 4 and TRIM-driven invalidation for temporary data.
type priorityCache struct {
	mu   sync.Mutex
	base statsBase

	ssd *device.Device
	hdd *device.Device
	pol dss.PolicySpace
	lat time.Duration

	grp  *iosched.Group
	ssdS *iosched.Scheduler
	hddS *iosched.Scheduler

	capacity   int
	asyncAlloc bool

	table    map[int64]*blockMeta // lbn -> metadata (Section 5.2 hash table)
	groups   map[int]*lruList     // priority -> LRU group
	cached   int
	wbBlocks int     // write-buffer occupancy in blocks
	wbLimit  int     // b * capacity
	freePBN  []int64 // recycled SSD slots
	nextPBN  int64

	// cachedBy counts cached blocks per tenant (each block charged to
	// the last tenant that touched it). With tenant weights configured
	// (Config.Sched.TenantWeights), eviction prefers victims of tenants
	// holding more than their weight share of capacity, so a heavy
	// tenant recycles its own blocks instead of everyone else's.
	// tenantW/tenantWSum snapshot the construction-time weights so the
	// eviction path never takes the scheduler group's mutex; capacity
	// shares follow the Config, not later SetTenantWeight calls.
	cachedBy   map[dss.TenantID]int
	tenantW    map[dss.TenantID]float64
	tenantWSum float64
}

func newPriorityCache(cfg Config) *priorityCache {
	c := &priorityCache{
		base:       newStatsBase(HStorage, cfg.Obs),
		ssd:        device.New(cfg.SSDSpec),
		hdd:        device.New(cfg.HDDSpec),
		pol:        cfg.Policy,
		lat:        cfg.TransportLat,
		capacity:   cfg.CacheBlocks,
		asyncAlloc: cfg.AsyncReadAlloc,
		table:      make(map[int64]*blockMeta),
		groups:     make(map[int]*lruList),
		cachedBy:   make(map[dss.TenantID]int),
	}
	c.grp, c.ssdS, c.hddS = attachCacheScheds(cfg, c.ssd, c.hdd)
	for id, w := range cfg.Sched.TenantWeights {
		if w > 0 {
			if c.tenantW == nil {
				c.tenantW = make(map[dss.TenantID]float64, len(cfg.Sched.TenantWeights))
			}
			c.tenantW[id] = w
			c.tenantWSum += w
		}
	}
	c.wbLimit = int(float64(cfg.CacheBlocks) * cfg.Policy.WriteBufferFrac)
	for p := 1; p <= cfg.Policy.N; p++ {
		c.groups[p] = newList()
	}
	c.groups[wbGroup] = newList()
	c.groups[logGroup] = newList()
	return c
}

func newList() *lruList {
	l := &lruList{}
	l.init()
	return l
}

// Submit implements dss.Storage.
func (c *priorityCache) Submit(at time.Duration, req dss.Request) time.Duration {
	at += c.lat
	if req.Kind == dss.Trim {
		c.trim(req)
		return at
	}
	if req.Blocks <= 0 {
		return at
	}

	if done, ok := c.trySequentialRun(at, req); ok {
		return done
	}

	done := at
	var hits int64
	for i := 0; i < req.Blocks; i++ {
		lbn := req.LBA + int64(i)
		var t time.Duration
		var hit bool
		if req.Op == device.Read {
			t, hit = c.readBlock(at, req, lbn)
		} else {
			t, hit = c.writeBlock(at, req, lbn)
		}
		if hit {
			hits++
		}
		if t > done {
			done = t
		}
	}

	c.mu.Lock()
	c.base.record(req.Class, req.Op, req.Blocks, hits)
	c.mu.Unlock()
	return done
}

// trySequentialRun fast-paths a multi-block sequential-class read whose
// range is entirely uncached: the whole run bypasses the cache as one
// scheduler submission instead of per-block traffic, which keeps the
// HDD's LBA run intact under contention and gives the scheduler a
// coalesced unit to grant (and to read ahead from). The engine's
// storage manager submits page-at-a-time (the scheduler's own LBA
// coalescing covers that shape); this path serves multi-block
// submissions from library users driving dss.Storage directly. Its
// accounting matches the per-block path: one record per request,
// Bypasses counted per block. Returns ok=false when any block is
// cached, leaving the request to the per-block path.
func (c *priorityCache) trySequentialRun(at time.Duration, req dss.Request) (time.Duration, bool) {
	if req.Op != device.Read || req.Blocks <= 1 || req.Class != c.pol.Sequential() {
		return 0, false
	}
	c.mu.Lock()
	for i := 0; i < req.Blocks; i++ {
		if c.table[req.LBA+int64(i)] != nil {
			c.mu.Unlock()
			return 0, false
		}
	}
	c.base.snap.Bypasses += int64(req.Blocks)
	c.base.record(req.Class, req.Op, req.Blocks, 0)
	c.mu.Unlock()
	return submitDev(c.hddS, at, req, device.Read, req.LBA, req.Blocks), true
}

// readBlock serves one block of a read request and returns (completion
// time, cache hit).
func (c *priorityCache) readBlock(at time.Duration, req dss.Request, lbn int64) (time.Duration, bool) {
	class := req.Class
	c.mu.Lock()
	meta := c.table[lbn]
	if meta != nil {
		// Action 1: cache hit (possibly followed by re-allocation).
		pbn := meta.pbn
		c.retagTenant(meta, req.Tenant)
		c.reallocate(meta, class)
		c.mu.Unlock()
		return submitDev(c.ssdS, at, req, device.Read, pbn, 1), true
	}

	if c.pol.NonCaching(class) || class == dss.ClassNone || class == dss.ClassWriteBuffer || class == dss.ClassLog {
		// Action 4: bypassing — low-priority blocks move directly between
		// the OS and the level-two device. The write-buffer class is only
		// meaningful on writes; a (malformed) read carrying it is served
		// without disturbing the layout. Log reads happen only during a
		// sequential recovery scan after a restart (cold cache), so they
		// are not worth allocating for either.
		c.base.snap.Bypasses++
		c.mu.Unlock()
		return submitDev(c.hddS, at, req, device.Read, lbn, 1), false
	}

	// Action 2: read allocation.
	k := int(class)
	if !c.ensureSpace(at, k, false) {
		// No admissible victim: every cached block outranks the incoming
		// priority, so the request bypasses the cache.
		c.base.snap.Bypasses++
		c.mu.Unlock()
		return submitDev(c.hddS, at, req, device.Read, lbn, 1), false
	}
	meta = c.insert(lbn, k, false, req.Tenant)
	c.base.snap.ReadAllocs++
	pbn := meta.pbn
	c.mu.Unlock()

	hddDone := submitDev(c.hddS, at, req, device.Read, lbn, 1)
	if c.asyncAlloc {
		// Asynchronous read allocation: the block is served from the HDD
		// into the OS and copied into cache off the critical path.
		c.ssdS.SubmitBackground(hddDone, device.Write, pbn, 1, class, req.Tenant)
		return hddDone, false
	}
	// Synchronous read allocation: data is placed into cache before the
	// read returns.
	return submitDev(c.ssdS, hddDone, req, device.Write, pbn, 1), false
}

// writeBlock serves one block of a write request.
func (c *priorityCache) writeBlock(at time.Duration, req dss.Request, lbn int64) (time.Duration, bool) {
	class := req.Class
	if class == dss.ClassWriteBuffer {
		return c.writeBuffered(at, req, lbn)
	}
	if class == dss.ClassLog {
		return c.writeLog(at, req, lbn)
	}

	c.mu.Lock()
	meta := c.table[lbn]
	if meta != nil {
		// Write hit: update the cached copy in place.
		c.retagTenant(meta, req.Tenant)
		if meta.class == wbGroup {
			// Leaving it in the write buffer keeps the occupancy
			// accounting intact.
			c.groups[wbGroup].moveToFront(meta)
		} else {
			c.reallocate(meta, class)
		}
		meta.dirty = true
		pbn := meta.pbn
		c.mu.Unlock()
		return submitDev(c.ssdS, at, req, device.Write, pbn, 1), true
	}

	if c.pol.NonCaching(class) || class == dss.ClassNone {
		c.base.snap.Bypasses++
		c.mu.Unlock()
		return submitDev(c.hddS, at, req, device.Write, lbn, 1), false
	}

	// Action 3: write allocation — incoming blocks are placed in cache,
	// marked dirty, and the request returns as soon as marking is done.
	k := int(class)
	if !c.ensureSpace(at, k, false) {
		c.base.snap.Bypasses++
		c.mu.Unlock()
		return submitDev(c.hddS, at, req, device.Write, lbn, 1), false
	}
	meta = c.insert(lbn, k, true, req.Tenant)
	c.base.snap.WriteAllocs++
	pbn := meta.pbn
	c.mu.Unlock()
	return submitDev(c.ssdS, at, req, device.Write, pbn, 1), false
}

// writeBuffered handles Rule 4 updates: they win cache space over any
// other priority, bounded by the write-buffer budget b. With a zero
// budget (the b = 0 ablation) there is no write buffer at all: the
// update goes to the HDD on the caller's critical path, exactly the
// behaviour Rule 4 exists to avoid.
func (c *priorityCache) writeBuffered(at time.Duration, req dss.Request, lbn int64) (time.Duration, bool) {
	if c.wbLimit <= 0 {
		c.mu.Lock()
		if meta := c.table[lbn]; meta != nil {
			// A cached copy would go stale (and a dirty one would later
			// destage over the fresh data): drop it before bypassing.
			if meta.class == wbGroup {
				c.wbBlocks--
			}
			c.drop(meta)
		}
		c.base.snap.Bypasses++
		c.mu.Unlock()
		return submitDev(c.hddS, at, req, device.Write, lbn, 1), false
	}
	c.mu.Lock()
	meta := c.table[lbn]
	hit := meta != nil
	if meta == nil {
		if !c.ensureSpace(at, 0, true) {
			// Cache entirely occupied by the write buffer itself: flush
			// it and retry once.
			c.flushWriteBuffer(at)
			if !c.ensureSpace(at, 0, true) {
				c.base.snap.Bypasses++
				c.mu.Unlock()
				return submitDev(c.hddS, at, req, device.Write, lbn, 1), false
			}
		}
		meta = c.insert(lbn, wbGroup, true, req.Tenant)
		c.wbBlocks++
		c.base.snap.WriteAllocs++
	} else {
		c.retagTenant(meta, req.Tenant)
		if meta.class != wbGroup {
			c.moveGroup(meta, wbGroup)
			c.wbBlocks++
		} else {
			c.groups[wbGroup].moveToFront(meta)
		}
		meta.dirty = true
	}
	pbn := meta.pbn
	flush := c.wbBlocks > c.wbLimit
	if flush {
		// When occupancy exceeds b, all write-buffer content is flushed
		// into the HDD (asynchronously).
		c.flushWriteBuffer(at)
	}
	c.mu.Unlock()
	return submitDev(c.ssdS, at, req, device.Write, pbn, 1), hit
}

// writeLog serves a write carrying the pinned log class: the block is
// placed (or refreshed) in the non-evictable log group and written through
// — the commit-critical completion time is the SSD write, while the HDD
// copy is destaged in the background, so neither eviction nor TRIM ever
// owes the block a write-back.
func (c *priorityCache) writeLog(at time.Duration, req dss.Request, lbn int64) (time.Duration, bool) {
	c.mu.Lock()
	meta := c.table[lbn]
	hit := meta != nil
	if meta == nil {
		if !c.ensureSpace(at, 0, true) {
			// Cache fully occupied by other pinned blocks: the log write
			// falls through to the HDD.
			c.base.snap.Bypasses++
			c.mu.Unlock()
			return submitDev(c.hddS, at, req, device.Write, lbn, 1), false
		}
		meta = c.insert(lbn, logGroup, false, req.Tenant)
		c.base.snap.WriteAllocs++
	} else {
		c.retagTenant(meta, req.Tenant)
		if meta.class != logGroup {
			if meta.class == wbGroup {
				c.wbBlocks--
			}
			c.moveGroup(meta, logGroup)
			c.base.snap.Reallocs++
		} else {
			c.groups[logGroup].moveToFront(meta)
		}
		meta.dirty = false // write-through: the HDD copy is scheduled below
	}
	pbn := meta.pbn
	c.mu.Unlock()
	c.hddS.SubmitBackground(at, device.Write, lbn, 1, req.Class, req.Tenant)
	return submitDev(c.ssdS, at, req, device.Write, pbn, 1), hit
}

// flushWriteBuffer writes every dirty write-buffer block to the HDD in
// the background and releases the write-buffer budget. The flushed blocks
// stay in cache — clean, demoted to the lowest caching priority — so
// re-reads of recently updated data still hit; they are simply first in
// line for eviction. Caller holds c.mu.
func (c *priorityCache) flushWriteBuffer(at time.Duration) {
	g := c.groups[wbGroup]
	demoteTo := c.pol.RandHigh
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
		c.moveGroup(meta, demoteTo)
	}
	// Destage in LBA order: an elevator pass turns the buffer's random
	// update footprint into near-sequential HDD runs the scheduler can
	// coalesce, instead of one positioning penalty per block.
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].lbn < dirty[j].lbn })
	for _, d := range dirty {
		c.hddS.SubmitBackground(at, device.Write, d.lbn, 1, dss.ClassWriteBuffer, d.tenant)
	}
	c.wbBlocks = 0
	c.base.snap.WBFlushes++
}

// reallocate applies the priority carried by a request to a block already
// in cache (Action 5). Caller holds c.mu.
func (c *priorityCache) reallocate(meta *blockMeta, class dss.Class) {
	switch {
	case class == dss.ClassNone:
		// Unclassified requests do not disturb the layout.
		c.groups[meta.class].moveToFront(meta)
	case class == c.pol.Sequential():
		// "Non-caching and non-eviction": the block's existing priority,
		// determined by a previous request, is not affected.
	case class == dss.ClassCompaction:
		// Compaction reading (or rewriting) a block some foreground
		// request cached does not disturb the layout: the block's
		// residency was earned by the foreground class, and bulk
		// reorganization passing over it says nothing about its future
		// value. (Without this case the int(class) fallback would index
		// a group that does not exist.)
	case class == c.pol.Eviction():
		// "Non-caching and eviction": demote so the block leaves cache
		// timely.
		if meta.class != int(c.pol.Eviction()) {
			if meta.class == wbGroup {
				c.wbBlocks--
			}
			c.moveGroup(meta, int(c.pol.Eviction()))
			c.base.snap.Reallocs++
		}
	case class == dss.ClassWriteBuffer:
		if meta.class != wbGroup {
			if meta.class == logGroup {
				// Log blocks are pinned; a (malformed) non-log request
				// cannot demote them.
				c.groups[logGroup].moveToFront(meta)
				return
			}
			c.moveGroup(meta, wbGroup)
			c.wbBlocks++
			c.base.snap.Reallocs++
		} else {
			c.groups[wbGroup].moveToFront(meta)
		}
	case class == dss.ClassLog:
		if meta.class != logGroup {
			if meta.class == wbGroup {
				c.wbBlocks--
			}
			c.moveGroup(meta, logGroup)
			c.base.snap.Reallocs++
		} else {
			c.groups[logGroup].moveToFront(meta)
		}
	default:
		k := int(class)
		if meta.class != k {
			if meta.class == wbGroup {
				c.wbBlocks--
			}
			c.moveGroup(meta, k)
			c.base.snap.Reallocs++
		} else {
			c.groups[k].moveToFront(meta)
		}
	}
}

// victimScan bounds how far from the LRU end of the victim group the
// tenant-share preference looks for an over-share tenant's block. A
// small constant keeps eviction O(1) against a large group while still
// catching the common case: a churning heavy tenant's blocks dominate
// the cold end of the lowest-priority group.
const victimScan = 16

// ensureSpace guarantees a free slot for an incoming block of priority k
// (k == 0 with forWB means a write-buffer block, which outranks
// everything). It returns false when no cached block has priority >= k,
// i.e. selective allocation refuses admission. Caller holds c.mu.
func (c *priorityCache) ensureSpace(at time.Duration, k int, forWB bool) bool {
	if c.cached < c.capacity {
		return true
	}
	// Selective eviction: find the group whose priority is numerically
	// largest (all other blocks outrank it) and evict its LRU block —
	// or, under tenant fair shares, the coldest nearby block of a
	// tenant that exceeds its capacity share.
	for p := c.pol.N; p >= 1; p-- {
		g := c.groups[p]
		if g.len() == 0 {
			continue
		}
		if !forWB && p < k {
			// The lowest-ranked cached block still outranks the incoming
			// one: admission denied.
			return false
		}
		c.evict(at, c.pickVictimLocked(g))
		return true
	}
	// Only pinned blocks (write buffer, log) remain.
	return false
}

// pickVictimLocked chooses the eviction victim within a priority group:
// plain LRU, unless tenant fair shares are configured — then the scan
// from the LRU end prefers (within victimScan entries) a block of a
// tenant holding more cached blocks than its weight share of capacity,
// so over-share tenants recycle their own footprint before touching
// anyone else's. Class rank still dominates: shares redirect the victim
// only inside the group selective eviction already chose. Caller holds
// c.mu; g is non-empty.
func (c *priorityCache) pickVictimLocked(g *lruList) *blockMeta {
	lru := g.back()
	if len(c.tenantW) == 0 {
		return lru
	}
	over := func(t dss.TenantID) bool {
		w, ok := c.tenantW[t]
		if !ok || c.tenantWSum <= 0 {
			// Tenants without a configured weight are not governed.
			return false
		}
		return float64(c.cachedBy[t]) > w/c.tenantWSum*float64(c.capacity)
	}
	n := 0
	for b := lru; b != &g.root && n < victimScan; b = b.prev {
		if over(b.tenant) {
			if b != lru {
				c.base.snap.ShareEvictions++
				c.base.mShareEvict.Inc()
			}
			return b
		}
		n++
	}
	return lru
}

// evict removes a block from cache, writing it back if dirty (Action 6).
// Caller holds c.mu.
func (c *priorityCache) evict(at time.Duration, meta *blockMeta) {
	if meta.dirty {
		c.hddS.SubmitBackground(at, device.Write, meta.lbn, 1, groupClass(meta.class), meta.tenant)
		c.base.snap.DirtyEvict++
		c.base.mDirtyEvict.Inc()
	}
	c.base.snap.Evictions++
	c.base.mEvict.Inc()
	if meta.class == wbGroup {
		c.wbBlocks--
	}
	c.drop(meta)
}

// unchargeTenant releases one cached block's capacity charge from
// tenant t. Caller holds c.mu.
func (c *priorityCache) unchargeTenant(t dss.TenantID) {
	if n := c.cachedBy[t]; n > 1 {
		c.cachedBy[t] = n - 1
	} else {
		delete(c.cachedBy, t)
	}
}

// drop unlinks a block and recycles its SSD slot. Caller holds c.mu.
func (c *priorityCache) drop(meta *blockMeta) {
	c.groups[meta.class].remove(meta)
	delete(c.table, meta.lbn)
	c.freePBN = append(c.freePBN, meta.pbn)
	c.cached--
	c.unchargeTenant(meta.tenant)
}

// insert adds a new block to group k, charged to tenant t, and returns
// its metadata. Caller holds c.mu and must have ensured space.
func (c *priorityCache) insert(lbn int64, k int, dirty bool, t dss.TenantID) *blockMeta {
	var pbn int64
	if n := len(c.freePBN); n > 0 {
		pbn = c.freePBN[n-1]
		c.freePBN = c.freePBN[:n-1]
	} else {
		pbn = c.nextPBN
		c.nextPBN++
	}
	meta := &blockMeta{lbn: lbn, pbn: pbn, class: k, dirty: dirty, tenant: t}
	c.table[lbn] = meta
	c.groups[k].pushFront(meta)
	c.cached++
	c.cachedBy[t]++
	return meta
}

// retagTenant re-attributes a cached block to the tenant of the latest
// request that touched it, so capacity charges follow actual use of
// shared blocks. Caller holds c.mu.
func (c *priorityCache) retagTenant(meta *blockMeta, t dss.TenantID) {
	if meta.tenant == t {
		return
	}
	c.unchargeTenant(meta.tenant)
	meta.tenant = t
	c.cachedBy[t]++
}

// TenantOccupancy reports the cached blocks charged to each tenant.
// Used by tests and the tenants experiment.
func (c *priorityCache) TenantOccupancy() map[dss.TenantID]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[dss.TenantID]int, len(c.cachedBy))
	for t, n := range c.cachedBy {
		out[t] = n
	}
	return out
}

// groupClass maps a cache group id back to the dss class its destage
// traffic carries.
func groupClass(group int) dss.Class {
	switch group {
	case wbGroup:
		return dss.ClassWriteBuffer
	case logGroup:
		return dss.ClassLog
	default:
		return dss.Class(group)
	}
}

// moveGroup transfers a block between priority groups. Caller holds c.mu.
func (c *priorityCache) moveGroup(meta *blockMeta, k int) {
	c.groups[meta.class].remove(meta)
	meta.class = k
	c.groups[k].pushFront(meta)
}

// trim invalidates an LBA range (deleted temporary files). Dirty copies
// are dropped without write-back: the blocks are useless by definition.
func (c *priorityCache) trim(req dss.Request) {
	c.mu.Lock()
	for i := 0; i < req.Blocks; i++ {
		if meta := c.table[req.LBA+int64(i)]; meta != nil {
			if meta.class == wbGroup {
				c.wbBlocks--
			}
			c.drop(meta)
			c.base.snap.Trimmed++
		}
	}
	c.mu.Unlock()
}

// Stats implements System.
func (c *priorityCache) Stats() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.base.snapshot(c.cached)
}

// ResetStats implements System.
func (c *priorityCache) ResetStats() {
	c.mu.Lock()
	c.base.reset()
	c.mu.Unlock()
	c.grp.ResetStats()
}

// Mode implements System.
func (c *priorityCache) Mode() Mode { return HStorage }

// SSD implements System.
func (c *priorityCache) SSD() *device.Device { return c.ssd }

// HDD implements System.
func (c *priorityCache) HDD() *device.Device { return c.hdd }

// Sched implements System.
func (c *priorityCache) Sched() *iosched.Group { return c.grp }

// GroupLens reports the number of cached blocks per priority group,
// including the write buffer under key -1. Used by tests and ablations.
func (c *priorityCache) GroupLens() map[int]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]int, len(c.groups))
	for p, g := range c.groups {
		if g.len() > 0 {
			out[p] = g.len()
		}
	}
	return out
}
