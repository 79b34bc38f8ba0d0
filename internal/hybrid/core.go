package hybrid

import (
	"sync"
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
	"hstoragedb/internal/iosched"
)

// outcome is a placement policy's answer for one block, in the vocabulary
// of the paper's cache actions (Section 5.1). Re-allocation and eviction
// happen inside the policy while it decides; what is left for the core is
// the block's own device traffic: at most one access, plus the slot fill
// of a read allocation. A cached write only marks the block dirty. Its
// HDD copy is written when the block is evicted or its group flushed, or
// never, when TRIM drops it first, as log truncation does with every log
// block.
type outcome uint8

const (
	// hit: the block is resident; serve it from its SSD slot.
	hit outcome = iota
	// allocate: the block was given an SSD slot. A write goes to the
	// slot; a read is served from the HDD and fills the slot.
	allocate
	// bypass: the block moves between the OS and the HDD directly.
	bypass
	// prefetched: a clean resident block the HDD scheduler's readahead
	// has already streamed; it is served from that buffer with no device
	// access, or from its SSD slot if the buffer let it go meanwhile.
	prefetched
)

// placement is the seam between the shared storage shell and a cache
// management policy. Every method runs under the core's lock. A policy
// owns nothing but its lists: blocks live in the core's lookup table,
// slots come from insert/allocSlot, and victims leave through evicted.
type placement interface {
	// place decides one block of a data request and returns the block's
	// SSD slot unless the outcome is bypass (prefetched returns it as
	// the fallback copy).
	place(at time.Duration, req dss.Request, lbn int64) (outcome, int64)
	// bypassRun reports whether a multi-block request skips the cache
	// as a whole, to be served as one HDD submission.
	bypassRun(req dss.Request) bool
	// trim invalidates the request's LBA range.
	trim(req dss.Request)
}

// classBlind is embedded by the monitoring-based baselines: behind a
// legacy block interface a cache cannot tell a scan from a lookup, and
// file deletion only changes file-system metadata, so TRIM is not
// understood (Section 4.2.3).
type classBlind struct{}

func (classBlind) bypassRun(dss.Request) bool { return false }
func (classBlind) trim(dss.Request)           {}

// core is the one System implementation: the devices, their scheduling
// domain, the counters and the Section 5.2 lookup table, in front of a
// placement policy. The evaluation's configurations differ only in which
// action a block gets, so everything else — the per-request block loop,
// slot allocation, destaging a victim, filling a slot — is spelled here
// once. The passthrough configurations are the core with no policy.
type core struct {
	mu   sync.Mutex
	base statsBase

	ssd, hdd   *device.Device // either is nil in a passthrough mode
	grp        *iosched.Group
	ssdS, hddS *iosched.Scheduler
	// direct is the single device's scheduler in the passthrough modes,
	// nil otherwise: requests go to it whole, classified but unplaced.
	direct *iosched.Scheduler
	pol    placement

	capacity   int
	asyncAlloc bool

	table   map[int64]*blockMeta // lbn -> metadata, ghosts of the policy included
	spare   *blockMeta           // entries forget took out of table, chained through next
	cached  int                  // blocks holding an SSD slot
	freePBN []int64              // recycled SSD slots
	nextPBN int64
}

// newCore builds the shell for cfg.Mode; New attaches the policy. The
// SSD — addressed by recycled cache-slot numbers, not logical LBAs — gets
// no readahead, while the HDD (and a passthrough SSD, which is addressed
// by LBA) gets the Rule 1 sequential class.
func newCore(cfg Config) *core {
	c := &core{
		base:       newStatsBase(cfg.Mode, cfg.Obs),
		grp:        iosched.NewGroup(cfg.Sched),
		capacity:   cfg.CacheBlocks,
		asyncAlloc: cfg.AsyncReadAlloc,
		table:      make(map[int64]*blockMeta),
	}
	seq := cfg.Policy.Sequential()
	if cfg.Mode != HDDOnly {
		c.ssd = device.New(cfg.SSDSpec)
	}
	if cfg.Mode != SSDOnly {
		c.hdd = device.New(cfg.HDDSpec)
	}
	switch {
	case c.hdd == nil:
		c.direct = c.grp.Attach(c.ssd, seq)
	case c.ssd == nil:
		c.direct = c.grp.Attach(c.hdd, seq)
	default:
		c.ssdS = c.grp.Attach(c.ssd, iosched.NoReadahead)
		c.hddS = c.grp.Attach(c.hdd, seq)
	}
	return c
}

// submitDev routes one device access through a scheduler on behalf of a
// classified request, honouring its stream identity, tenant attribution
// and background flag: background work is queued without blocking (the
// caller's clock must not advance for it), foreground work returns its
// completion.
func submitDev(s *iosched.Scheduler, at time.Duration, req dss.Request, op device.Op, lba int64, blocks int) time.Duration {
	if req.Background {
		s.SubmitBackground(at, op, lba, blocks, req.Class, req.Tenant)
		return at
	}
	return s.Submit(at, op, lba, blocks, req.Class, req.Tenant, req.Stream)
}

// Submit implements dss.Storage.
func (c *core) Submit(at time.Duration, req dss.Request) time.Duration {
	if req.Kind == dss.Trim {
		if c.pol != nil {
			c.mu.Lock()
			c.pol.trim(req)
			c.mu.Unlock()
		}
		return at
	}
	if req.Blocks <= 0 {
		return at
	}
	if c.direct != nil {
		done := submitDev(c.direct, at, req, req.Op, req.LBA, req.Blocks)
		c.record(req, 0)
		return done
	}
	if req.Blocks > 1 && c.bypassWhole(req) {
		return submitDev(c.hddS, at, req, req.Op, req.LBA, req.Blocks)
	}
	done := at
	var hits int64
	for i := 0; i < req.Blocks; i++ {
		t, wasHit := c.block(at, req, req.LBA+int64(i))
		if wasHit {
			hits++
		}
		if t > done {
			done = t
		}
	}
	c.record(req, hits)
	return done
}

// bypassWhole asks the policy whether a multi-block request skips the cache
// as a whole — one coalesced unit for the scheduler to grant (and to read
// ahead from) — and if so accounts it like the per-block path: one record
// per request, bypasses per block.
func (c *core) bypassWhole(req dss.Request) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.pol.bypassRun(req) {
		return false
	}
	c.base.snap.Bypasses += int64(req.Blocks)
	c.base.record(req.Class, req.Op, req.Blocks, 0)
	return true
}

// record counts one finished request.
func (c *core) record(req dss.Request, hits int64) {
	c.mu.Lock()
	c.base.record(req.Class, req.Op, req.Blocks, hits)
	c.mu.Unlock()
}

// block serves one block of a data request and returns (completion time,
// cache hit). The policy decides under the lock — destages of its victims
// are queued there, ahead of the foreground traffic they make room for —
// and the device accesses the decision calls for run outside it.
func (c *core) block(at time.Duration, req dss.Request, lbn int64) (time.Duration, bool) {
	c.mu.Lock()
	out, pbn := c.pol.place(at, req, lbn)
	wasHit := out == hit
	switch {
	case out == bypass, out == prefetched:
		c.base.snap.Bypasses++
	case !wasHit && req.Op == device.Read:
		c.base.snap.ReadAllocs++
	case !wasHit:
		c.base.snap.WriteAllocs++
	}
	c.mu.Unlock()

	switch out {
	case bypass:
		return submitDev(c.hddS, at, req, req.Op, lbn, 1), false
	case prefetched:
		if ready, ok := c.hddS.Buffered(lbn); ok {
			return max(at, ready), false
		}
		return submitDev(c.ssdS, at, req, req.Op, pbn, 1), false
	}
	if !wasHit && req.Op == device.Read {
		return c.fill(at, req, lbn, pbn), false
	}
	return submitDev(c.ssdS, at, req, req.Op, pbn, 1), wasHit
}

// fill serves a read-allocated block from the HDD and places it in its
// SSD slot: before the read returns (synchronous allocation, as in the
// prototype), or off the critical path under Config.AsyncReadAlloc.
func (c *core) fill(at time.Duration, req dss.Request, lbn, pbn int64) time.Duration {
	hddDone := submitDev(c.hddS, at, req, device.Read, lbn, 1)
	if c.asyncAlloc {
		c.ssdS.SubmitBackground(hddDone, device.Write, pbn, 1, req.Class, req.Tenant)
		return hddDone
	}
	return submitDev(c.ssdS, hddDone, req, device.Write, pbn, 1)
}

// allocSlot hands out an SSD slot: the most recently freed one, else the
// next unused. Caller holds c.mu.
func (c *core) allocSlot() int64 {
	c.cached++
	if n := len(c.freePBN); n > 0 {
		pbn := c.freePBN[n-1]
		c.freePBN = c.freePBN[:n-1]
		return pbn
	}
	c.nextPBN++
	return c.nextPBN - 1
}

// freeSlot recycles the SSD slot of a block leaving the cache. Caller
// holds c.mu.
func (c *core) freeSlot(m *blockMeta) {
	c.freePBN = append(c.freePBN, m.pbn)
	c.cached--
}

// insert enters a new block into the lookup table with a fresh slot, at
// the MRU end of list l, which must be the list class names. The entry is
// a spare one when forget left any. Caller holds c.mu and has made room.
func (c *core) insert(l *lruList, lbn int64, class int, dirty bool, t dss.TenantID) *blockMeta {
	m := c.spare
	if m != nil {
		c.spare = m.next
	} else {
		m = new(blockMeta)
	}
	*m = blockMeta{lbn: lbn, pbn: c.allocSlot(), class: class, dirty: dirty, tenant: t}
	c.table[lbn] = m
	l.pushFront(m)
	return m
}

// forget is the one place a block leaves the lookup table: it unlinks m
// from its policy list l and keeps the entry for the next insert, so the
// caller must not use m afterwards. Caller holds c.mu.
func (c *core) forget(l *lruList, m *blockMeta) {
	l.remove(m)
	delete(c.table, m.lbn)
	m.next = c.spare
	c.spare = m
}

// evicted takes the SSD slot from a policy's victim (Action 6): a dirty
// block is destaged in the background under destageClass first. The
// policy unlinks the block, or keeps it as a ghost. Caller holds c.mu.
func (c *core) evicted(at time.Duration, m *blockMeta, destageClass dss.Class) {
	if m.dirty {
		c.hddS.SubmitBackground(at, device.Write, m.lbn, 1, destageClass, m.tenant)
		c.base.snap.DirtyEvict++
		c.base.mDirtyEvict.Inc()
		m.dirty = false
	}
	c.base.snap.Evictions++
	c.base.mEvict.Inc()
	c.freeSlot(m)
}

// Stats implements System.
func (c *core) Stats() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.base.snapshot(c.cached)
	if p, ok := c.pol.(*priorityPolicy); ok {
		s.GroupBlocks = p.groupBlocks()
	}
	return s
}

// ResetStats implements System.
func (c *core) ResetStats() {
	c.mu.Lock()
	c.base.reset()
	c.mu.Unlock()
	c.grp.ResetStats()
}

// Mode implements System.
func (c *core) Mode() Mode { return c.base.mode }

// SSD implements System.
func (c *core) SSD() *device.Device { return c.ssd }

// HDD implements System.
func (c *core) HDD() *device.Device { return c.hdd }

// Sched implements System.
func (c *core) Sched() *iosched.Group { return c.grp }
