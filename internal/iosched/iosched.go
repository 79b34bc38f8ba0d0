// Package iosched implements a QoS-aware per-device I/O scheduler for
// the simulated storage stack.
//
// The paper's thesis is that carrying classification down the stack lets
// the storage system pick a better service mechanism per request. The
// hybrid cache (package hybrid) exploits classes for data *placement*;
// this package extends the same idea to device *scheduling*: instead of
// serving every request through a single FIFO (simclock.Resource call
// order), each device gets per-class priority queues ordered by the same
// dss class priorities the cache uses, so a pinned ClassLog commit write
// no longer waits behind a background write-back or a low-priority scan.
//
// The scheduler provides four mechanisms:
//
//   - Priority dispatch: pending requests are granted strictly by class
//     rank (log > write buffer > priority 1..N > unclassified), with an
//     aging bound — a request that would wait longer than AgingBound
//     beyond its arrival is granted next regardless of rank, so low
//     classes cannot starve.
//   - Tenant fair shares: within a class band, requests of different
//     tenants are ordered by weighted fair queueing over granted device
//     blocks (see tenantfair.go), so one tenant's aggressive stream
//     cannot turn its class into a private FIFO and starve same-class
//     neighbours. Off until tenant weights are configured.
//   - Coalescing: LBA-adjacent pending requests of the same class and
//     direction are merged into a single larger device access (bounded
//     by maxCoalesce blocks), turning interleaved per-block traffic
//     back into the sequential runs the HDD model rewards.
//   - Readahead: a granted read carrying the sequential-scan class
//     (Rule 1 traffic) is extended by readahead blocks into a prefetch
//     buffer; subsequent scan reads are served from the buffer without
//     re-occupying the device.
//
// # Dispatch model
//
// The simulator is synchronous: a submitter must receive its completion
// time before it can continue, so a request can only be reordered
// against requests that are queued at the same real-time moment. The
// scheduler therefore runs in two modes:
//
//   - Closed-population (barrier) mode: experiment streams register
//     their session clocks with the Group. Membership is the clock's
//     population: Register makes the Group the clock's
//     simclock.Population, Submit recognises a member by it, and the
//     Group keeps only the member count. A pending request is granted
//     only once every registered stream is blocked, which makes the
//     grant order a faithful discrete-event simulation of the contending
//     population: the highest-ranked request wins the device no matter
//     which goroutine called first. Blocked means waiting in Submit or
//     parked: a stream that waits outside the scheduler — on a page
//     lock, a commit batch's leader, a mutex another stream holds across
//     a submission — says so through its clock (Clock.Park/Unpark, or a
//     simclock.Mutex for a lock), stays registered and counts as blocked.
//     A registered stream must never sleep uncounted.
//   - Opportunistic mode (nothing registered): the first submitter
//     becomes the dispatcher and drains the queue in priority order,
//     yielding the CPU between grants so concurrently arriving requests
//     can still be reordered. A lone stream degenerates to FIFO, which
//     keeps single-query runs identical in spirit to the seed model.
//
// Background work (write-back destages, asynchronous flushes) is queued
// in a band below every foreground class. It is granted when the device
// has no foreground work waiting, and — write-back throttling — through
// a token budget: foreground grants earn background a BackgroundShare
// fraction of their blocks as credit, and a backlog with credit is
// granted its best batch even while foreground waits, so a saturated
// foreground phase cannot grow the destage backlog without bound.
// Deferral is also what makes destages cheap: queued LBA-adjacent
// background writes coalesce into single large accesses instead of each
// paying the positioning cost alone.
//
// # Hot path
//
// Per-request cost is kept near-constant: each scheduler owns its lock
// (the group lock covers only the closed-population registry and
// barrier rounds, so streams on different devices never serialize), the
// picker runs on ordered indexes (index.go) instead of queue scans,
// the device's busy horizon, read at every enqueue and pick, is one word
// the device's last access wrote (device.Device.BusyUntil),
// request/waiter/batch memory is pooled, and a grant's completion
// latencies reach the device in one batched observation. Lock order is
// Group.mu → Scheduler.mu → device/histogram internals.
package iosched

import (
	"sync"
	"sync/atomic"
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
	"hstoragedb/internal/obs"
)

// Config parameterizes a scheduler group. The zero value enables the
// scheduler with the defaults below; set FIFO for the scheduler-off
// ablation.
type Config struct {
	// FIFO keeps the queue and closed-population machinery (so
	// experiment arms see identical contention) but grants strictly in
	// arrival order with no class priority, no aging, no coalescing and
	// no readahead: the scheduler-off ablation of the contention
	// experiment.
	FIFO bool

	// AgingBound is the longest a queued request may wait (virtual
	// time, measured against the device's busy horizon) before it is
	// granted regardless of its class rank. Zero (or less) means the
	// default of 10ms. A bound longer than the run turns aging off.
	AgingBound time.Duration

	// BackgroundShare is the write-back throttling budget: the fraction
	// of foreground-granted device blocks earned as credit by queued
	// background work. While background has a backlog and at least one
	// block of credit, its best batch is granted even though foreground
	// is waiting, so a saturated foreground phase can no longer starve
	// destages and grow the backlog without bound. Deferred background
	// work accumulates in the queue, where LBA-adjacent destages
	// coalesce into single large accesses. Zero means the default of
	// 0.3; any negative value (use the DisableBackgroundShare sentinel)
	// disables the budget (background runs only when the device idles —
	// the pre-throttling behaviour).
	BackgroundShare float64

	// TenantWeights are the group's tenant fair-share weights (see
	// tenantfair.go), fixed for the group's life: a weight-4 tenant is
	// entitled to four times the device blocks of a weight-1 tenant while
	// both are backlogged, and a tenant without a positive weight has the
	// implicit weight 1. Nil or empty leaves fair sharing off: the
	// class-only scheduler, which is also the tenants experiment's
	// baseline arm.
	TenantWeights map[dss.TenantID]float64

	// Obs attaches the observability layer: schedulers register their
	// counters and the `iosched.band.wait` histograms, and sampled
	// submissions record queue-wait and device-service spans on the
	// simulated timeline. Nil disables both (the default).
	Obs *obs.Set
}

// DisableBackgroundShare turns the write-back token budget off:
// background work still yields to queued foreground but is otherwise
// dispatched eagerly instead of accumulating in the deferred backlog —
// the pre-throttling behaviour. Zero already means the default, so
// "off" is this explicitly negative value, which round-trips through
// withDefaults untouched.
const DisableBackgroundShare = float64(-1)

const (
	defaultAgingBound      = 10 * time.Millisecond
	defaultBackgroundShare = 0.3
)

const (
	// maxCoalesce caps the size in blocks of one coalesced device
	// access (512 KB). Larger accesses amortize positioning cost but
	// hold the device longer, delaying high-priority arrivals.
	maxCoalesce = 64
	// readahead is the number of blocks prefetched past a granted
	// sequential-class read; the prefetch buffer holds 8 times as many.
	// Attach's NoReadahead class turns it off for a device.
	readahead = 32
)

func (c Config) withDefaults() Config {
	if c.AgingBound <= 0 {
		c.AgingBound = defaultAgingBound
	}
	if c.BackgroundShare == 0 {
		c.BackgroundShare = defaultBackgroundShare
	}
	return c
}

// backgroundBand offsets the rank of background requests below every
// foreground class.
const backgroundBand = 1 << 24

// budgetMaxCoalesce caps the batch size of a budget-forced background
// grant: it runs ahead of waiting foreground, so the interference it
// injects must stay bounded (~one-quarter of a full coalesced batch).
const budgetMaxCoalesce = 16

// classRank maps a dss class to its dispatch rank (smaller is granted
// first). The order mirrors the cache's priority ladder: pinned log
// traffic first, then the write buffer, then caching priorities 1..N
// (which places Rule 1 sequential traffic at N-1 and "non-caching and
// eviction" at N near the bottom), with unclassified requests below all
// classified ones.
func classRank(c dss.Class) int {
	switch c {
	case dss.ClassLog:
		return -2
	case dss.ClassWriteBuffer:
		return -1
	case dss.ClassCompaction:
		// Below the write buffer, above the 1..N caching priorities:
		// foreground-submitted compaction work (a saturated backend
		// forcing a flush) must not starve behind every random read,
		// but never delays a commit-critical log or write-buffer grant.
		// Background-flagged compaction additionally lands in the
		// background band like all background traffic.
		return 0
	case dss.ClassNone:
		return 1 << 20
	default:
		return int(c)
	}
}

// Scheduler orders the traffic of one device. All queue state is
// guarded by the scheduler's own mutex; configuration is copied out of
// the group at attach time so the grant path reads only local fields.
type Scheduler struct {
	g        *Group
	dev      *device.Device
	seqClass dss.Class

	// Immutable after Attach.
	fifo         bool
	agingBound   time.Duration
	maxCoalesce  int
	readahead    int
	readaheadCap int
	bgShare      float64

	// queued mirrors nFg+nBg so group-wide dispatch loops skip idle
	// schedulers without taking their lock.
	queued atomic.Int64

	mu sync.Mutex

	// The pending queue, as the ordered indexes the picker reads (see
	// index.go for the invariants). destageAt heads, per LBA, the list
	// of pending single-block background writes that write absorption
	// takes the oldest of.
	bands     []*band
	age       ageHeap
	startAt   map[int64]*request
	endAt     map[int64]*request
	destageAt map[int64]*request

	seq   uint64
	stats Stats

	// nFg and nBg count pending foreground/background requests, so
	// eligibility probes stay O(1) against a deep deferred backlog.
	nFg int
	nBg int

	// bgArriveMax is the latest arrival of any background request ever
	// queued (never lowered), so an idle-device grant is ruled out
	// without searching the backlog (pickIndexedLocked).
	bgArriveMax time.Duration

	// bgCredit is the write-back budget balance in blocks: foreground
	// grants deposit BackgroundShare of their blocks, budget-forced
	// background grants withdraw what they carried, floored at zero —
	// a batch larger than the balance has the excess forgiven rather
	// than borrowed against future deposits, and the forgiveness is
	// bounded by one budget batch per grant.
	bgCredit float64

	// vclock is the scheduler's fair-queueing virtual time: the start
	// tag of the most recently granted foreground request. tenants
	// holds per-tenant finish tags and counters (see tenantfair.go).
	vclock  float64
	tenants map[dss.TenantID]*tenantAcct

	// draining marks an opportunistic dispatcher round in progress on
	// this scheduler, so concurrent drainers skip it instead of
	// double-granting the same queue.
	draining bool

	// Pooled hot-path memory: the request freelist, the reused grant
	// batch, and the reused per-grant completion buffers. All owned by
	// s.mu; a request returns to the freelist only after every index
	// link has been cleared.
	freeReq  *request
	batch    []*request
	latBatch []device.LatencySample
	doneW    []*waiter

	ra      map[int64]time.Duration // prefetch buffer: lba -> ready time
	raOrder []int64                 // FIFO eviction order (may hold stale keys)

	// grantHook, when set, observes every grant before it is issued:
	// the batch in final order (already off the indexes), the coalesced
	// span, the budget flag and the bgOK the pick ran under. Test-only:
	// the picker oracle re-derives each grant through it.
	grantHook func(batch []*request, start int64, total int, budget, bgOK bool)

	// Registry instruments, nil (inert) without Config.Obs. The
	// per-class band-wait histograms and per-tenant block counters are
	// cached in the maps so the grant path pays one registry lookup per
	// new key, then plain atomics.
	mSubmitted    *obs.Counter
	mGranted      *obs.Counter
	mCoalesced    *obs.Counter
	mBoosted      *obs.Counter
	mPrefetchHits *obs.Counter
	mPrefetchBlks *obs.Counter
	mBgGrants     *obs.Counter
	mBandWait     map[int]*obs.HistVar
	mTenantBlocks map[dss.TenantID]*obs.Counter
}

// Device returns the device this scheduler feeds.
func (s *Scheduler) Device() *device.Device { return s.dev }
