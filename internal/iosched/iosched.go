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
//     by MaxCoalesce blocks), turning interleaved per-block traffic
//     back into the sequential runs the HDD model rewards.
//   - Readahead: a granted read carrying the sequential-scan class
//     (Rule 1 traffic) is extended by Readahead blocks into a prefetch
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
//     their session clocks with the Group. A pending request is granted
//     only once every registered stream is blocked in the scheduler,
//     which makes the grant order a faithful discrete-event simulation
//     of the contending population: the highest-ranked request wins the
//     device no matter which goroutine called first. Registered streams
//     must perform their I/O independently (a stream must not block on
//     a lock another registered stream holds across a submission).
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
// request/waiter/batch memory is pooled, and a grant's completion
// latencies reach the device in one batched observation. Lock order is
// Group.mu → Scheduler.mu → device/histogram internals.
package iosched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
	"hstoragedb/internal/obs"
	"hstoragedb/internal/simclock"
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
	// granted regardless of its class rank. Zero means the default of
	// 10ms; any negative value (use the DisableAging sentinel) disables
	// aging. "Aging off" is not representable as 0 — 0 is the
	// zero-value-means-default convention every other knob follows.
	AgingBound time.Duration

	// MaxCoalesce caps the size in blocks of one coalesced device
	// access. Larger accesses amortize positioning cost but hold the
	// device longer, delaying high-priority arrivals. Zero means the
	// default of 64 blocks (512 KB).
	MaxCoalesce int

	// Readahead is the number of blocks prefetched past a granted
	// sequential-class read. Zero means the default of 32; any negative
	// value (use the DisableReadahead sentinel) disables readahead. The
	// prefetch buffer holds 8 * Readahead blocks.
	Readahead int

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

	// AnticipatoryQuantum bounds consecutive elevator service of one
	// stream, in granted blocks. Once a stream has been granted that
	// many blocks back to back, the picker prefers the nearest same-band
	// request from any other stream, so a stream parked at the head's
	// LBA neighbourhood cannot monopolize an HDD elevator for the whole
	// stretch between aging boosts. Zero (the default) disables the
	// policy — here zero-means-default and default-is-off coincide, so
	// no sentinel is needed. The aging bound is checked first and is
	// never weakened by a switch. Ignored under FIFO and by the reference
	// picker (linearPick).
	AnticipatoryQuantum int

	// linearPick selects the reference picker: the original O(n) scans
	// over one pending slice. The indexed picker grants in exactly the
	// same order — a property enforced by this package's differential
	// test, the only thing that sets it (with the picker microbenchmark).
	linearPick bool

	// TenantWeights seeds the group's tenant fair-share weights (see
	// Group.SetTenantWeight). Nil or empty leaves fair sharing off: the
	// class-only scheduler, which is also the tenants experiment's
	// baseline arm.
	TenantWeights map[dss.TenantID]float64

	// Obs attaches the observability layer: schedulers register their
	// counters and the `iosched.band.wait` histograms, and sampled
	// submissions record queue-wait and device-service spans on the
	// simulated timeline. Nil disables both (the default).
	Obs *obs.Set
}

// Sentinels for the Config knobs whose zero value means "use the
// default": disabling those mechanisms is expressed with an explicitly
// negative value, never with 0. Assigning the sentinel reads as intent
// at the call site and round-trips through withDefaults untouched.
const (
	// DisableAging turns the starvation aging bound off entirely: class
	// rank (and, under fair sharing, tenant finish tags) alone decide
	// dispatch, and a low class can wait without bound.
	DisableAging = time.Duration(-1)

	// DisableReadahead turns sequential-class prefetching off for the
	// whole group (per-device opt-out is Attach's NoReadahead class).
	DisableReadahead = -1
)

// DisableBackgroundShare turns the write-back token budget off:
// background work still yields to queued foreground but is otherwise
// dispatched eagerly instead of accumulating in the deferred backlog —
// the pre-throttling behaviour.
const DisableBackgroundShare = float64(-1)

const (
	defaultAgingBound      = 10 * time.Millisecond
	defaultMaxCoalesce     = 64
	defaultReadahead       = 32
	defaultBackgroundShare = 0.3
)

func (c Config) withDefaults() Config {
	if c.AgingBound == 0 {
		c.AgingBound = defaultAgingBound
	}
	if c.MaxCoalesce <= 0 {
		c.MaxCoalesce = defaultMaxCoalesce
	}
	if c.Readahead == 0 {
		c.Readahead = defaultReadahead
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

// NoReadahead is a sentinel seqClass for Attach that matches no real
// request class, disabling readahead on that device. Cache devices need
// it: their address space is physical cache slots (PBNs, recycled
// arbitrarily), so "the next 32 blocks" after a cache hit are
// physically meaningless and must not be prefetched.
const NoReadahead = dss.Class(-1 << 30)

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

// waiter tracks one Submit call; a multi-chunk submission shares one
// waiter across its chunk requests. arrive and class feed the one
// latency sample recorded per submission (not per chunk, so the FIFO
// and scheduler arms produce comparable histograms). Waiters are pooled:
// the cond (whose L is wired once at construction) survives recycling,
// unlike the one-shot channel it replaced.
type waiter struct {
	mu    sync.Mutex
	cond  sync.Cond
	ready bool

	remaining  int
	completion time.Duration
	arrive     time.Duration
	class      dss.Class
	tenant     dss.TenantID
	barrier    bool

	// trace marks a submission admitted by the tracer's sampling gate;
	// tid is the submitting stream's trace track (its clock ID).
	trace bool
	tid   int64
}

var waiterPool = sync.Pool{New: func() any {
	w := &waiter{}
	w.cond.L = &w.mu
	return w
}}

func newWaiter(arrive time.Duration, class dss.Class, tenant dss.TenantID) *waiter {
	w := waiterPool.Get().(*waiter)
	w.ready = false
	w.remaining = 0
	w.completion = 0
	w.arrive = arrive
	w.class = class
	w.tenant = tenant
	w.barrier = false
	w.trace = false
	w.tid = 0
	return w
}

// wait parks the submitter until its last chunk completes. The granter
// touches the waiter last in signal, so the submitter owns it again on
// return and may recycle it.
func (w *waiter) wait() {
	w.mu.Lock()
	for !w.ready {
		w.cond.Wait()
	}
	w.mu.Unlock()
}

func (w *waiter) signal() {
	w.mu.Lock()
	w.ready = true
	w.mu.Unlock()
	w.cond.Signal()
}

// request is one schedulable unit: a chunk of a foreground submission or
// one background access. Requests are recycled through a per-scheduler
// freelist; every index link below is cleared when the request leaves
// the queue, before it can be reused.
type request struct {
	op     device.Op
	lba    int64
	blocks int
	class  dss.Class
	tenant dss.TenantID
	rank   int
	arrive time.Duration
	// base is the later of the arrival and the device's busy horizon at
	// enqueue: the earliest the request could possibly have been served.
	// Grant wait is measured from it, so a stream whose clock lags a
	// saturated device is not billed the pre-existing backlog as
	// scheduler-imposed delay.
	base time.Duration
	seq  uint64
	w    *waiter // nil for background work

	// sid identifies the submitting stream (its session clock) for the
	// anticipatory-quantum policy; nil for background work and
	// streamless submitters.
	sid *simclock.Clock

	// vstart and vfinish are the request's fair-queueing tags (see
	// tenantfair.go). Both stay 0 when fair sharing is off and for
	// background work, which keeps the tag comparison inert.
	vstart, vfinish float64

	// Index state (indexed picker only): position in the aging heap
	// (-1 when not a member), owning band tree, and the boundary-list
	// links at the request's start and end LBAs (index.go).
	ageIdx       int
	band         *band
	sNext, sPrev *request
	eNext, ePrev *request

	// next chains the scheduler's request freelist.
	next *request
}

// Stats are cumulative counters for one scheduler (one device).
type Stats struct {
	// Submitted counts foreground submissions; Granted counts device
	// accesses actually issued (after coalescing and chunk merging).
	Submitted int64
	Granted   int64
	// Coalesced counts queued requests merged into another grant.
	Coalesced int64
	// Boosted counts grants where the aging bound overrode strict
	// priority order.
	Boosted int64
	// StreamSwitches counts grants where the anticipatory quantum
	// deliberately moved the elevator to another stream's request
	// (Config.AnticipatoryQuantum).
	StreamSwitches int64
	// PrefetchBlocks counts blocks read ahead; PrefetchHits counts
	// blocks later served from the readahead buffer without a device
	// access.
	PrefetchBlocks int64
	PrefetchHits   int64
	// MaxQueue is the deepest the pending queue has been.
	MaxQueue int
	// BackgroundGrants counts device accesses granted to background
	// work; BackgroundBlocks the blocks they carried; BudgetGrants the
	// grants the write-back budget forced ahead of waiting foreground.
	BackgroundGrants int64
	BackgroundBlocks int64
	BudgetGrants     int64
	// BudgetDeposits, BudgetWithdrawals and BudgetBlocks audit the
	// write-back token budget in blocks. Foreground grants deposit
	// share*blocks (capped at one coalesced batch of credit — a capped
	// deposit is forfeited, not banked); budget grants withdraw the
	// credit they actually consumed, so at any point
	// deposits - withdrawals == credit exactly and coalesced background
	// blocks are provably not double-counted against the foreground
	// budget. BudgetBlocks counts the blocks budget grants carried:
	// BudgetBlocks - BudgetWithdrawals is the overdraw forgiven by the
	// zero floor, bounded by one budget batch per grant.
	BudgetDeposits    float64
	BudgetWithdrawals float64
	BudgetBlocks      int64
	// Absorbed counts queued background writes dropped because a newer
	// background write to the same block superseded them before they
	// reached the device (write absorption in the deferred backlog).
	Absorbed int64
	// MaxBackgroundQueue is the deepest the background backlog has been.
	MaxBackgroundQueue int
}

// Group is the scheduling domain of one storage system: the schedulers
// of its devices plus the registry of closed-population streams. Each
// scheduler orders its own queue under its own lock; the group lock
// covers only the stream registry and barrier dispatch rounds, so
// streams submitting to different devices do not serialize. Lock order
// is Group.mu → Scheduler.mu.
type Group struct {
	cfg Config

	mu         sync.Mutex
	scheds     []*Scheduler
	registered map[*simclock.Clock]struct{}

	// nRegistered mirrors len(registered) so the opportunistic submit
	// path can skip g.mu entirely; blocked counts barrier-parked
	// streams (incremented under g.mu when a registered stream submits,
	// decremented from grant completions under scheduler locks).
	nRegistered atomic.Int64
	blocked     atomic.Int64

	// schedList is the attach-order scheduler list, republished on
	// Attach, for lock-free iteration by the opportunistic drain loop.
	schedList atomic.Pointer[[]*Scheduler]

	// tenantW is the copy-on-write tenant fair-share weight table (see
	// tenantfair.go): hot paths snapshot it with one atomic load,
	// writers replace it wholesale under g.mu. A nil pointer or empty
	// map means fair sharing is off.
	tenantW atomic.Pointer[map[dss.TenantID]float64]

	// obs is the attached observability set (nil-safe throughout).
	obs *obs.Set
}

// NewGroup creates an empty scheduling domain.
func NewGroup(cfg Config) *Group {
	g := &Group{cfg: cfg.withDefaults(), registered: make(map[*simclock.Clock]struct{}), obs: cfg.Obs}
	var tw map[dss.TenantID]float64
	for id, w := range cfg.TenantWeights {
		if w > 0 {
			if tw == nil {
				tw = make(map[dss.TenantID]float64, len(cfg.TenantWeights))
			}
			tw[id] = w
		}
	}
	if tw != nil {
		g.tenantW.Store(&tw)
	}
	return g
}

// Attach wires a device into the group and returns its scheduler.
// seqClass is the class the policy space assigns to sequential-scan
// traffic (Rule 1): reads carrying it trigger readahead. Pass
// NoReadahead for devices whose address space is not logical LBAs
// (cache devices addressed by recycled slot numbers).
func (g *Group) Attach(dev *device.Device, seqClass dss.Class) *Scheduler {
	cfg := g.cfg
	s := &Scheduler{
		g: g, dev: dev, seqClass: seqClass,
		fifo:         cfg.FIFO,
		linear:       cfg.linearPick,
		agingBound:   cfg.AgingBound,
		maxCoalesce:  cfg.MaxCoalesce,
		readahead:    cfg.Readahead,
		readaheadCap: 8 * cfg.Readahead,
		bgShare:      cfg.BackgroundShare,
		quantum:      cfg.AnticipatoryQuantum,
	}
	if cfg.FIFO || cfg.linearPick {
		// Neither alternate picker supports the quantum walk; keeping
		// the knob inert there keeps them byte-for-byte reference arms.
		s.quantum = 0
	}
	if !s.linear {
		s.startAt = make(map[int64]*request)
		s.endAt = make(map[int64]*request)
	}
	if cfg.Readahead > 0 && !cfg.FIFO && seqClass != NoReadahead {
		s.ra = make(map[int64]time.Duration)
	}
	if reg := g.obs.Registry(); reg != nil {
		dev.Use(g.obs)
		l := obs.L("dev", dev.Spec().Name)
		s.mSubmitted = reg.Counter("iosched.submitted", l)
		s.mGranted = reg.Counter("iosched.granted", l)
		s.mCoalesced = reg.Counter("iosched.coalesced", l)
		s.mBoosted = reg.Counter("iosched.boosted", l)
		s.mPrefetchHits = reg.Counter("iosched.prefetch.hits", l)
		s.mPrefetchBlks = reg.Counter("iosched.prefetch.blocks", l)
		s.mBgGrants = reg.Counter("iosched.background.grants", l)
		s.mBandWait = make(map[int]*obs.HistVar)
		s.mTenantBlocks = make(map[dss.TenantID]*obs.Counter)
	}
	g.mu.Lock()
	g.scheds = append(g.scheds, s)
	list := append([]*Scheduler(nil), g.scheds...)
	g.schedList.Store(&list)
	g.mu.Unlock()
	return s
}

// bandWaitLocked returns (caching on first use) the `iosched.band.wait`
// histogram of one class band on this device: the scheduler-imposed
// grant delay, measured the way the aging bound measures it. Caller
// holds s.mu.
func (s *Scheduler) bandWaitLocked(class int) *obs.HistVar {
	if s.mBandWait == nil {
		return nil
	}
	hv := s.mBandWait[class]
	if hv == nil {
		hv = s.g.obs.Registry().Histogram("iosched.band.wait",
			obs.L("dev", s.dev.Spec().Name), obs.LInt("class", int64(class)))
		s.mBandWait[class] = hv
	}
	return hv
}

// tenantBlocksLocked returns (caching on first use) the
// `iosched.tenant.blocks` counter of one tenant on this device: the
// foreground device blocks granted to it, the fairness metric tenant
// shares are judged by. Caller holds s.mu.
func (s *Scheduler) tenantBlocksLocked(t dss.TenantID) *obs.Counter {
	if s.mTenantBlocks == nil {
		return nil
	}
	c := s.mTenantBlocks[t]
	if c == nil {
		c = s.g.obs.Registry().Counter("iosched.tenant.blocks",
			obs.L("dev", s.dev.Spec().Name), obs.LInt("tenant", int64(t)))
		s.mTenantBlocks[t] = c
	}
	return c
}

// Register enrolls a stream (identified by its session clock) into the
// closed population. While any stream is registered, grants happen only
// when every registered stream is blocked in the scheduler, which makes
// priority order authoritative regardless of goroutine timing. Streams
// must Unregister (typically via defer) when their workload ends.
func (g *Group) Register(clk *simclock.Clock) {
	g.mu.Lock()
	g.registered[clk] = struct{}{}
	g.nRegistered.Store(int64(len(g.registered)))
	g.mu.Unlock()
}

// Registered reports whether the stream is currently enrolled in the
// closed population.
func (g *Group) Registered(clk *simclock.Clock) bool {
	g.mu.Lock()
	_, ok := g.registered[clk]
	g.mu.Unlock()
	return ok
}

// Unregister withdraws a stream from the closed population. The stream
// must have no submission in flight. When the last stream leaves, any
// queued work is drained.
func (g *Group) Unregister(clk *simclock.Clock) {
	g.mu.Lock()
	delete(g.registered, clk)
	g.nRegistered.Store(int64(len(g.registered)))
	empty := len(g.registered) == 0
	if !empty && g.blocked.Load() >= int64(len(g.registered)) {
		g.dispatchLocked()
	}
	g.mu.Unlock()
	if empty {
		g.drain(true)
	}
}

// Drain grants every queued request (background flushes included, budget
// or not) in priority order. The storage manager calls it before
// settling device busy horizons at the end of a run.
func (g *Group) Drain() {
	g.drain(true)
}

// ResetStats clears every scheduler's counters — the per-tenant ones
// included — but neither the readahead buffer contents nor the tenants'
// fair-queueing tags (virtual time keeps flowing across a stats reset).
// The write-back credit balance likewise carries across the reset; it
// is re-seeded into the fresh ledger as an opening deposit so the
// documented invariant deposits - withdrawals == credit keeps holding
// in the measured window.
func (g *Group) ResetStats() {
	for _, s := range g.schedulers() {
		s.mu.Lock()
		s.stats = Stats{BudgetDeposits: s.bgCredit}
		for _, a := range s.tenants {
			a.stats = TenantStats{}
		}
		s.mu.Unlock()
	}
}

// Schedulers returns the group's schedulers in attach order.
func (g *Group) Schedulers() []*Scheduler {
	return append([]*Scheduler(nil), g.schedulers()...)
}

// schedulers returns the shared attach-order list (do not mutate).
func (g *Group) schedulers() []*Scheduler {
	if p := g.schedList.Load(); p != nil {
		return *p
	}
	return nil
}

// dispatchLocked runs barrier-mode rounds: grant in priority order until
// some registered stream is released, then let due background work
// trickle onto the device. Caller holds g.mu; scheduler locks are taken
// per grant underneath it.
func (g *Group) dispatchLocked() {
	n := int64(len(g.registered))
	for n > 0 && g.blocked.Load() >= n {
		progress := false
		for _, s := range g.scheds {
			if s.queued.Load() == 0 {
				continue
			}
			s.mu.Lock()
			if s.grantBestLocked(false) {
				progress = true
			}
			s.mu.Unlock()
			if g.blocked.Load() < n {
				break
			}
		}
		if !progress {
			break
		}
	}
	for _, s := range g.scheds {
		s.mu.Lock()
		s.grantDueBackgroundLocked()
		s.mu.Unlock()
	}
}

// drain grants eligible work until none remains, yielding between
// rounds so concurrently arriving requests can join the priority order.
// With all set (an explicit Drain, or the last registered stream
// leaving) every queued request is granted; otherwise — the
// opportunistic dispatch path — foreground is fully granted but
// background only as its write-back budget allows, so the destage
// backlog stays queued (and keeps coalescing) instead of trickling onto
// the device one positioning penalty at a time.
//
// The loop covers every scheduler of the group (a round attempts one
// grant per queued device, exactly like the single-lock dispatcher it
// replaced), but idle schedulers are skipped on an atomic queue-depth
// probe, so concurrent submitters draining disjoint devices touch only
// their own locks. A scheduler already being drained by another
// goroutine is skipped for the round — each round's grant and exit
// check run in one critical section, so the active drainer cannot miss
// work enqueued before it released the lock.
func (g *Group) drain(all bool) {
	scheds := g.schedulers()
	for {
		eligible := false
		for _, s := range scheds {
			if s.queued.Load() == 0 {
				continue
			}
			s.mu.Lock()
			if s.draining {
				s.mu.Unlock()
				continue
			}
			s.draining = true
			if s.nFg+s.nBg > 0 {
				s.grantBestLocked(all)
			}
			if s.hasEligibleLocked(all) {
				eligible = true
			}
			s.draining = false
			s.mu.Unlock()
		}
		// Exit as soon as no eligible work remains: the dispatcher must
		// not stay captive granting other streams' arrivals (its own
		// workload would stall in real time), and deferred background is
		// not eligible work.
		if !eligible {
			return
		}
		runtime.Gosched()
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
	linear       bool
	agingBound   time.Duration
	maxCoalesce  int
	readahead    int
	readaheadCap int
	bgShare      float64
	quantum      int

	// queued mirrors nFg+nBg so group-wide dispatch loops skip idle
	// schedulers without taking their lock.
	queued atomic.Int64

	mu sync.Mutex

	// pending is the reference picker's queue (Config.linearPick only);
	// the indexed picker keeps its requests in the structures below
	// (see index.go for the invariants).
	pending []*request
	bands   []*band
	age     ageHeap
	startAt map[int64]*request
	endAt   map[int64]*request

	seq   uint64
	stats Stats

	// nFg and nBg count pending foreground/background requests, so
	// eligibility probes stay O(1) against a deep deferred backlog;
	// bgWriteLBAs counts pending single-block background writes per
	// LBA, so the absorption check looks up the queue only on an actual
	// duplicate.
	nFg        int
	nBg        int
	bgWriteLBA map[int64]int

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

	// antStream and antLeft drive the anticipatory quantum: the stream
	// whose requests the elevator is currently serving and the blocks
	// left in its quantum (index.go).
	antStream *simclock.Clock
	antLeft   int

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

	// grantHook, when set, observes every grant before it is issued
	// (batch in final order, the coalesced span, and the budget flag).
	// Test-only: the differential picker test records grant sequences
	// through it.
	grantHook func(batch []*request, start int64, total int, budget bool)

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

// Stats returns a snapshot of the scheduler counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// newRequestLocked takes a request from the freelist (or allocates the
// pool's next entry). Caller holds s.mu.
func (s *Scheduler) newRequestLocked() *request {
	r := s.freeReq
	if r == nil {
		r = &request{}
	} else {
		s.freeReq = r.next
		r.next = nil
	}
	r.ageIdx = -1
	return r
}

// putRequestLocked recycles a granted request. Caller holds s.mu and
// must have removed the request from every index first.
func (s *Scheduler) putRequestLocked(r *request) {
	next := s.freeReq
	*r = request{ageIdx: -1, next: next}
	s.freeReq = r
}

// Submit delivers a foreground request: the caller's stream waits (in
// virtual time) for its completion, which is returned. tenant
// attributes the request for weighted fair sharing and per-tenant
// accounting (dss.DefaultTenant for unattributed traffic). If stream is
// a clock registered with the group, the request takes part in
// closed-population dispatch; otherwise it is granted opportunistically.
func (s *Scheduler) Submit(at time.Duration, op device.Op, lba int64, blocks int, class dss.Class, tenant dss.TenantID, stream *simclock.Clock) time.Duration {
	if blocks <= 0 {
		return at
	}
	g := s.g
	fair := len(g.weights()) > 0
	s.mu.Lock()
	s.stats.Submitted++
	s.mSubmitted.Inc()
	if trackTenant(tenant, fair) {
		s.acctLocked(tenant).stats.Submitted++
	}
	if op == device.Write {
		s.invalidateRALocked(lba, blocks)
	}
	floor := at
	if op == device.Read && s.ra != nil {
		// Serve the run's prefix from the readahead buffer: scan
		// traffic consumes the blocks the previous grant prefetched.
		for blocks > 0 {
			ready, ok := s.ra[lba]
			if !ok {
				break
			}
			delete(s.ra, lba)
			s.stats.PrefetchHits++
			s.mPrefetchHits.Inc()
			if ready > floor {
				floor = ready
			}
			lba++
			blocks--
		}
		if blocks == 0 {
			s.dev.ObserveLatency(int(class), floor-at)
			if trackTenant(tenant, fair) {
				s.dev.ObserveTenantLatency(int(tenant), floor-at)
			}
			if tr := g.obs.Trace(); tr.SampleRequest() {
				var tid int64
				if stream != nil {
					tid = stream.ID()
				}
				tr.Instant("iosched", "prefetch.hit", tid, at, map[string]any{
					"dev": s.dev.Spec().Name, "lba": lba - 1, "class": int(class)})
			}
			s.mu.Unlock()
			return floor
		}
	}

	w := newWaiter(at, class, tenant)
	if tr := g.obs.Trace(); tr.SampleRequest() {
		w.trace = true
		if stream != nil {
			w.tid = stream.ID()
		}
	}

	if stream != nil && g.nRegistered.Load() > 0 {
		// Possibly a barrier submission: re-check membership under the
		// group lock, and perform flag/enqueue/blocked-count as one
		// atomic step so a concurrent grant can never complete a
		// barrier request whose park was not counted yet.
		s.mu.Unlock()
		g.mu.Lock()
		if _, ok := g.registered[stream]; ok {
			w.barrier = true
			s.mu.Lock()
			s.enqueueLocked(w, at, op, lba, blocks, class, tenant, stream)
			s.mu.Unlock()
			if g.blocked.Add(1) >= int64(len(g.registered)) {
				g.dispatchLocked()
			}
			g.mu.Unlock()
			return finishWait(w, floor)
		}
		g.mu.Unlock()
		s.mu.Lock()
	}
	s.enqueueLocked(w, at, op, lba, blocks, class, tenant, stream)
	s.mu.Unlock()
	g.drain(false)
	return finishWait(w, floor)
}

// finishWait parks on the waiter, recycles it, and folds in the
// prefetch-prefix floor.
func finishWait(w *waiter, floor time.Duration) time.Duration {
	w.wait()
	end := w.completion
	waiterPool.Put(w)
	if floor > end {
		return floor
	}
	return end
}

// SubmitBackground queues work no requester waits on (write-back
// destages, asynchronous cache fills). It is granted below every
// foreground class — on an idle device, when the backlog's write-back
// budget covers it, or at the final Drain — and it is exempt from
// aging: nobody waits on it, so it never jumps ahead of foreground
// traffic on age. tenant attributes the blocks for per-tenant
// accounting only; background work carries no fair-queueing tags.
// Deferred work stays queued, where adjacent destages coalesce. Safe
// to call while holding caller locks: it never blocks on a grant.
func (s *Scheduler) SubmitBackground(at time.Duration, op device.Op, lba int64, blocks int, class dss.Class, tenant dss.TenantID) {
	if blocks <= 0 {
		return
	}
	g := s.g
	s.mu.Lock()
	if op == device.Write {
		s.invalidateRALocked(lba, blocks)
		// Write absorption: a queued background write to the same block
		// is superseded by this one — the device only needs the latest
		// copy, so the stale destage is dropped before it costs a
		// positioning penalty.
		if blocks == 1 && s.bgWriteLBA[lba] > 0 {
			if s.linear {
				for i, r := range s.pending {
					if r.w == nil && r.op == device.Write && r.blocks == 1 && r.lba == lba {
						s.putRequestLocked(s.removeAtLocked(i))
						s.stats.Absorbed++
						break
					}
				}
			} else if r := s.absorbCandidateLocked(lba); r != nil {
				s.indexRemoveLocked(r)
				s.putRequestLocked(r)
				s.stats.Absorbed++
			}
		}
	}
	s.enqueueLocked(nil, at, op, lba, blocks, class, tenant, nil)
	s.mu.Unlock()
	if g.nRegistered.Load() == 0 {
		g.drain(false)
	}
}

// enqueueLocked splits a submission into MaxCoalesce-sized chunks (so a
// long scan run cannot monopolize the device between grants) and queues
// them. Under fair sharing, each foreground chunk is stamped with its
// tenant's start/finish tags: consecutive chunks chain through the
// tenant's lastFinish, so one big submission pays virtual time
// proportional to all of its blocks. FIFO mode queues the submission
// whole, as the legacy elevator would. Caller holds s.mu.
func (s *Scheduler) enqueueLocked(w *waiter, at time.Duration, op device.Op, lba int64, blocks int, class dss.Class, tenant dss.TenantID, sid *simclock.Clock) {
	rank := classRank(class)
	if w == nil {
		rank += backgroundBand
	}
	var ta *tenantAcct
	var weight float64
	if w != nil {
		if wm := s.g.weights(); len(wm) > 0 {
			ta = s.acctLocked(tenant)
			weight = weightOf(wm, tenant)
		}
	}
	max := s.maxCoalesce
	if s.fifo {
		max = blocks
	}
	base := at
	if b := s.dev.BusyUntil(); b > base {
		base = b
	}
	for blocks > 0 {
		n := blocks
		if n > max {
			n = max
		}
		r := s.newRequestLocked()
		r.op, r.lba, r.blocks, r.class, r.tenant = op, lba, n, class, tenant
		r.rank, r.arrive, r.base, r.seq, r.w, r.sid = rank, at, base, s.seq, w, sid
		if ta != nil {
			start := s.vclock
			if ta.lastFinish > start {
				start = ta.lastFinish
			}
			ta.lastFinish = start + float64(n)/weight
			r.vstart, r.vfinish = start, ta.lastFinish
		}
		s.seq++
		if w != nil {
			w.remaining++
			s.nFg++
		} else {
			s.nBg++
			if op == device.Write && n == 1 {
				if s.bgWriteLBA == nil {
					s.bgWriteLBA = make(map[int64]int)
				}
				s.bgWriteLBA[lba]++
			}
		}
		if s.linear {
			s.pending = append(s.pending, r)
		} else {
			s.indexInsertLocked(r)
		}
		s.queued.Add(1)
		lba += int64(n)
		blocks -= n
	}
	if q := s.nFg + s.nBg; q > s.stats.MaxQueue {
		s.stats.MaxQueue = q
	}
	if s.nBg > s.stats.MaxBackgroundQueue {
		s.stats.MaxBackgroundQueue = s.nBg
	}
}

// hasEligibleLocked reports whether the queue holds work a dispatch
// round would grant: any foreground request, or background when allowed
// by a full drain, a disabled throttle, or available budget credit.
// Caller holds s.mu.
func (s *Scheduler) hasEligibleLocked(bgOK bool) bool {
	if s.nFg > 0 {
		return true
	}
	return s.nBg > 0 && (bgOK || s.bgShare <= 0 || s.bgCredit >= 1)
}

// pickLinearLocked is the reference picker (Config.linearPick): the
// original O(n) scans over the pending slice. It chooses the next
// request exactly like pickIndexedLocked — the oldest foreground
// request whose wait would exceed the aging bound, else the best
// (rank, vfinish, elevator) foreground request, else background.
// Background is exempt from aging — nobody waits on it — and while
// foreground is pending it is eligible only when its write-back budget
// holds at least one block of credit (returned as budget=true so the
// grant is debited) or when bgOK forces a full drain. FIFO mode picks
// strictly by arrival. Returns -1 when nothing is eligible. Caller
// holds s.mu.
func (s *Scheduler) pickLinearLocked(bgOK bool) (pick int, budget bool) {
	if len(s.pending) == 0 {
		return -1, false
	}
	if s.fifo {
		oldest := 0
		for i, r := range s.pending {
			if olderThan(r, s.pending[oldest]) {
				oldest = i
			}
		}
		return oldest, false
	}
	busy := s.dev.BusyUntil()
	bound := s.agingBound
	head := s.dev.HeadLBA()
	bestFg, overdue, bestBg := -1, -1, -1
	for i, r := range s.pending {
		if r.w != nil {
			if bound > 0 && busy-r.arrive > bound {
				if overdue < 0 || olderThan(r, s.pending[overdue]) {
					overdue = i
				}
			}
			if bestFg < 0 || betterThanAt(r, s.pending[bestFg], head) {
				bestFg = i
			}
		} else if bestBg < 0 || betterThanAt(r, s.pending[bestBg], head) {
			bestBg = i
		}
	}
	if overdue >= 0 && overdue != bestFg {
		s.stats.Boosted++
		s.mBoosted.Inc()
		return overdue, false
	}
	if bestFg >= 0 {
		if bestBg >= 0 && s.bgShare > 0 && s.bgCredit >= 1 &&
			s.pending[bestBg].blocks <= budgetMaxCoalesce {
			// The budget guarantees background its bounded share of
			// device time even under a saturated foreground phase. A
			// chunk already larger than the budget batch cap is never
			// forced ahead of waiting foreground — the cap bounds the
			// latency a budget grant injects, and capping only the
			// coalescing loop would not bound the head request itself.
			return bestBg, true
		}
		return bestFg, false
	}
	if bestBg >= 0 && !bgOK && s.bgShare > 0 {
		// Opportunistic dispatch grants background on a genuinely idle
		// device (free time the request interferes with nothing on) or
		// against budget credit; otherwise the backlog keeps
		// accumulating (and coalescing) until credit, idle time or the
		// final drain releases it. A negative share disables the
		// throttle entirely and background dispatches eagerly, as
		// before.
		if busy <= s.pending[bestBg].arrive {
			return bestBg, false
		}
		if s.bgCredit >= 1 {
			return bestBg, true
		}
		return -1, false
	}
	return bestBg, false
}

func olderThan(a, b *request) bool {
	if a.arrive != b.arrive {
		return a.arrive < b.arrive
	}
	return a.seq < b.seq
}

// betterThanAt orders same-rank requests first by fair-queueing finish
// tag — under tenant fair sharing, the tenant owed the most virtual
// time wins the class band — and then by distance from the device head
// (the elevator pass): with several same-class same-tenant requests
// co-pending — concurrent transaction streams, an accumulated destage
// backlog — the nearest is granted first, so queue depth buys shorter
// positioning. With fair sharing off every finish tag is 0 and the
// ordering reduces to the class-only elevator. The aging bound, checked
// before this ordering applies, keeps far-away requests (and low-weight
// tenants) from starving.
func betterThanAt(a, b *request, head int64) bool {
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	if a.vfinish != b.vfinish {
		return a.vfinish < b.vfinish
	}
	if head >= 0 {
		da, db := a.lba-head, b.lba-head
		if da < 0 {
			da = -da
		}
		if db < 0 {
			db = -db
		}
		if da != db {
			return da < db
		}
	}
	return a.seq < b.seq
}

// noteRemovedLocked maintains the pending counters for a request that
// just left the queue (either picker). Caller holds s.mu.
func (s *Scheduler) noteRemovedLocked(r *request) {
	s.queued.Add(-1)
	if r.w != nil {
		s.nFg--
	} else {
		s.nBg--
		if r.op == device.Write && r.blocks == 1 {
			if n := s.bgWriteLBA[r.lba]; n > 1 {
				s.bgWriteLBA[r.lba] = n - 1
			} else {
				delete(s.bgWriteLBA, r.lba)
			}
		}
	}
}

// removeAtLocked drops index i from the linear pending queue, preserving
// order and the pending counters. Caller holds s.mu.
func (s *Scheduler) removeAtLocked(i int) *request {
	r := s.pending[i]
	s.pending = append(s.pending[:i], s.pending[i+1:]...)
	s.noteRemovedLocked(r)
	return r
}

// grantBestLocked picks, coalesces and grants one device access; bgOK
// lets over-budget background through (idle dispatch, full drain). It
// reports whether anything was granted. Caller holds s.mu.
func (s *Scheduler) grantBestLocked(bgOK bool) bool {
	var head *request
	var budget bool
	if s.linear {
		i, b := s.pickLinearLocked(bgOK)
		if i < 0 {
			return false
		}
		head, budget = s.removeAtLocked(i), b
	} else {
		r, b := s.pickIndexedLocked(bgOK)
		if r == nil {
			return false
		}
		s.indexRemoveLocked(r)
		head, budget = r, b
	}
	batch := append(s.batch[:0], head)
	start, end := head.lba, head.lba+int64(head.blocks)
	total := head.blocks
	if s.fifo {
		s.batch = batch
		s.grantLocked(batch, start, total, budget)
		return true
	}
	// Coalesce LBA-adjacent queued requests of the same class and
	// direction into one access. A budget-forced background grant runs
	// ahead of waiting foreground, so its batch is capped well below
	// MaxCoalesce: the throttle must bound the latency it injects, not
	// just the share it consumes. Under tenant fair sharing the batch
	// is also tenant-pure — letting tenant B's blocks ride in tenant
	// A's grant would hand B device time its finish tags never paid
	// for, so adjacency across tenants no longer merges.
	max := s.maxCoalesce
	if budget && max > budgetMaxCoalesce {
		max = budgetMaxCoalesce
	}
	fair := len(s.g.weights()) > 0
	for total < max {
		var p *request
		prepend := false
		if s.linear {
			found := -1
			for j, q := range s.pending {
				if q.op != head.op || q.class != head.class || total+q.blocks > max {
					continue
				}
				if fair && q.tenant != head.tenant {
					continue
				}
				if q.lba == end {
					found = j
					break
				}
				if q.lba+int64(q.blocks) == start {
					found, prepend = j, true
					break
				}
			}
			if found >= 0 {
				p = s.removeAtLocked(found)
			}
		} else {
			p, prepend = s.coalesceCandidateLocked(head, start, end, max-total, fair)
			if p != nil {
				s.indexRemoveLocked(p)
			}
		}
		if p == nil {
			break
		}
		if prepend {
			start = p.lba
			batch = append(batch, nil)
			copy(batch[1:], batch)
			batch[0] = p
		} else {
			end += int64(p.blocks)
			batch = append(batch, p)
		}
		total += p.blocks
		s.stats.Coalesced++
		s.mCoalesced.Inc()
	}
	s.batch = batch
	s.grantLocked(batch, start, total, budget)
	return true
}

// grantDueBackgroundLocked lets one batch of queued background work onto
// the device when no foreground request is waiting. At most one batch
// per dispatch event keeps destage bursts from monopolizing the device
// just because the foreground queue went momentarily empty; the rest of
// the backlog follows on later dispatches, budget grants or the final
// Drain. Caller holds s.mu.
func (s *Scheduler) grantDueBackgroundLocked() {
	if s.nFg > 0 || s.nBg == 0 {
		return
	}
	s.grantBestLocked(true)
}

// grantLocked issues one device access for a coalesced batch and
// completes its requests; budget marks a background grant the write-back
// budget forced ahead of waiting foreground, which debits its credit.
// Completion latencies are flushed to the device in one batched
// observation, and the batch's requests return to the freelist before
// any waiter is woken. Caller holds s.mu.
func (s *Scheduler) grantLocked(batch []*request, start int64, total int, budget bool) {
	if s.grantHook != nil {
		s.grantHook(batch, start, total, budget)
	}
	// Like the coalescing filters, accounting keys off the batch head —
	// after prepend-coalescing that is the lowest-LBA member, not
	// necessarily the picked request.
	head := batch[0]
	arrive := batch[0].arrive
	for _, r := range batch[1:] {
		if r.arrive < arrive {
			arrive = r.arrive
		}
	}
	wm := s.g.weights()
	fair := len(wm) > 0
	// Readahead: extend a sequential-class read past the run so the
	// scan's next request is served from the buffer.
	extra := 0
	if head.w != nil && head.op == device.Read && head.class == s.seqClass && s.ra != nil {
		if _, ok := s.ra[start+int64(total)]; !ok {
			extra = s.readahead
		}
	}
	// Write-back budget accounting: foreground grants deposit their
	// share; budget-forced background grants withdraw what they carried.
	// Idle and drain grants ride free device time and touch no credit.
	if share := s.bgShare; share > 0 {
		// The credit cap is one coalesced batch: a budget grant can put
		// at most MaxCoalesce blocks ahead of waiting foreground, and
		// the floor at zero keeps bursts from borrowing against the
		// future. The ledger records effective movements — the credited
		// part of a capped deposit, the consumed part of a floored
		// withdrawal — so deposits - withdrawals == credit always.
		creditCap := float64(s.maxCoalesce)
		if head.w != nil {
			before := s.bgCredit
			s.bgCredit += share * float64(total)
			if s.bgCredit > creditCap {
				s.bgCredit = creditCap
			}
			if s.bgCredit > before {
				s.stats.BudgetDeposits += s.bgCredit - before
			}
		} else if budget {
			withdraw := float64(total)
			if withdraw > s.bgCredit {
				withdraw = s.bgCredit
			}
			s.bgCredit -= withdraw
			s.stats.BudgetWithdrawals += withdraw
			s.stats.BudgetBlocks += int64(total)
			s.stats.BudgetGrants++
		}
	}
	if head.w == nil {
		s.stats.BackgroundGrants++
		s.stats.BackgroundBlocks += int64(total)
		s.mBgGrants.Inc()
	} else if s.quantum > 0 {
		// Anticipatory quantum bookkeeping: a grant for a new stream
		// opens a fresh quantum; every foreground grant consumes its
		// blocks from the current one.
		if head.sid != s.antStream {
			s.antStream = head.sid
			s.antLeft = s.quantum
		}
		s.antLeft -= total
	}
	// Per-tenant accounting: each request's blocks are charged to its
	// own tenant (a fair-share batch is tenant-pure, but the class-only
	// baseline still merges across tenants), and the grant wait is
	// measured the way the aging bound measures it — against the
	// device's busy horizon at grant time.
	busy := s.dev.BusyUntil()
	for _, r := range batch {
		if r.vstart > s.vclock {
			s.vclock = r.vstart
		}
		if r.w != nil {
			// The band-wait histogram records the same scheduler-imposed
			// delay the aging bound and TenantStats.MaxWait measure.
			wait := busy - r.base
			if wait < 0 {
				wait = 0
			}
			s.bandWaitLocked(int(r.class)).Observe(wait)
		}
		if !trackTenant(r.tenant, fair) {
			continue
		}
		ts := &s.acctLocked(r.tenant).stats
		if r.w != nil {
			ts.Blocks += int64(r.blocks)
			s.tenantBlocksLocked(r.tenant).Add(int64(r.blocks))
			if wait := busy - r.base; wait > ts.MaxWait {
				ts.MaxWait = wait
			}
		} else {
			ts.BackgroundBlocks += int64(r.blocks)
		}
	}
	if extra > 0 && trackTenant(head.tenant, fair) {
		// Readahead extends the grant with real device blocks: bill
		// them to the scan's tenant — both in the granted-block stats
		// and, under fair sharing, in its virtual time, so prefetching
		// cannot buy a tenant device bandwidth its weight does not
		// cover.
		ta := s.acctLocked(head.tenant)
		ta.stats.Blocks += int64(extra)
		if fair {
			ta.lastFinish += float64(extra) / weightOf(wm, head.tenant)
		}
	}
	end := s.dev.Access(arrive, head.op, start, total+extra)
	if extra > 0 {
		base := start + int64(total)
		for j := 0; j < extra; j++ {
			s.insertRALocked(base+int64(j), end)
		}
		s.stats.PrefetchBlocks += int64(extra)
		s.mPrefetchBlks.Add(int64(extra))
	}
	s.stats.Granted++
	s.mGranted.Inc()
	if tr := s.g.obs.Trace(); tr != nil {
		// serviceStart approximates when the device turned to this grant:
		// the later of the batch's arrival and the busy horizon the grant
		// was measured against. Queue-wait and service spans share the
		// submitting stream's track so Perfetto shows the request's life
		// end to end.
		serviceStart := arrive
		if busy > serviceStart {
			serviceStart = busy
		}
		if serviceStart > end {
			serviceStart = end
		}
		dev := s.dev.Spec().Name
		if head.w == nil {
			tr.Span("device", "destage", 0, serviceStart, end-serviceStart, map[string]any{
				"dev": dev, "op": head.op.String(), "lba": start, "blocks": total})
		}
		for _, r := range batch {
			if r.w == nil || !r.w.trace {
				continue
			}
			qw := serviceStart - r.arrive
			if qw < 0 {
				qw = 0
			}
			tr.Span("iosched", "queue.wait", r.w.tid, r.arrive, qw, map[string]any{
				"dev": dev, "class": int(r.class), "lba": r.lba, "blocks": r.blocks})
			tr.Span("device", "service", r.w.tid, serviceStart, end-serviceStart, map[string]any{
				"dev": dev, "op": head.op.String(), "blocks": total})
		}
	}
	for _, r := range batch {
		if r.w == nil {
			continue
		}
		if end > r.w.completion {
			r.w.completion = end
		}
		r.w.remaining--
		if r.w.remaining == 0 {
			// One latency sample per submission, at its last chunk —
			// collected here, flushed to the device in one batch below.
			sample := device.LatencySample{Class: int(r.w.class), Tenant: -1, Lat: r.w.completion - r.w.arrive}
			if trackTenant(r.w.tenant, fair) {
				sample.Tenant = int(r.w.tenant)
			}
			s.latBatch = append(s.latBatch, sample)
			if r.w.barrier {
				s.g.blocked.Add(-1)
			}
			s.doneW = append(s.doneW, r.w)
		}
	}
	for i, r := range batch {
		batch[i] = nil
		s.putRequestLocked(r)
	}
	if len(s.latBatch) > 0 {
		s.dev.ObserveLatencyBatch(s.latBatch)
		s.latBatch = s.latBatch[:0]
	}
	// Wake the completed submitters last: signal is the granter's final
	// touch of each waiter, so the submitter may recycle it on return.
	for i, w := range s.doneW {
		s.doneW[i] = nil
		w.signal()
	}
	s.doneW = s.doneW[:0]
}

// insertRALocked adds one block to the prefetch buffer, evicting the
// oldest entries beyond capacity. Caller holds s.mu.
func (s *Scheduler) insertRALocked(lba int64, ready time.Duration) {
	if _, ok := s.ra[lba]; ok {
		s.ra[lba] = ready
		return
	}
	s.ra[lba] = ready
	s.raOrder = append(s.raOrder, lba)
	for len(s.ra) > s.readaheadCap && len(s.raOrder) > 0 {
		old := s.raOrder[0]
		s.raOrder = s.raOrder[1:]
		delete(s.ra, old)
	}
	// Consumed and invalidated blocks leave stale keys behind in
	// raOrder; compact it once it grows well past the live buffer so it
	// cannot grow without bound under a long consuming scan.
	if len(s.raOrder) > 4*s.readaheadCap {
		live := s.raOrder[:0]
		for _, k := range s.raOrder {
			if _, ok := s.ra[k]; ok {
				live = append(live, k)
			}
		}
		s.raOrder = live
	}
}

// invalidateRALocked drops buffered blocks overwritten by a write, so a
// later read pays for the fresh copy. Caller holds s.mu.
func (s *Scheduler) invalidateRALocked(lba int64, blocks int) {
	if s.ra == nil {
		return
	}
	for i := 0; i < blocks; i++ {
		delete(s.ra, lba+int64(i))
	}
}
