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
	// path can skip g.mu entirely; blocked counts the registered streams
	// that cannot run: waiting on a barrier submission (incremented
	// under g.mu when a registered stream submits, decremented from
	// grant completions under scheduler locks) or parked (Park/Unpark).
	nRegistered atomic.Int64
	blocked     atomic.Int64

	// schedList is the attach-order scheduler list, republished on
	// Attach, for lock-free iteration by the opportunistic drain loop.
	schedList atomic.Pointer[[]*Scheduler]

	// tenantW is the tenant fair-share weight table (see tenantfair.go),
	// the positive weights of Config.TenantWeights. It is built once and
	// never written, so hot paths read it without a lock. Empty means
	// fair sharing is off.
	tenantW map[dss.TenantID]float64

	// obs is the attached observability set (nil-safe throughout).
	obs *obs.Set
}

// NewGroup creates an empty scheduling domain.
func NewGroup(cfg Config) *Group {
	g := &Group{cfg: cfg.withDefaults(), registered: make(map[*simclock.Clock]struct{}), obs: cfg.Obs}
	for id, w := range cfg.TenantWeights {
		if w > 0 {
			if g.tenantW == nil {
				g.tenantW = make(map[dss.TenantID]float64, len(cfg.TenantWeights))
			}
			g.tenantW[id] = w
		}
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
		agingBound:   cfg.AgingBound,
		maxCoalesce:  maxCoalesce,
		readahead:    readahead,
		readaheadCap: 8 * readahead,
		bgShare:      cfg.BackgroundShare,
		startAt:      make(map[int64]*request),
		endAt:        make(map[int64]*request),
		destageAt:    make(map[int64]*request),
	}
	if !cfg.FIFO && seqClass != NoReadahead {
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

// Register enrolls a stream (identified by its session clock) into the
// closed population. While any stream is registered, grants happen only
// when every registered stream is blocked — in Submit, or parked through
// its clock — which makes priority order authoritative regardless of
// goroutine timing. Streams must Unregister (typically via defer) when
// their workload ends.
func (g *Group) Register(clk *simclock.Clock) {
	g.mu.Lock()
	g.registered[clk] = struct{}{}
	g.nRegistered.Store(int64(len(g.registered)))
	g.mu.Unlock()
	clk.SetPopulation(g)
}

// Unregister withdraws a stream from the closed population. The stream
// must have no submission in flight and must not be parked. When the
// last stream leaves, any queued work is drained.
func (g *Group) Unregister(clk *simclock.Clock) {
	clk.SetPopulation(nil)
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

// Park implements simclock.Population: a registered stream is about to
// block outside the scheduler. It counts as blocked like a stream
// waiting in Submit and stays registered — the last runnable stream
// going to sleep is not the last stream leaving, so deferred background
// work stays deferred.
func (g *Group) Park() {
	g.mu.Lock()
	if g.blocked.Add(1) >= int64(len(g.registered)) {
		g.dispatchLocked()
	}
	g.mu.Unlock()
}

// Unpark implements simclock.Population: the parked stream runs again.
func (g *Group) Unpark() { g.blocked.Add(-1) }

// Drain grants every queued request (background flushes included, budget
// or not) in priority order. The storage manager calls it before
// settling device busy horizons at the end of a run.
func (g *Group) Drain() {
	g.drain(true)
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
