package iosched

import (
	"sync"
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
	"hstoragedb/internal/simclock"
)

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
// one background access. Requests live in the scheduler's request slab
// (slab.go) and are reused through its free list until the queue drains;
// every index link below is cleared when the request leaves the queue,
// before it can be reused.
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

	// vstart and vfinish are the request's fair-queueing tags (see
	// tenantfair.go). Both stay 0 when fair sharing is off and for
	// background work, which keeps the tag comparison inert.
	vstart, vfinish float64

	// Index state: position in the aging heap (-1 when not a member),
	// owning band tree, and the boundary-list links at the request's
	// start and end LBAs, and for a single-block background write the
	// destage-list link at its LBA (index.go).
	ageIdx       int
	band         *band
	sNext, sPrev *request
	eNext, ePrev *request
	dNext        *request

	// next chains the scheduler's request free list.
	next *request
}

// newRequestLocked takes a request from the free list, or else the
// request slab's next unused slot: a backlog deeper than any before it
// allocates one chunk per reqChunk requests. Caller holds s.mu.
func (s *Scheduler) newRequestLocked() *request {
	r := s.freeReq
	if r == nil {
		r = s.reqs.alloc(reqChunk)
	} else {
		s.freeReq = r.next
		r.next = nil
	}
	r.ageIdx = -1
	return r
}

// putRequestLocked returns a granted or absorbed request to the free
// list, where it stays until reused or until the queue drains and
// rewindLocked drops the list with the chunks. Caller holds s.mu and
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
	fair := len(g.tenantW) > 0
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
			sample := device.LatencySample{Class: int(class), Tenant: -1, Lat: floor - at}
			if trackTenant(tenant, fair) {
				sample.Tenant = int(tenant)
			}
			s.dev.ObserveLatency(sample)
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
		if stream.Population() == g {
			w.barrier = true
			s.mu.Lock()
			s.enqueueLocked(w, at, op, lba, blocks, class, tenant)
			s.mu.Unlock()
			if g.blocked.Add(1) >= g.nRegistered.Load() {
				g.dispatchLocked()
			}
			g.mu.Unlock()
			return finishWait(w, floor)
		}
		g.mu.Unlock()
		s.mu.Lock()
	}
	s.enqueueLocked(w, at, op, lba, blocks, class, tenant)
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
		// positioning penalty. The oldest pending copy goes, found at the
		// head of the LBA's destage list (index.go).
		if blocks == 1 {
			if r := s.destageAt[lba]; r != nil {
				s.indexRemoveLocked(r)
				s.putRequestLocked(r)
				s.stats.Absorbed++
			}
		}
	}
	s.enqueueLocked(nil, at, op, lba, blocks, class, tenant)
	s.mu.Unlock()
	if g.nRegistered.Load() == 0 {
		g.drain(false)
	}
}

// enqueueLocked splits a submission into maxCoalesce-sized chunks (so a
// long scan run cannot monopolize the device between grants) and queues
// them. Under fair sharing, each foreground chunk is stamped with its
// tenant's start/finish tags: consecutive chunks chain through the
// tenant's lastFinish, so one big submission pays virtual time
// proportional to all of its blocks. FIFO mode queues the submission
// whole, as the legacy elevator would. Caller holds s.mu.
func (s *Scheduler) enqueueLocked(w *waiter, at time.Duration, op device.Op, lba int64, blocks int, class dss.Class, tenant dss.TenantID) {
	rank := classRank(class)
	if w == nil {
		rank += backgroundBand
	}
	var ta *tenantAcct
	var weight float64
	if w != nil {
		if wm := s.g.tenantW; len(wm) > 0 {
			ta = s.acctLocked(tenant)
			weight = weightOf(wm, tenant)
		}
	}
	max := s.maxCoalesce
	if s.fifo {
		max = blocks
	}
	if w == nil && at > s.bgArriveMax {
		s.bgArriveMax = at
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
		r.rank, r.arrive, r.base, r.seq, r.w = rank, at, base, s.seq, w
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
		}
		s.indexInsertLocked(r)
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
