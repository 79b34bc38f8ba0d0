// Package lockmgr implements page-granular two-phase locking for the
// concurrent transaction path.
//
// The seed prototype serialized every mutating transaction behind one
// mutex, so the only concurrency the storage system ever saw came from
// read streams. This package supplies the concurrency-control layer that
// lets mutating transactions run simultaneously: each transaction
// acquires shared (read) or exclusive (write) locks on the pages it
// touches through the buffer pool, holds them to commit or abort (strict
// two-phase locking), and releases them all at once.
//
// Deadlocks are resolved by cycle detection on the waits-for graph. The
// lock table is that graph; no edge is recorded anywhere else: a
// blocked transaction's edges are read at search time from the page it
// queues on — every conflicting holder plus every waiter ahead of it in
// the queue. Whenever a request blocks or locks are released the
// manager searches for cycles and wakes one member of each — the
// youngest, i.e. highest transaction ID — with ErrDeadlock. The victim
// is expected to abort (releasing its locks, which unblocks the rest of
// the cycle) and retry. WaitsFor reports the same edges, for a caller
// diagnosing a wait that never ends.
//
// Lock waits block the calling goroutine in real time and, through the
// clock-aware entry points (AcquireClk/ReleaseAllAt), consume simulated
// time too: a granted waiter's session clock advances to the virtual
// time of the release that unblocked it, so blocking behind a long
// transaction costs the blocked transaction virtual latency exactly as
// it would on a real engine, and the stream is parked through its clock
// (simclock.Clock.Park) for the wait. Acquire with ReleaseAll serves
// callers without a session clock: waits free of virtual time.
//
// Read-only snapshot transactions never appear here at all: they carry
// non-positive transaction IDs, which the lock table rejects by panic,
// turning any accidental lock acquisition on the snapshot path into an
// immediate invariant failure instead of silent contention.
package lockmgr

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"hstoragedb/internal/obs"
	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/simclock"
)

// ErrDeadlock is returned by Acquire when granting the request would
// deadlock (the request closes, or is chosen as victim of, a cycle in
// the waits-for graph). The transaction should abort and retry.
var ErrDeadlock = errors.New("lockmgr: deadlock detected")

// Mode is a lock mode.
type Mode int

const (
	// Shared is the read lock: any number of transactions may hold it
	// simultaneously.
	Shared Mode = iota
	// Exclusive is the write lock: it conflicts with every other holder.
	Exclusive
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Exclusive {
		return "X"
	}
	return "S"
}

// PageID identifies one lockable page.
type PageID struct {
	// Obj is the owning storage object.
	Obj pagestore.ObjectID
	// Page is the page number within the object.
	Page int64
}

// String implements fmt.Stringer.
func (p PageID) String() string { return fmt.Sprintf("%d/%d", p.Obj, p.Page) }

// waiter is one blocked Acquire call.
type waiter struct {
	txn     int64
	id      PageID // the lock it queues on
	mode    Mode
	upgrade bool // holds Shared already, wants Exclusive
	done    chan error

	// at is the requester's virtual time when it blocked; grantAt is the
	// virtual time of the release that granted it (never below at).
	// grantAt is written before the done send, which orders it before
	// the waking goroutine's read.
	at      time.Duration
	grantAt time.Duration
}

// holder is one transaction holding a page lock.
type holder struct {
	txn  int64
	mode Mode
}

// lockState is the lock head of one page: its holders in grant order (one
// but under shared reads) and its wait queue. A head whose last holder
// and waiter have left goes onto the manager's freelist, empty, for the
// next page locked.
type lockState struct {
	holders []holder
	queue   []*waiter
}

// holding returns the index of txn's entry in the holders, or -1.
func (ls *lockState) holding(txn int64) int {
	for i, h := range ls.holders {
		if h.txn == txn {
			return i
		}
	}
	return -1
}

// txnLocks is one transaction's row: the pages it holds, in acquisition
// order (an upgrade adds none). ReleaseAllAt empties it onto the
// manager's freelist.
type txnLocks struct {
	pages []PageID
}

// reuse pops an entry of a freelist, or allocates one when it is empty.
func reuse[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return new(T)
	}
	x := (*free)[n-1]
	*free = (*free)[:n-1]
	return x
}

// Stats are cumulative lock manager counters.
type Stats struct {
	// Acquired counts granted lock requests (re-entrant grants included).
	Acquired int64
	// Waits counts requests that blocked before being granted.
	Waits int64
	// Deadlocks counts requests refused with ErrDeadlock.
	Deadlocks int64
	// Upgrades counts Shared-to-Exclusive upgrades granted.
	Upgrades int64
}

// Manager is the lock table. All methods are safe for concurrent use;
// Acquire blocks the calling goroutine until the lock is granted or the
// request is refused with ErrDeadlock.
type Manager struct {
	mu    sync.Mutex
	locks map[PageID]*lockState
	held  map[int64]*txnLocks // txn -> held locks
	blkd  map[int64]*waiter   // txn -> its blocked request
	stats Stats

	// Freelists of emptied lock heads and transaction rows, so a warm
	// table allocates nothing per lock.
	freeLocks []*lockState
	freeRows  []*txnLocks

	// Scratch of the cycle search, reused under mu: the DFS path, the
	// transactions seen (true while on the path) and a stack of the
	// derived edges of every transaction on the path.
	path  []int64
	seen  map[int64]bool
	edges []int64

	// Registry instruments and tracer, nil (inert) until Use attaches a
	// set. The `lockmgr`/`wait` trace event is an instant stamped at the
	// virtual time the request blocked (the wait's virtual cost, if any,
	// shows up on the waiter's session clock via AcquireClk).
	tracer     *obs.Tracer
	mAcquired  *obs.Counter
	mWaits     *obs.Counter
	mDeadlocks *obs.Counter
	mUpgrades  *obs.Counter
}

// New creates an empty lock table.
func New() *Manager {
	return &Manager{
		locks: make(map[PageID]*lockState),
		held:  make(map[int64]*txnLocks),
		blkd:  make(map[int64]*waiter),
		seen:  make(map[int64]bool),
	}
}

// Use attaches an observability set: the manager registers its counters
// (`lockmgr.acquired`, `lockmgr.wait`, `lockmgr.deadlocks`,
// `lockmgr.upgrades`) and records a `lockmgr`/`wait` instant for every
// request that blocks (AcquireClk callers only — plain Acquire has no
// virtual timestamp to stamp it with). A nil set detaches.
func (m *Manager) Use(set *obs.Set) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tracer = set.Trace()
	reg := set.Registry()
	m.mAcquired = reg.Counter("lockmgr.acquired")
	m.mWaits = reg.Counter("lockmgr.wait")
	m.mDeadlocks = reg.Counter("lockmgr.deadlocks")
	m.mUpgrades = reg.Counter("lockmgr.upgrades")
}

// Acquire takes a lock on id in the given mode on behalf of txn,
// blocking until granted. Re-acquiring a held lock (same or weaker mode)
// returns immediately; holding Shared and requesting Exclusive upgrades.
// If the request would deadlock, it returns ErrDeadlock without
// acquiring anything; the transaction keeps its other locks and is
// expected to abort. Sessions use AcquireClk.
func (m *Manager) Acquire(txn int64, id PageID, mode Mode) error {
	w, err := m.acquire(txn, id, mode, -1)
	if err != nil || w == nil {
		return err
	}
	return <-w.done
}

// AcquireClk is Acquire on behalf of a session stream. If the request
// blocks, the stream is parked through its clock for the wait (it
// submits no I/O, and a closed scheduler population must know), and
// once granted clk advances to the virtual time of the release that
// granted it, so contention costs the blocked transaction simulated
// latency. Releases must then go through ReleaseAllAt to carry the
// releaser's time.
func (m *Manager) AcquireClk(txn int64, id PageID, mode Mode, clk *simclock.Clock) error {
	w, err := m.acquire(txn, id, mode, clk.Now())
	if err != nil || w == nil {
		return err
	}
	clk.Park()
	err = <-w.done
	clk.Unpark()
	if err != nil {
		return err
	}
	clk.AdvanceTo(w.grantAt)
	return nil
}

// acquire is the common lock-request core. It returns the waiter the
// request blocked on — queued, with m.mu released; the caller must then
// receive on its done channel (grantAt is stamped before the send) — or
// nil for an immediate grant, or the refusal error.
func (m *Manager) acquire(txn int64, id PageID, mode Mode, at time.Duration) (*waiter, error) {
	if txn <= 0 {
		// Mutating transactions carry WAL-allocated positive IDs;
		// non-positive IDs are reserved for read-only snapshot
		// transactions, which must resolve reads against the version
		// store without ever touching the lock table.
		panic(fmt.Sprintf("lockmgr: acquire by reserved read-only txn id %d (snapshot reads must bypass the lock manager)", txn))
	}
	m.mu.Lock()
	ls := m.locks[id]
	if ls == nil {
		ls = reuse(&m.freeLocks)
		m.locks[id] = ls
	}

	if i := ls.holding(txn); i >= 0 {
		if ls.holders[i].mode >= mode {
			m.stats.Acquired++
			m.mAcquired.Inc()
			m.mu.Unlock()
			return nil, nil
		}
		// Upgrade: grant immediately when txn is the sole holder.
		if len(ls.holders) == 1 {
			ls.holders[i].mode = Exclusive
			m.stats.Acquired++
			m.stats.Upgrades++
			m.mAcquired.Inc()
			m.mUpgrades.Inc()
			m.mu.Unlock()
			return nil, nil
		}
		// Queue the upgrade at the front: it already holds Shared, so
		// nothing behind it can be granted first anyway.
		w := &waiter{txn: txn, id: id, mode: Exclusive, upgrade: true, done: make(chan error, 1), at: at}
		ls.queue = slices.Insert(ls.queue, 0, w)
		m.armWaitLocked(w, at)
		return w, nil
	}

	if m.grantableLocked(ls, txn, mode) {
		ls.holders = append(ls.holders, holder{txn, mode})
		m.noteHeld(txn, id)
		m.stats.Acquired++
		m.mAcquired.Inc()
		m.mu.Unlock()
		return nil, nil
	}

	w := &waiter{txn: txn, id: id, mode: mode, done: make(chan error, 1), at: at}
	ls.queue = append(ls.queue, w)
	m.armWaitLocked(w, at)
	return w, nil
}

// armWaitLocked marks the queued waiter's transaction blocked and
// resolves any cycle its wait closes. Called with m.mu held; returns
// with it released. The caller then parks by receiving on w.done.
func (m *Manager) armWaitLocked(w *waiter, at time.Duration) {
	m.blkd[w.txn] = w
	m.stats.Waits++
	m.mWaits.Inc()
	if m.tracer != nil && at >= 0 {
		m.tracer.Instant("lockmgr", "wait", w.txn, at, map[string]any{
			"page": w.id.String(), "mode": w.mode.String()})
	}
	m.resolveDeadlocksLocked(w.id, at)
	m.mu.Unlock()
}

// holdersAllow reports whether the current holder set is compatible
// with a new grant in mode: Exclusive needs no holders at all, Shared
// tolerates anything but an Exclusive holder.
func holdersAllow(ls *lockState, mode Mode) bool {
	if mode == Exclusive {
		return len(ls.holders) == 0
	}
	for _, h := range ls.holders {
		if h.mode == Exclusive {
			return false
		}
	}
	return true
}

// grantableLocked reports whether txn may take the lock in mode right
// now: compatible with every holder, and not jumping a non-empty queue
// (FIFO fairness keeps writers from starving). Caller holds m.mu.
func (m *Manager) grantableLocked(ls *lockState, txn int64, mode Mode) bool {
	return len(ls.queue) == 0 && holdersAllow(ls, mode)
}

// noteHeld appends a newly granted page to txn's row. Caller holds m.mu.
func (m *Manager) noteHeld(txn int64, id PageID) {
	row := m.held[txn]
	if row == nil {
		row = reuse(&m.freeRows)
		m.held[txn] = row
	}
	row.pages = append(row.pages, id)
}

// appendEdgesLocked appends the waits-for edges of txn to dst: none
// unless txn is blocked; otherwise every holder of the page it queues on
// whose mode conflicts with its request (its own Shared hold, when it
// waits to upgrade, is not a wait) and every waiter ahead of it in that
// page's queue. A transaction may appear twice (an upgrader holds and
// queues). Caller holds m.mu.
func (m *Manager) appendEdgesLocked(dst []int64, txn int64) []int64 {
	w := m.blkd[txn]
	if w == nil {
		return dst
	}
	ls := m.locks[w.id]
	for _, h := range ls.holders {
		if h.txn != txn && (w.mode == Exclusive || h.mode == Exclusive) {
			dst = append(dst, h.txn)
		}
	}
	for _, ahead := range ls.queue {
		if ahead == w {
			break
		}
		if ahead.txn != txn {
			dst = append(dst, ahead.txn)
		}
	}
	return dst
}

// WaitsFor returns the waits-for graph: for every blocked transaction,
// the transactions it waits behind, ascending. These are the edges the
// deadlock detector searches, so a wait that never ends shows here as a
// chain whose last member is not blocked in this manager.
func (m *Manager) WaitsFor() map[int64][]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int64][]int64, len(m.blkd))
	for txn := range m.blkd {
		edges := m.appendEdgesLocked(nil, txn)
		slices.Sort(edges)
		out[txn] = slices.Compact(edges)
	}
	return out
}

// resolveDeadlocksLocked finds cycles reachable from the waiters of one
// lock and wakes the youngest member of each with ErrDeadlock. at is the
// virtual time of the event that changed the graph (negative when
// unknown), carried to any grants the victim's removal enables. Caller
// holds m.mu.
func (m *Manager) resolveDeadlocksLocked(id PageID, at time.Duration) {
	for {
		ls := m.locks[id]
		if ls == nil {
			return
		}
		var victim int64 = -1
		for _, w := range ls.queue {
			cycle := m.findCycleLocked(w.txn)
			if cycle == nil {
				continue
			}
			// Abort the youngest blocked transaction in the cycle.
			for _, t := range cycle {
				if _, isBlocked := m.blkd[t]; isBlocked && t > victim {
					victim = t
				}
			}
			break
		}
		if victim < 0 {
			return
		}
		m.refuseLocked(victim, at)
		// Removing the victim may expose another cycle (or none); loop.
	}
}

// findCycleLocked returns the transactions of a waits-for cycle through
// start, or nil. The slice is scratch, valid until the next search.
// Caller holds m.mu.
func (m *Manager) findCycleLocked(start int64) []int64 {
	clear(m.seen)
	m.path = m.path[:0]
	m.edges = m.edges[:0]
	return m.dfsLocked(start)
}

// dfsLocked continues the cycle search at t: a transaction met again
// while on the path closes a cycle, the path's suffix from it. Caller
// holds m.mu.
func (m *Manager) dfsLocked(t int64) []int64 {
	if onPath, seen := m.seen[t]; seen {
		if !onPath {
			return nil
		}
		for i, p := range m.path {
			if p == t {
				return m.path[i:]
			}
		}
	}
	m.seen[t] = true
	m.path = append(m.path, t)
	lo := len(m.edges)
	m.edges = m.appendEdgesLocked(m.edges, t)
	for i, hi := lo, len(m.edges); i < hi; i++ {
		if c := m.dfsLocked(m.edges[i]); c != nil {
			return c
		}
	}
	m.edges = m.edges[:lo]
	m.path = m.path[:len(m.path)-1]
	m.seen[t] = false
	return nil
}

// refuseLocked wakes the blocked transaction txn with ErrDeadlock and
// removes it from its queue, carrying at to any
// grants its removal enables. Caller holds m.mu.
func (m *Manager) refuseLocked(txn int64, at time.Duration) {
	w := m.blkd[txn]
	if w == nil {
		return
	}
	delete(m.blkd, txn)
	if ls := m.locks[w.id]; ls != nil {
		if i := slices.Index(ls.queue, w); i >= 0 {
			ls.queue = slices.Delete(ls.queue, i, i+1)
		}
		m.grantQueueLocked(w.id, ls, at)
	}
	m.stats.Deadlocks++
	m.mDeadlocks.Inc()
	w.done <- ErrDeadlock
}

// grantQueueLocked grants the longest compatible prefix of the wait
// queue. at is the virtual time of the release enabling the grants
// (negative when unknown): each granted waiter is stamped with it, never
// below its own request time, before it is woken. A head left with no
// holder and no waiter goes onto the freelist. Caller holds m.mu.
func (m *Manager) grantQueueLocked(id PageID, ls *lockState, at time.Duration) {
	granted := 0
	for _, w := range ls.queue {
		if w.upgrade {
			if len(ls.holders) != 1 {
				break // other Shared holders still present
			}
			ls.holders[0].mode = Exclusive // the sole holder is w.txn
			m.stats.Upgrades++
			m.mUpgrades.Inc()
		} else {
			if !holdersAllow(ls, w.mode) {
				break
			}
			ls.holders = append(ls.holders, holder{w.txn, w.mode})
			m.noteHeld(w.txn, id)
		}
		granted++
		delete(m.blkd, w.txn)
		m.stats.Acquired++
		m.mAcquired.Inc()
		w.grantAt = w.at
		if at > w.grantAt {
			w.grantAt = at
		}
		w.done <- nil
	}
	// Delete clears the vacated slots, so no granted waiter stays reachable.
	ls.queue = slices.Delete(ls.queue, 0, granted)
	if len(ls.holders) == 0 && len(ls.queue) == 0 {
		delete(m.locks, id)
		m.freeLocks = append(m.freeLocks, ls)
	}
}

// ReleaseAll drops every lock held by txn (end of transaction) and
// grants whatever its departure unblocks. Grants enabled this way carry
// no virtual release time; use ReleaseAllAt to charge waiters.
func (m *Manager) ReleaseAll(txn int64) {
	m.ReleaseAllAt(txn, -1)
}

// ReleaseAllAt is ReleaseAll with the releaser's virtual time attached:
// every waiter granted by this release observes at as its grant time, so
// an AcquireClk blocked behind txn pays the wait in simulated latency.
// Pages are released in the order txn acquired them.
func (m *Manager) ReleaseAllAt(txn int64, at time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	row := m.held[txn]
	if row == nil {
		return
	}
	delete(m.held, txn)
	for _, id := range row.pages {
		ls := m.locks[id]
		if ls == nil {
			continue
		}
		if i := ls.holding(txn); i >= 0 {
			ls.holders = slices.Delete(ls.holders, i, i+1)
		}
		m.grantQueueLocked(id, ls, at)
		m.resolveDeadlocksLocked(id, at)
	}
	row.pages = row.pages[:0]
	m.freeRows = append(m.freeRows, row)
}

// Held reports how many locks txn currently holds.
func (m *Manager) Held(txn int64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if row := m.held[txn]; row != nil {
		return len(row.pages)
	}
	return 0
}

// Waiting reports how many lock requests are currently blocked.
func (m *Manager) Waiting() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.blkd)
}

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}
