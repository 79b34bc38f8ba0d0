// Package txn adds Begin/Commit/Abort transaction sessions — the OLTP
// extension of Section 8 — on top of the engine and the write-ahead log.
//
// Mutating transactions run concurrently under page-granular strict
// two-phase locking (package lockmgr): each transaction runs on its own
// session stream, acquires shared/exclusive page locks through buffer
// pool hooks bound to that stream, and holds them until its outcome is
// decided. A lock-manager deadlock surfaces from any heap/btree
// operation as lockmgr.ErrDeadlock; the caller aborts and retries. Lock
// waits are charged to the waiter's session clock (lockmgr.AcquireClk),
// so blocking behind a long transaction costs simulated latency.
//
// A session blocks outside the device scheduler in three places: on a
// page lock, as a follower of a commit batch, and on the log while
// another session's force holds it. Each wait parks the stream through
// its session clock (simclock.Clock.Park; the log's simclock.Mutex),
// so a closed scheduler population keeps dispatching; the manager knows
// no scheduler. A new wait must do the same.
//
// Read-only transactions (BeginSnapshot) run under snapshot isolation
// without touching the lock manager at all: each binds its session
// stream to the WAL's commit-LSN watermark and resolves every page read
// against the buffer pool's version store — per-page chains of
// superseded committed images that mutating transactions push at first
// touch and seal at commit (see bufferpool's mvcc.go). Writers never wait for readers, readers never
// wait at all, and a snapshot observes exactly the transactions whose
// commit records were durable when it began.
//
// The design matches the WAL's redo-only recovery contract. A Txn keeps
// no page state of its own: the buffer pool records each page's first
// touch as its pending version, and the Txn holds only the hooks that
// name it (bufferpool.TxnHooks).
//
//   - While a mutating transaction runs, the pool keeps, for every page
//     it installs, the first-touch pre-image as the pending version and
//     pins the frame on the transaction's behalf: the no-steal policy
//     that guarantees uncommitted pages never reach the storage system.
//   - Commit hands the log both images of every touched page — the
//     pending version and the frame; the log records the bytes that
//     changed — plus a commit record, releases the locks, then joins a
//     commit batch: concurrent committers share a single log force
//     (their commit records amortize one flush), and a commit covered by
//     the group window pays only the wait. Only after the force are the
//     frames unpinned for lazy write-back.
//   - Abort restores the pre-images in reverse order; nothing needs
//     undoing on disk because nothing uncommitted ever got there.
//   - Checkpoints take a drain barrier: new transactions are held at
//     Begin while every in-flight transaction runs to completion
//     (including its post-flush unpin), so a checkpoint can never slide
//     between a commit record and its flush and strand pinned frames
//     above the checkpoint LSN.
//
// The package also provides the crash-injection harness: CrashAtCommit
// arms a simulated kill at the n-th commit — the victim's page records
// reach the log but its commit record does not — and Crash drops the
// instance's volatile state so a fresh instance can exercise recovery.
package txn

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/bufferpool"
	"hstoragedb/internal/engine/lockmgr"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/engine/wal"
	"hstoragedb/internal/obs"
	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/simclock"
)

// ErrCrashed is returned by operations on a manager whose instance has
// been killed by the crash-injection harness.
var ErrCrashed = errors.New("txn: simulated crash")

// ErrDeadlock re-exports the lock manager's deadlock error: transactions
// refused with it should abort and retry.
var ErrDeadlock = lockmgr.ErrDeadlock

// GroupCommitStats summarize the commit-batching coordinator.
type GroupCommitStats struct {
	// Batches counts log forces performed by batch leaders; Txns counts
	// the commits that rode them. Txns/Batches is the mean number of
	// commit records amortizing one force.
	Batches int64
	Txns    int64
}

// MeanBatch returns the mean commits per force (0 with no batches).
func (g GroupCommitStats) MeanBatch() float64 {
	if g.Batches == 0 {
		return 0
	}
	return float64(g.Txns) / float64(g.Batches)
}

// gcBatch is one in-formation commit batch: committers that arrive while
// it is open share its leader's flush.
type gcBatch struct {
	maxLSN wal.LSN
	n      int
	err    error
	doneAt simclock.Duration
	done   chan struct{}
}

// Manager coordinates transactions over one engine instance and one log.
// All methods are safe for concurrent use.
type Manager struct {
	inst *engine.Instance
	log  *wal.Manager
	lm   *lockmgr.Manager

	// gate is the drain barrier: every transaction holds the read side
	// from Begin until its outcome is fully applied; Checkpoint takes the
	// write side, so it runs with no transaction in flight.
	gate sync.RWMutex

	// seqMu serializes the commit decision point: the crash-harness
	// check and the commit-record append happen atomically, so the n-th
	// commit is well-defined under concurrency and no commit record is
	// appended after the simulated kill.
	seqMu         sync.Mutex
	crashAtCommit int64 // 1-based commit ordinal to kill at; 0 = disarmed

	commits atomic.Int64
	aborts  atomic.Int64
	dead    atomic.Bool

	gcMu      sync.Mutex
	gcCur     *gcBatch
	gcBatches atomic.Int64
	gcTxns    atomic.Int64

	tracer     *obs.Tracer
	mCommits   *obs.Counter
	mAborts    *obs.Counter
	mBatchHist *obs.HistVar
}

// NewManager builds a transaction manager over an instance and its log,
// attaching the instance's observability set (if any) to itself, the
// lock manager, and the WAL.
func NewManager(inst *engine.Instance, log *wal.Manager) *Manager {
	m := &Manager{inst: inst, log: log, lm: lockmgr.New()}
	m.Use(inst.Obs)
	return m
}

// Use attaches an observability set: txn.commits and txn.aborts
// counters, the wal.groupcommit.batch histogram (commits amortized per
// log force), and a txn/groupcommit span recorded by each batch leader.
// The set is forwarded to the lock manager and the WAL, so wiring the
// transaction layer instruments the whole engine-side stack. NewManager
// calls it with the instance's set; a nil set detaches. Not safe to
// call concurrently with running transactions.
func (m *Manager) Use(set *obs.Set) {
	m.lm.Use(set)
	m.log.Use(set)
	reg := set.Registry()
	m.tracer = set.Trace()
	m.mCommits = reg.Counter("txn.commits")
	m.mAborts = reg.Counter("txn.aborts")
	m.mBatchHist = reg.HistogramWith(obs.CountBounds(), "count", "wal.groupcommit.batch")
}

// WAL exposes the log manager.
func (m *Manager) WAL() *wal.Manager { return m.log }

// Commits reports how many transactions have committed. It never blocks
// behind in-flight transactions.
func (m *Manager) Commits() int64 { return m.commits.Load() }

// Aborts reports how many transactions have rolled back. It never blocks
// behind in-flight transactions.
func (m *Manager) Aborts() int64 { return m.aborts.Load() }

// LockStats returns a snapshot of the lock manager's counters.
func (m *Manager) LockStats() lockmgr.Stats { return m.lm.Stats() }

// GroupCommit returns a snapshot of the commit-batching counters.
func (m *Manager) GroupCommit() GroupCommitStats {
	return GroupCommitStats{Batches: m.gcBatches.Load(), Txns: m.gcTxns.Load()}
}

// CrashAtCommit arms the crash-injection harness: the n-th commit (counted
// from the next one) writes its page records to the log but dies before
// its commit record, and every later operation fails with ErrCrashed.
// n <= 0 disarms.
func (m *Manager) CrashAtCommit(n int64) {
	m.seqMu.Lock()
	if n <= 0 {
		m.crashAtCommit = 0
	} else {
		m.crashAtCommit = m.commits.Load() + n
	}
	m.seqMu.Unlock()
}

// Crash kills the instance: volatile state (the buffer pool, including
// every pinned uncommitted page) is dropped without write-back and the
// manager refuses further work. The durable page store survives for
// recovery by a fresh instance.
func (m *Manager) Crash() {
	m.dead.Store(true)
	m.inst.Pool.UnbindAll()
	m.inst.Crash()
}

// Dead reports whether the manager has been killed. It never blocks
// behind in-flight transactions.
func (m *Manager) Dead() bool { return m.dead.Load() }

// Checkpoint flushes all committed work and truncates the log. It takes
// the drain barrier: in-flight transactions run to completion first, and
// new ones wait at Begin until the checkpoint finishes.
func (m *Manager) Checkpoint(sess *engine.Session) error {
	m.gate.Lock()
	defer m.gate.Unlock()
	if m.dead.Load() {
		return ErrCrashed
	}
	if err := m.log.Checkpoint(&sess.Clk, m.inst.Pool); err != nil {
		return err
	}
	// The checkpoint advanced the commit watermark; sweep the version
	// store (chains a still-active snapshot needs are kept).
	m.inst.Pool.PruneVersions(int64(m.log.CommitWatermark()))
	return nil
}

// Txn is one transaction. A mutating transaction is bound to its
// session's stream and holds its page locks from first touch until
// Commit or Abort (strict two-phase locking). A Txn is driven by one
// goroutine; distinct transactions run concurrently.
type Txn struct {
	m        *Manager
	sess     *engine.Session
	id       int64
	readOnly bool
	finished bool
	// hooks bind the transaction to its stream; the pool keeps its
	// first-touch list there.
	hooks *bufferpool.TxnHooks

	// 2PC participant state: set by Prepare, cleared by CommitPrepared
	// or Abort. While prepared, the transaction holds its locks and pins
	// and its outcome belongs to the coordinator.
	prepared bool
	gtid     int64

	// Snapshot state (readOnly transactions): the snapshot LSN the
	// session stream is bound to and the virtual begin time (for the
	// snapshot-age span).
	snapshot  bool
	snapLSN   wal.LSN
	snapStart simclock.Duration
}

// Begin starts a mutating transaction on the session. The session stream
// must not already have a transaction in flight; concurrent transactions
// run on distinct sessions.
func (m *Manager) Begin(sess *engine.Session) (*Txn, error) {
	if m.dead.Load() {
		return nil, ErrCrashed
	}
	m.gate.RLock()
	if m.dead.Load() {
		m.gate.RUnlock()
		return nil, ErrCrashed
	}
	t := &Txn{m: m, sess: sess, id: m.log.NextTxnID()}
	if _, err := m.log.Append(&sess.Clk, wal.Record{Txn: t.id, Kind: wal.KindBegin}); err != nil {
		m.gate.RUnlock()
		return nil, err
	}
	t.hooks = &bufferpool.TxnHooks{ID: t.id, Acquire: t.acquire}
	m.inst.Pool.BindTxn(&sess.Clk, t.hooks)
	return t, nil
}

// ID returns the transaction identifier (0 for read-only transactions).
func (t *Txn) ID() int64 { return t.id }

// acquire is the buffer pool lock hook: it takes the page lock (shared
// for reads, exclusive for writes) before the access to a table or index
// frame. A deadlock propagates out of the pool call as
// lockmgr.ErrDeadlock.
func (t *Txn) acquire(tag policy.Tag, page int64, write bool) error {
	mode := lockmgr.Shared
	if write {
		mode = lockmgr.Exclusive
	}
	return t.m.lm.AcquireClk(t.id, lockmgr.PageID{Obj: tag.Object, Page: page}, mode, &t.sess.Clk)
}

// LockAppend takes the object's append lock: an exclusive lock on a
// synthetic page (-1) that serializes heap appenders. An appender
// decides its start page from the file's logical size *before* its first
// Put can take a real page lock, so two concurrent appenders would
// otherwise claim the same fresh page and the later commit would
// overwrite the earlier one's rows. Callers must take the append lock
// before creating an appender on a shared table; it is held, like every
// lock, until the transaction finishes. Returns lockmgr.ErrDeadlock like
// any other acquisition.
func (t *Txn) LockAppend(obj pagestore.ObjectID) error {
	if t.readOnly {
		return nil
	}
	return t.m.lm.AcquireClk(t.id, lockmgr.PageID{Obj: obj, Page: -1}, lockmgr.Exclusive, &t.sess.Clk)
}

// LockScan takes the object's append lock in shared mode: the
// phantom-safe scan lock of a serializable 2PL scan. Readers share it
// freely, but appenders (LockAppend) are excluded until the scanning
// transaction finishes — and a scan blocks behind any in-flight
// appender. Snapshot transactions never need it; the htap experiment's
// locked arm uses it to measure exactly what that protection costs.
// Returns lockmgr.ErrDeadlock like any other acquisition.
func (t *Txn) LockScan(obj pagestore.ObjectID) error {
	if t.readOnly {
		return nil
	}
	return t.m.lm.AcquireClk(t.id, lockmgr.PageID{Obj: obj, Page: -1}, lockmgr.Shared, &t.sess.Clk)
}

// Commit, Prepare and CommitPrepared compose the same steps — walPhase
// (logImages, decide; unwind if either fails), then releaseAndForce —
// and differ in data only: the record kind, the GTID, whether the page
// images are still to be logged, what is still held afterwards.

// Commit appends the transaction's page records and a commit record,
// releases the page locks, then joins the group-commit batch and returns
// once the commit is durable — usually via a flush a batch leader
// performed for several committers at once. If the crash harness is
// armed for this commit, the page records reach the log but the commit
// record does not, and ErrCrashed is returned.
func (t *Txn) Commit() error {
	if t.finished {
		return fmt.Errorf("txn %d: already finished", t.id)
	}
	if t.prepared {
		return fmt.Errorf("txn %d: prepared; its outcome belongs to the coordinator", t.id)
	}
	t.finished = true
	if t.readOnly {
		t.endSnapshot()
		return nil
	}
	t.m.inst.Pool.UnbindTxn(&t.sess.Clk)
	lsn, err := t.walPhase(wal.KindCommit, 0, true)
	if err != nil {
		return err
	}
	return t.releaseAndForce(lsn)
}

// Prepare runs the participant's first phase of two-phase commit: the
// transaction's page records and a prepare record carrying the global
// transaction ID reach the log and are forced durable, riding the same
// group-commit batch as ordinary commit records. The page locks, the
// frame pins, and the drain-barrier hold all stay — the transaction is
// in doubt until the coordinator's decision arrives via CommitPrepared
// or Abort. After a successful Prepare the participant has promised it
// can commit: a crash no longer loses the transaction; recovery holds
// it back for resolution against the coordinator's decision log.
func (t *Txn) Prepare(gtid int64) error {
	if t.finished {
		return fmt.Errorf("txn %d: already finished", t.id)
	}
	if t.prepared {
		return fmt.Errorf("txn %d: already prepared", t.id)
	}
	if t.readOnly {
		return fmt.Errorf("txn %d: read-only transactions cannot prepare", t.id)
	}
	t.m.inst.Pool.UnbindTxn(&t.sess.Clk)
	lsn, err := t.walPhase(wal.KindPrepare, gtid, true)
	if err != nil {
		return err
	}
	if err := t.m.groupFlush(&t.sess.Clk, lsn); err != nil {
		// Almost always a crash mid-force: the prepare never became
		// durable on this path, so presumed abort applies. The locks are
		// released so concurrent work fails promptly; pins die with the
		// pool.
		t.unwind(false)
		return err
	}
	t.prepared = true
	t.gtid = gtid
	return nil
}

// Prepared reports whether the transaction is sitting in the prepared
// state, awaiting the coordinator's decision.
func (t *Txn) Prepared() bool { return t.prepared }

// CommitPrepared applies the coordinator's commit decision to a
// prepared transaction: the local commit record (stamped with the GTID)
// is appended and forced, the page versions seal, and the locks and
// pins finally release. The caller must hold a durable coordinator
// decision for the GTID it passed to Prepare. The crash harness's
// CrashAtCommit counts these like ordinary commits, which is exactly
// the "participant dies holding prepared locks" injection point: the
// prepare is durable, so recovery holds the transaction in doubt and
// the decision log resolves it to commit.
func (t *Txn) CommitPrepared() error {
	if t.finished {
		return fmt.Errorf("txn %d: already finished", t.id)
	}
	if !t.prepared {
		return fmt.Errorf("txn %d: not prepared", t.id)
	}
	t.finished = true
	t.prepared = false
	lsn, err := t.walPhase(wal.KindCommit, t.gtid, false)
	if err != nil {
		return err
	}
	return t.releaseAndForce(lsn)
}

// walPhase is the commit path's one critical section of the log: one
// record per page the transaction wrote (with images; CommitPrepared's
// were logged by Prepare), then the decision record of the given kind
// stamped with gtid, no other stream's record in between. The phase is
// the log's own lock: a contended entry parks the stream. A failure
// means the transaction cannot become durable: once the log is left it
// is unwound, its frames rolled back unless the instance is dead (then
// the pins die with the pool).
func (t *Txn) walPhase(kind wal.Kind, gtid int64, images bool) (lsn wal.LSN, err error) {
	m, clk := t.m, &t.sess.Clk
	m.log.Lock(clk)
	var last wal.LSN
	if images {
		last, err = t.logImages()
	}
	if err == nil {
		lsn, err = t.decide(kind, gtid, images, last)
	}
	m.log.Unlock()
	if err != nil {
		t.unwind(!m.dead.Load())
		return 0, err
	}
	return lsn, nil
}

// logImages appends one record per touched page, in first-touch order:
// its final image (the frame) against its first-touch image (the pending
// version), which the log encodes as the bytes that changed.
// Intermediate images need no record, because the page locks are held
// until after the decision record, so a page's versions across
// transactions follow the log order. last is the LSN of the last record.
func (t *Txn) logImages() (last wal.LSN, err error) {
	err = t.m.inst.Pool.Touched(t.hooks, func(obj pagestore.ObjectID, page int64, pre, post []byte) (err error) {
		last, err = t.m.log.Append(&t.sess.Clk, wal.Record{
			Txn: t.id, Kind: wal.KindPage, Obj: obj, Page: page, Image: post, Pre: pre,
		})
		return err
	})
	return last, err
}

// decide is the commit decision point, inside walPhase: under seqMu the
// crash-harness check and the append of the decision record are atomic,
// so the n-th commit is well-defined and nothing commits after the
// simulated kill. With flushImages the harness first forces the page
// images this phase logged (through last): the log then knows the
// transaction but recovery must treat it as a loser.
func (t *Txn) decide(kind wal.Kind, gtid int64, flushImages bool, last wal.LSN) (wal.LSN, error) {
	m, clk := t.m, &t.sess.Clk
	commit := kind == wal.KindCommit
	m.seqMu.Lock()
	if m.dead.Load() {
		// The instance died (crash harness) while this transaction was
		// running: its decision record must not be appended.
		m.seqMu.Unlock()
		return 0, ErrCrashed
	}
	if commit && m.crashAtCommit != 0 && m.commits.Load()+1 >= m.crashAtCommit {
		m.dead.Store(true)
		m.seqMu.Unlock()
		if flushImages {
			if err := m.log.Flush(clk, last); err != nil {
				return 0, err
			}
		}
		return 0, ErrCrashed
	}
	lsn, err := m.log.Append(clk, wal.Record{Txn: t.id, Kind: kind, Page: gtid})
	if err == nil && commit {
		m.commits.Add(1)
		m.mCommits.Inc()
		// Seal this transaction's pending page versions with its commit LSN
		// while the commit order is still pinned by seqMu: chains then seal
		// in commit-LSN order, so a snapshot taken at any watermark observes
		// a prefix-consistent version history.
		m.inst.Pool.CommitVersions(t.hooks, int64(lsn), int64(m.log.CommitWatermark()))
	}
	m.seqMu.Unlock()
	return lsn, err
}

// releaseAndForce finishes a commit whose record is appended at lsn.
// Strict 2PL ends here: the version order of every touched page is
// sealed in the log, so the locks can be released while the force is
// still pending — a transaction that reads the freshly committed data
// and commits flushes the log through a later LSN, which covers this
// one. The force is batched: concurrent committers share one flush.
// Frames stay pinned until the records are durable; they are released
// even on a flush error (the commit record is appended, so rolling the
// frames back could contradict a log that did reach the device), which
// keeps the pool from leaking pinned frames.
func (t *Txn) releaseAndForce(lsn wal.LSN) error {
	m, clk := t.m, &t.sess.Clk
	m.lm.ReleaseAllAt(t.id, clk.Now())
	err := m.groupFlush(clk, lsn)
	if err == nil {
		// The commit record is durable and the versions are sealed: new
		// snapshots may begin at (or past) this commit.
		m.log.PublishCommit(lsn)
	}
	m.inst.Pool.Release(t.hooks)
	m.gate.RUnlock()
	return err
}

// unwind is every failure exit of the commit path once the WAL phase is
// left: the transaction is over, its locks are released so concurrent
// work proceeds (or fails promptly rather than hangs), and the
// drain-barrier hold ends. restore also rolls the frames back to their
// pre-images, releasing the pins, for a transaction whose log records
// are known not to be complete; without it (the instance is dying, or a
// force failed) the pins die with the pool.
func (t *Txn) unwind(restore bool) {
	t.finished = true
	if restore {
		t.m.inst.Pool.Rollback(t.hooks)
	}
	t.m.lm.ReleaseAllAt(t.id, t.sess.Clk.Now())
	t.m.gate.RUnlock()
}

// groupFlush makes lsn durable through the commit batch: the first
// committer to open a batch becomes its leader and forces the log to the
// batch's highest LSN; committers arriving while the batch is open ride
// the same force and only advance their clocks to its completion.
func (m *Manager) groupFlush(clk *simclock.Clock, lsn wal.LSN) error {
	m.gcMu.Lock()
	if b := m.gcCur; b != nil {
		if lsn > b.maxLSN {
			b.maxLSN = lsn
		}
		b.n++
		m.gcMu.Unlock()
		clk.Park()
		<-b.done
		clk.Unpark()
		clk.AdvanceTo(b.doneAt)
		return b.err
	}
	b := &gcBatch{maxLSN: lsn, n: 1, done: make(chan struct{})}
	m.gcCur = b
	m.gcMu.Unlock()
	// Yield a few times so committers racing this one can join the batch
	// before the leader claims it. These yields decide oltp_2w's simulated
	// results: how many committers join depends on the host's goroutine
	// scheduling, not on virtual time (ROADMAP item 3). Flushing directly
	// instead cost that workload about 10% of its simulated throughput.
	for i := 0; i < 4; i++ {
		runtime.Gosched()
	}
	m.gcMu.Lock()
	m.gcCur = nil
	maxLSN := b.maxLSN
	m.gcMu.Unlock()
	forceStart := clk.Now()
	b.err = m.log.Flush(clk, maxLSN)
	b.doneAt = clk.Now()
	m.gcBatches.Add(1)
	m.gcTxns.Add(int64(b.n))
	if hv := m.mBatchHist; hv != nil {
		hv.Observe(simclock.Duration(b.n))
	}
	if m.tracer != nil {
		m.tracer.Span("txn", "groupcommit", clk.ID(), forceStart, b.doneAt-forceStart,
			map[string]any{"txns": b.n, "lsn": int64(maxLSN)})
	}
	close(b.done)
	return b.err
}

// Abort rolls the transaction back by restoring every touched frame to
// its pre-image (reverse order), releasing the pins and the page locks.
// The disk needs no undo: the no-steal pool never let uncommitted pages
// out. Abort is the required response to lockmgr.ErrDeadlock, after
// which the transaction may be retried.
func (t *Txn) Abort() error {
	if t.finished {
		return fmt.Errorf("txn %d: already finished", t.id)
	}
	t.finished = true
	if t.readOnly {
		t.endSnapshot()
		return nil
	}
	m := t.m
	m.inst.Pool.UnbindTxn(&t.sess.Clk)
	m.inst.Pool.Rollback(t.hooks)
	m.lm.ReleaseAllAt(t.id, t.sess.Clk.Now())
	rec := wal.Record{Txn: t.id, Kind: wal.KindAbort}
	if t.prepared {
		// Aborting a prepared transaction (coordinator decided abort, or
		// presumed abort after a coordinator crash): stamp the GTID so
		// the log reads as the phase-2 abort it is. Presumed abort means
		// the record needs no force.
		rec.Page = t.gtid
		t.prepared = false
	}
	_, err := m.log.Append(&t.sess.Clk, rec)
	m.aborts.Add(1)
	m.mAborts.Inc()
	m.gate.RUnlock()
	return err
}
