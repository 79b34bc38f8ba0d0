package shard

import (
	"fmt"
	"sync/atomic"

	"hstoragedb/internal/engine/txn"
	"hstoragedb/internal/engine/wal"
	"hstoragedb/internal/obs"
	"hstoragedb/internal/simclock"
)

// TwoPCStats summarize the coordinator.
type TwoPCStats struct {
	// Commits and Aborts count decided cross-shard transactions;
	// Prepares counts participant prepare calls across them.
	Commits  int64
	Aborts   int64
	Prepares int64
}

// Coordinator runs two-phase commit for cross-shard transactions. Its
// decision log is an ordinary WAL co-located on shard 0: one forced
// decide record per committing transaction is the commit point, and a
// transaction with no durable decision is aborted (presumed abort), so
// abort decisions cost no force.
type Coordinator struct {
	log *wal.Manager

	nextGTID atomic.Int64

	commits  atomic.Int64
	aborts   atomic.Int64
	prepares atomic.Int64

	// Crash injection: arm to kill the cluster at the corresponding
	// protocol point of the next cross-shard commit.
	crashBeforeDecide atomic.Bool
	crashAfterDecide  atomic.Bool

	tracer   *obs.Tracer
	mCommits *obs.Counter
	mAborts  *obs.Counter
}

func newCoordinator(log *wal.Manager, set *obs.Set) *Coordinator {
	co := &Coordinator{log: log}
	co.nextGTID.Store(1)
	co.tracer = set.Trace()
	if reg := set.Registry(); reg != nil {
		co.mCommits = reg.Counter("shard.2pc.commits")
		co.mAborts = reg.Counter("shard.2pc.aborts")
	}
	return co
}

// resumeAfter bumps the GTID allocator past every GTID of the decision
// map a recovery read back from the decision log.
func (co *Coordinator) resumeAfter(decisions map[int64]bool) {
	for gtid := range decisions {
		if gtid >= co.nextGTID.Load() {
			co.nextGTID.Store(gtid + 1)
		}
	}
}

// NextGTID allocates a global transaction ID.
func (co *Coordinator) NextGTID() int64 { return co.nextGTID.Add(1) - 1 }

// Stats returns a snapshot of the coordinator counters.
func (co *Coordinator) Stats() TwoPCStats {
	return TwoPCStats{
		Commits:  co.commits.Load(),
		Aborts:   co.aborts.Load(),
		Prepares: co.prepares.Load(),
	}
}

// CrashBeforeDecide arms a simulated coordinator crash after the next
// cross-shard transaction's prepare phase, before its decision record:
// participants are left holding prepared locks, and recovery must
// presume abort.
func (co *Coordinator) CrashBeforeDecide() { co.crashBeforeDecide.Store(true) }

// CrashAfterDecide arms a simulated crash after the next cross-shard
// transaction's decision record is durable, before phase 2: recovery
// must resolve the in-doubt participants to commit.
func (co *Coordinator) CrashAfterDecide() { co.crashAfterDecide.Store(true) }

// decide makes the commit decision durable: a forced decide-commit
// record in the decision log is the commit point. An abort writes no
// record (presumed abort).
func (co *Coordinator) decide(clk *simclock.Clock, gtid int64) error {
	lsn, err := co.log.Append(clk, wal.Record{Txn: gtid, Kind: wal.KindDecideCommit})
	if err != nil {
		return err
	}
	return co.log.Flush(clk, lsn)
}

// commit drives one cross-shard transaction through the protocol. The
// caller (router Txn) holds the cluster gate; parts is non-empty and in
// shard order. On any prepare failure every participant aborts and the
// first error returns. After the decision record is durable the outcome
// is fixed: phase-2 failures (a participant crash) leave that shard's
// prepared transaction for recovery to resolve, not a lost commit.
func (co *Coordinator) commit(rs *Session, parts []*Part) error {
	gtid := co.NextGTID()
	clk := &rs.sess[0].Clk // coordinator co-located with shard 0

	start := rs.Now()
	// Phase 1: prepare every participant in shard order, then gate on
	// all acks. Each participant prepares on its own shard's clock,
	// where the transaction's work on that shard left it, and its force
	// rides that shard's group-commit batch; the decision below waits
	// for the latest one. So the phase costs one round of prepares in
	// virtual time, whatever the participant count, although the calls
	// run one after another. A chain, growing linearly in the
	// participant count, arises only if each prepare starts at the
	// previous one's completion, or if concurrent streams run ahead of
	// this commit in real time and its clocks catch up to them. Every
	// participant prepares even after one fails, so a failure anywhere
	// leads to the same presumed abort.
	var prepErr error
	for _, p := range parts {
		co.prepares.Add(1)
		if err := p.T.Prepare(gtid); err != nil && prepErr == nil {
			prepErr = err
		}
	}
	if prepErr != nil {
		// Presumed abort: no decision record needed. Failed participants
		// already released; the prepared ones roll back.
		for _, p := range parts {
			if p.T.Prepared() {
				_ = p.T.Abort()
			}
		}
		co.aborts.Add(1)
		co.mAborts.Inc()
		return prepErr
	}

	// The decision happens-after every prepare: advance the coordinator
	// clock to the latest participant before the decision I/O.
	for _, p := range parts {
		clk.AdvanceTo(p.Sess.Clk.Now())
	}

	if co.crashBeforeDecide.CompareAndSwap(true, false) {
		// Simulated coordinator crash between prepare and decide: no
		// decision exists, participants hold prepared locks until
		// recovery presumes abort.
		rs.c.Crash()
		return ErrCoordinatorCrashed
	}

	if err := co.decide(clk, gtid); err != nil {
		return fmt.Errorf("shard: decide gtid %d: %w", gtid, err)
	}

	if co.crashAfterDecide.CompareAndSwap(true, false) {
		// Simulated crash after the durable decision, before phase 2:
		// the transaction is committed — recovery must make every
		// participant agree.
		rs.c.Crash()
		return ErrCoordinatorCrashed
	}

	// Phase 2: local commit records. Participants first catch up to the
	// decision's completion time — the commit point happened-before
	// their phase-2 work.
	var firstErr error
	for _, p := range parts {
		p.Sess.Clk.AdvanceTo(clk.Now())
		if err := p.T.CommitPrepared(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	co.commits.Add(1)
	co.mCommits.Inc()
	if co.tracer != nil {
		end := rs.Now()
		co.tracer.Span("shard", "2pc", clk.ID(), start, end-start,
			map[string]any{"gtid": gtid, "parts": len(parts)})
	}
	return firstErr
}

// ErrCoordinatorCrashed reports a commit interrupted by the armed
// coordinator crash: the cluster is down and the transaction's fate
// belongs to recovery.
var ErrCoordinatorCrashed = fmt.Errorf("shard: simulated coordinator crash: %w", txn.ErrCrashed)
