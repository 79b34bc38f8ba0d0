// Snapshot transactions: the read-only MVCC side of the transaction
// layer. A snapshot transaction binds its session stream to the WAL's
// commit-LSN watermark and resolves every Get against the buffer pool's
// version store, bypassing the lock manager entirely — writers never
// block it and it never blocks writers. See txn.go for the mutating
// path and bufferpool's mvcc.go for the version store itself.
package txn

import (
	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/wal"
)

// BeginSnapshot starts a read-only snapshot transaction on the session:
// the transaction observes exactly the state committed (durably) at the
// moment it begins — the WAL's commit-LSN watermark — for its entire
// lifetime, regardless of concurrent commits. It takes no locks, writes
// no log records, and does not hold the checkpoint drain barrier, so a
// long-running snapshot scan never stalls checkpoints or writers. Writes
// through the session stream fail while the snapshot is open. Finish
// with Commit or Abort (equivalent for a snapshot).
func (m *Manager) BeginSnapshot(sess *engine.Session) *Txn {
	lsn := wal.LSN(m.inst.Pool.BindSnapshot(&sess.Clk, func() int64 {
		return int64(m.log.CommitWatermark())
	}))
	return &Txn{
		m:         m,
		sess:      sess,
		readOnly:  true,
		snapshot:  true,
		snapLSN:   lsn,
		snapStart: sess.Clk.Now(),
	}
}

// SnapshotLSN returns the LSN a snapshot transaction reads at (0 for
// mutating transactions).
func (t *Txn) SnapshotLSN() wal.LSN { return t.snapLSN }

// endSnapshot releases the snapshot binding, sweeps the version store
// (versions kept only for this snapshot become prunable), and records
// the snapshot-age span. Shared by Commit and Abort on the read-only
// path; a bare pre-MVCC read-only Txn (snapshot == false) is a no-op.
func (t *Txn) endSnapshot() {
	if !t.snapshot {
		return
	}
	m := t.m
	m.inst.Pool.UnbindSnapshot(&t.sess.Clk)
	if !m.dead.Load() {
		m.inst.Pool.PruneVersions(int64(m.log.CommitWatermark()))
	}
	if m.tracer != nil {
		now := t.sess.Clk.Now()
		m.tracer.Span("txn", "snapshot", t.sess.Clk.ID(), t.snapStart, now-t.snapStart,
			map[string]any{"lsn": int64(t.snapLSN)})
	}
}
