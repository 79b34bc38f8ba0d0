package txn

// Isolation-anomaly suite for MVCC snapshot reads: choreographed
// G0/G1a/G1b/G1c, fuzzy-read, and phantom-on-scan scenarios assert that
// a snapshot transaction never observes uncommitted or post-snapshot
// state, while the 2PL write path keeps read-your-own-writes and
// serializes conflicting writers.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/catalog"
)

// updateIn rewrites id's row to val inside an already-begun transaction.
func (f *fixture) updateIn(tx *Txn, sess *engine.Session, id int64, val string) error {
	rids, err := f.ix.Lookup(&sess.Clk, id, 0)
	if err != nil {
		return err
	}
	if len(rids) == 0 {
		return fmt.Errorf("key %d not found", id)
	}
	return f.file.Update(&sess.Clk, f.inst.Pool, rids[0],
		catalog.Tuple{catalog.IntDatum(id), catalog.StringDatum(val)}, 0)
}

// updateOn runs one transaction on sess rewriting id's row to val.
func (f *fixture) updateOn(sess *engine.Session, id int64, val string) error {
	tx, err := f.tm.Begin(sess)
	if err != nil {
		return err
	}
	if err := f.updateIn(tx, sess, id, val); err != nil {
		_ = tx.Abort()
		return err
	}
	return tx.Commit()
}

// lookupOn returns the val for id as observed through sess (which may be
// bound to a snapshot), or "" when the key is not visible.
func (f *fixture) lookupOn(t *testing.T, sess *engine.Session, id int64) string {
	t.Helper()
	rids, err := f.ix.Lookup(&sess.Clk, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rid := range rids {
		row, err := f.file.Fetch(&sess.Clk, f.inst.Pool, rid, 0)
		if err != nil {
			t.Fatal(err)
		}
		if row != nil {
			return row[1].S
		}
	}
	return ""
}

// scanCountOn counts heap tuples visible through sess.
func (f *fixture) scanCountOn(t *testing.T, sess *engine.Session) int {
	t.Helper()
	sc := f.file.NewScanner(&sess.Clk, f.inst.Pool, f.db.Store.Pages(f.info.ID))
	n := 0
	for {
		_, _, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return n
		}
		n++
	}
}

// TestMVCCNoDirtyReadG1a: a snapshot never observes the writes of an
// uncommitted transaction, and an aborted transaction's writes are never
// observable by any later snapshot (G1a, aborted reads).
func TestMVCCNoDirtyReadG1a(t *testing.T) {
	f := newFixture(t, 64)
	if err := f.insert(1, "committed"); err != nil {
		t.Fatal(err)
	}

	wSess := f.inst.NewSession()
	tx, err := f.tm.Begin(wSess)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.updateIn(tx, wSess, 1, "dirty"); err != nil {
		t.Fatal(err)
	}

	// Snapshot opened while the write is uncommitted: sees the committed
	// value, without touching the lock manager.
	before := f.tm.LockStats()
	rSess := f.inst.NewSession()
	snap := f.tm.BeginSnapshot(rSess)
	if got := f.lookupOn(t, rSess, 1); got != "committed" {
		t.Fatalf("snapshot read uncommitted write: %q", got)
	}
	after := f.tm.LockStats()
	if after.Acquired != before.Acquired || after.Waits != before.Waits {
		t.Fatalf("snapshot read touched the lock manager: %+v -> %+v", before, after)
	}

	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := f.lookupOn(t, rSess, 1); got != "committed" {
		t.Fatalf("snapshot changed after abort: %q", got)
	}
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}

	// G1a proper: no later snapshot ever observes the aborted value.
	rSess2 := f.inst.NewSession()
	snap2 := f.tm.BeginSnapshot(rSess2)
	if got := f.lookupOn(t, rSess2, 1); got != "committed" {
		t.Fatalf("aborted write observable: %q", got)
	}
	if err := snap2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestMVCCNoIntermediateReadG1b: a snapshot observes either the state
// before a multi-write transaction or its final committed state — never
// an intermediate version (G1b).
func TestMVCCNoIntermediateReadG1b(t *testing.T) {
	f := newFixture(t, 64)
	if err := f.insert(1, "v0"); err != nil {
		t.Fatal(err)
	}

	wSess := f.inst.NewSession()
	tx, err := f.tm.Begin(wSess)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.updateIn(tx, wSess, 1, "intermediate"); err != nil {
		t.Fatal(err)
	}

	rSess := f.inst.NewSession()
	during := f.tm.BeginSnapshot(rSess)
	if got := f.lookupOn(t, rSess, 1); got != "v0" {
		t.Fatalf("snapshot saw mid-transaction state: %q", got)
	}

	if err := f.updateIn(tx, wSess, 1, "final"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// The open snapshot still sees v0; a fresh one sees only "final".
	if got := f.lookupOn(t, rSess, 1); got != "v0" {
		t.Fatalf("open snapshot drifted: %q", got)
	}
	if err := during.Commit(); err != nil {
		t.Fatal(err)
	}
	rSess2 := f.inst.NewSession()
	after := f.tm.BeginSnapshot(rSess2)
	if got := f.lookupOn(t, rSess2, 1); got != "final" {
		t.Fatalf("fresh snapshot: got %q, want final", got)
	}
	if err := after.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestMVCCNoFuzzyRead: reading the same key twice inside one snapshot
// returns the same value even when a concurrent transaction commits a
// new version in between (repeatable reads, no G1c-style circularity:
// the snapshot exposes one consistent LSN cut).
func TestMVCCNoFuzzyRead(t *testing.T) {
	f := newFixture(t, 64)
	if err := f.insert(1, "old"); err != nil {
		t.Fatal(err)
	}

	rSess := f.inst.NewSession()
	snap := f.tm.BeginSnapshot(rSess)
	if got := f.lookupOn(t, rSess, 1); got != "old" {
		t.Fatalf("first read: %q", got)
	}

	wSess := f.inst.NewSession()
	if err := f.updateOn(wSess, 1, "new"); err != nil {
		t.Fatal(err)
	}

	if got := f.lookupOn(t, rSess, 1); got != "old" {
		t.Fatalf("fuzzy read: second read saw %q", got)
	}
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
	rSess2 := f.inst.NewSession()
	snap2 := f.tm.BeginSnapshot(rSess2)
	if got := f.lookupOn(t, rSess2, 1); got != "new" {
		t.Fatalf("post-commit snapshot: %q", got)
	}
	if err := snap2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestMVCCNoPhantomOnScan: a full-table scan inside a snapshot returns
// the same row count before and after a concurrent committed insert; a
// fresh snapshot sees the new row.
func TestMVCCNoPhantomOnScan(t *testing.T) {
	f := newFixture(t, 64)
	for i := int64(1); i <= 5; i++ {
		if err := f.insert(i, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	rSess := f.inst.NewSession()
	snap := f.tm.BeginSnapshot(rSess)
	if n := f.scanCountOn(t, rSess); n != 5 {
		t.Fatalf("snapshot scan: %d rows, want 5", n)
	}

	wSess := f.inst.NewSession()
	if err := f.insertOn(wSess, 6, "phantom"); err != nil {
		t.Fatal(err)
	}

	if n := f.scanCountOn(t, rSess); n != 5 {
		t.Fatalf("phantom: snapshot rescan saw %d rows", n)
	}
	if got := f.lookupOn(t, rSess, 6); got != "" {
		t.Fatalf("phantom key visible through snapshot index: %q", got)
	}
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}

	rSess2 := f.inst.NewSession()
	snap2 := f.tm.BeginSnapshot(rSess2)
	if n := f.scanCountOn(t, rSess2); n != 6 {
		t.Fatalf("fresh snapshot scan: %d rows, want 6", n)
	}
	if err := snap2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestMVCCNoDirtyWriteG0: two transactions updating the same key
// serialize under 2PL — the second blocks until the first commits, so
// writes never interleave (G0) and the final state is the last
// committer's.
func TestMVCCNoDirtyWriteG0(t *testing.T) {
	f := newFixture(t, 64)
	if err := f.insert(1, "base"); err != nil {
		t.Fatal(err)
	}

	aSess := f.inst.NewSession()
	txA, err := f.tm.Begin(aSess)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.updateIn(txA, aSess, 1, "from-A"); err != nil {
		t.Fatal(err)
	}

	// B's update blocks behind A's exclusive lock.
	bDone := make(chan error, 1)
	bSess := f.inst.NewSession()
	go func() { bDone <- f.updateOn(bSess, 1, "from-B") }()

	select {
	case err := <-bDone:
		t.Fatalf("B finished while A held the lock: %v", err)
	default:
	}
	if err := txA.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-bDone; err != nil {
		t.Fatal(err)
	}
	if got := f.lookup(t, 1); got != "from-B" {
		t.Fatalf("final value %q, want from-B", got)
	}
	// B blocked behind A: its commit must not predate A's virtual
	// completion (the lock wait is charged in simulated time).
	if bSess.Clk.Now() < aSess.Clk.Now() {
		t.Fatalf("lock wait cost no virtual time: B at %v, A at %v", bSess.Clk.Now(), aSess.Clk.Now())
	}
}

// TestMVCCWriteConflictDeadlock: transactions locking two keys in
// opposite orders deadlock; the victim gets ErrDeadlock, retries, and
// both effects end up applied (G1c circularity is impossible: one of the
// two serializes strictly after the other).
func TestMVCCWriteConflictDeadlock(t *testing.T) {
	f := newFixture(t, 64)
	// Two keys far enough apart to live on distinct pages.
	bulk := string(make([]byte, 3000))
	for i := int64(1); i <= 6; i++ {
		if err := f.insert(i, fmt.Sprintf("pad%s%d", bulk, i)); err != nil {
			t.Fatal(err)
		}
	}

	update2 := func(sess *engine.Session, first, second int64, tag string) error {
		tx, err := f.tm.Begin(sess)
		if err != nil {
			return err
		}
		if err := f.updateIn(tx, sess, first, "by-"+tag); err != nil {
			_ = tx.Abort()
			return err
		}
		if err := f.updateIn(tx, sess, second, "by-"+tag); err != nil {
			_ = tx.Abort()
			return err
		}
		return tx.Commit()
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	var deadlocks int
	run := func(i int, first, second int64, tag string) {
		defer wg.Done()
		sess := f.inst.NewSession()
		for try := 0; try < 10; try++ {
			errs[i] = update2(sess, first, second, tag)
			if !errors.Is(errs[i], ErrDeadlock) {
				return
			}
			deadlocks++
		}
	}
	wg.Add(2)
	go run(0, 1, 6, "a")
	go run(1, 6, 1, "b")
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	// Both transactions applied both their writes: each key carries one
	// of the two tags (same tag on both keys under a serial order, or
	// one each if the interleaving never cycled).
	v1, v6 := f.lookup(t, 1), f.lookup(t, 6)
	if (v1 != "by-a" && v1 != "by-b") || (v6 != "by-a" && v6 != "by-b") {
		t.Fatalf("torn final state: key1=%q key6=%q", v1, v6)
	}
}

// TestMVCCReadYourOwnWrites: the 2PL path reads its own uncommitted
// writes through the frames it pinned, while a concurrent snapshot
// still sees the pre-transaction state.
func TestMVCCReadYourOwnWrites(t *testing.T) {
	f := newFixture(t, 64)
	if err := f.insert(1, "before"); err != nil {
		t.Fatal(err)
	}

	wSess := f.inst.NewSession()
	tx, err := f.tm.Begin(wSess)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.updateIn(tx, wSess, 1, "mine"); err != nil {
		t.Fatal(err)
	}
	if got := f.lookupOn(t, wSess, 1); got != "mine" {
		t.Fatalf("transaction lost its own write: %q", got)
	}

	rSess := f.inst.NewSession()
	snap := f.tm.BeginSnapshot(rSess)
	if got := f.lookupOn(t, rSess, 1); got != "before" {
		t.Fatalf("snapshot saw uncommitted write: %q", got)
	}
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := f.lookup(t, 1); got != "mine" {
		t.Fatalf("committed value: %q", got)
	}
}

// TestSnapshotStreamRejectsWrites: a session stream bound to a snapshot
// refuses transactional page writes — the read-only contract is enforced
// at the pool, not by convention.
func TestSnapshotStreamRejectsWrites(t *testing.T) {
	f := newFixture(t, 64)
	if err := f.insert(1, "v1"); err != nil {
		t.Fatal(err)
	}
	sess := f.inst.NewSession()
	snap := f.tm.BeginSnapshot(sess)
	app := f.file.NewAppender(&sess.Clk, f.inst.Pool, f.db.Store.Pages(f.info.ID))
	_, err := app.Append(catalog.Tuple{catalog.IntDatum(2), catalog.StringDatum("nope")})
	if err == nil {
		err = app.Close()
	}
	if err == nil {
		t.Fatal("write on a snapshot stream succeeded")
	}
	if err := snap.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotLSNAndWatermark: the snapshot LSN is the commit watermark
// at begin time, advances with commits, and survives recovery.
func TestSnapshotLSNAndWatermark(t *testing.T) {
	f := newFixture(t, 64)
	s0 := f.tm.BeginSnapshot(f.inst.NewSession())
	if s0.SnapshotLSN() != 0 {
		t.Fatalf("empty-log snapshot LSN %d", s0.SnapshotLSN())
	}
	if err := s0.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := f.insert(1, "v1"); err != nil {
		t.Fatal(err)
	}
	s1 := f.tm.BeginSnapshot(f.inst.NewSession())
	if s1.SnapshotLSN() == 0 {
		t.Fatal("watermark did not advance with the commit")
	}
	if err := s1.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, want := s1.SnapshotLSN(), f.tm.WAL().CommitWatermark(); got != want {
		t.Fatalf("snapshot LSN %d, watermark %d", got, want)
	}
}

// TestSnapshotBeginIsOneStep: reading the commit watermark and binding
// the stream to it are one step as far as any pruner can tell. The
// watermark read hands control to a writer that tries to commit two
// updates of the row and sweep the version store before the binding
// exists, and gives it a bounded time. Where the read is a step of its
// own the writer gets through, and the version the snapshot is about to
// need is gone: the reader then fails on the next writer's pending
// frame or — silently — returns the newer committed value, so the
// assertions are on the value as of the snapshot's LSN, not on "no
// error".
func TestSnapshotBeginIsOneStep(t *testing.T) {
	f := newFixture(t, 64)
	if err := f.insert(1, "v0"); err != nil {
		t.Fatal(err)
	}
	reader, writer := f.inst.NewSession(), f.inst.NewSession()
	reading := make(chan struct{})
	wrote := make(chan error, 1)
	go func() {
		<-reading
		err := f.updateOn(writer, 1, "v1")
		if err == nil {
			err = f.updateOn(writer, 1, "v2")
		}
		if err == nil {
			f.inst.Pool.PruneVersions(int64(f.tm.log.CommitWatermark()))
		}
		wrote <- err
	}()
	lsn := f.inst.Pool.BindSnapshot(&reader.Clk, func() int64 {
		w := int64(f.tm.log.CommitWatermark())
		close(reading)
		select {
		case err := <-wrote: // the writer got in between read and bind
			wrote <- err
		case <-time.After(100 * time.Millisecond):
		}
		return w
	})
	if got := f.lookupOn(t, reader, 1); got != "v0" {
		t.Fatalf("snapshot at LSN %d reads %q, want the value as of its LSN, \"v0\"", lsn, got)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if w := int64(f.tm.log.CommitWatermark()); w <= lsn {
		t.Fatalf("watermark %d did not pass the snapshot's LSN %d: the writer did not commit", w, lsn)
	}
	if got := f.lookupOn(t, reader, 1); got != "v0" {
		t.Fatalf("after two commits and a prune the snapshot at LSN %d reads %q, want \"v0\"", lsn, got)
	}
	f.inst.Pool.UnbindSnapshot(&reader.Clk)
	if got := f.lookupOn(t, reader, 1); got != "v2" {
		t.Fatalf("unbound stream reads %q, want \"v2\"", got)
	}
}
