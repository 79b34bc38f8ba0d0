package txn

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/btree"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/wal"
	"hstoragedb/internal/simclock"
)

// insertOn runs one transaction appending (id, val) on the given session
// (fixture.insert pinned to f.sess; workers need their own streams). The
// append lock serializes concurrent appenders on the shared table.
func (f *fixture) insertOn(sess *engine.Session, id int64, val string) error {
	tx, err := f.tm.Begin(sess)
	if err != nil {
		return err
	}
	if err := tx.LockAppend(f.info.ID); err != nil {
		_ = tx.Abort()
		return err
	}
	app := f.file.NewAppender(&sess.Clk, f.inst.Pool, f.db.Store.Pages(f.info.ID))
	rid, err := app.Append(catalog.Tuple{catalog.IntDatum(id), catalog.StringDatum(val)})
	if err == nil {
		err = app.Close()
	}
	if err != nil {
		_ = tx.Abort()
		return err
	}
	if err := f.ix.Insert(&sess.Clk, btree.Entry{Key: id, RID: rid}, 0); err != nil {
		_ = tx.Abort()
		return err
	}
	return tx.Commit()
}

// insertRetry retries insertOn across deadlock losses.
func (f *fixture) insertRetry(sess *engine.Session, id int64, val string) error {
	for try := 0; ; try++ {
		err := f.insertOn(sess, id, val)
		if err == nil || !errors.Is(err, ErrDeadlock) || try > 100 {
			return err
		}
	}
}

// TestRetryDeadlocks pins the one retry rule: an attempt that succeeds
// or fails with anything but a deadlock is not rerun; a deadlock loss is
// counted and rerun, up to maxDeadlockRetries times, after which the
// last error is returned.
func TestRetryDeadlocks(t *testing.T) {
	other := errors.New("not a deadlock")
	for _, c := range []struct {
		name     string
		losses   int   // attempts lost to a deadlock before the outcome
		outcome  error // of the attempt after the losses
		retries  int64
		attempts int
	}{
		{"success", 0, nil, 0, 1},
		{"other error", 0, other, 0, 1},
		{"success after losses", 3, nil, 3, 4},
		{"other error after losses", 2, other, 2, 3},
		{"gives up", maxDeadlockRetries + 10, nil, maxDeadlockRetries, maxDeadlockRetries + 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			attempts := 0
			var retries int64
			err := RetryDeadlocks(&retries, func() error {
				attempts++
				if attempts <= c.losses {
					return fmt.Errorf("attempt %d: %w", attempts, ErrDeadlock)
				}
				return c.outcome
			})
			if retries != c.retries || attempts != c.attempts {
				t.Fatalf("%d retries over %d attempts, want %d over %d", retries, attempts, c.retries, c.attempts)
			}
			want := c.outcome
			if c.losses >= attempts {
				// Gave up: the last attempt's own error comes back.
				want = fmt.Errorf("attempt %d: %w", attempts, ErrDeadlock)
			}
			if fmt.Sprint(err) != fmt.Sprint(want) {
				t.Fatalf("err = %v, want %v", err, want)
			}
		})
	}
}

// TestStatsNonBlocking asserts the satellite fix: Commits/Aborts/Dead
// must answer while a transaction is in flight (the seed serialized them
// behind the big transaction mutex, so a long-running transaction froze
// every stats reader).
func TestStatsNonBlocking(t *testing.T) {
	f := newFixture(t, 64)
	tx, err := f.tm.Begin(f.sess)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = f.tm.Commits()
		_ = f.tm.Aborts()
		_ = f.tm.Dead()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stats readers blocked behind an in-flight transaction")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlockDetectionAndRetry choreographs the classic two-transaction
// cycle on two heap pages: the younger transaction is refused with
// ErrDeadlock, aborts, and succeeds on retry.
func TestDeadlockDetectionAndRetry(t *testing.T) {
	f := newFixture(t, 64)
	// Two rows big enough that each occupies its own heap page.
	bulk := strings.Repeat("x", 5000)
	if err := f.insert(1, bulk); err != nil {
		t.Fatal(err)
	}
	if err := f.insert(2, bulk); err != nil {
		t.Fatal(err)
	}
	rid1 := f.mustRID(t, 1)
	rid2 := f.mustRID(t, 2)
	if rid1.Page == rid2.Page {
		t.Fatalf("rows share page %d; the test needs distinct pages", rid1.Page)
	}
	update := func(sess *engine.Session, rid catalog.RID, val string) error {
		row, err := f.file.Fetch(&sess.Clk, f.inst.Pool, rid, 0)
		if err != nil {
			return err
		}
		updated := row.Clone()
		updated[1] = catalog.StringDatum(val)
		return f.file.Update(&sess.Clk, f.inst.Pool, rid, updated, 0)
	}

	sess2 := f.inst.NewSession()
	t1, err := f.tm.Begin(f.sess)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := f.tm.Begin(sess2)
	if err != nil {
		t.Fatal(err)
	}
	if err := update(f.sess, rid1, bulk); err != nil { // t1: X(page1)
		t.Fatal(err)
	}
	if err := update(sess2, rid2, bulk); err != nil { // t2: X(page2)
		t.Fatal(err)
	}

	waitsBefore := f.tm.LockStats().Waits
	blocked := make(chan error, 1)
	go func() { blocked <- update(f.sess, rid2, bulk) }() // t1 waits on t2
	deadline := time.Now().Add(5 * time.Second)
	for f.tm.LockStats().Waits == waitsBefore {
		if time.Now().After(deadline) {
			t.Fatal("t1 never blocked on t2's page")
		}
		time.Sleep(time.Millisecond)
	}

	// t2 closes the cycle; being younger it is the victim.
	err = update(sess2, rid1, bulk)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	if err := t2.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := <-blocked; err != nil {
		t.Fatalf("survivor's blocked update failed: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}

	// The victim's work succeeds on retry.
	t3, err := f.tm.Begin(sess2)
	if err != nil {
		t.Fatal(err)
	}
	if err := update(sess2, rid2, "retried"); err != nil {
		t.Fatal(err)
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := f.lookup(t, 2); got != "retried" {
		t.Fatalf("retried update invisible: %q", got)
	}
	if s := f.tm.LockStats(); s.Deadlocks == 0 {
		t.Fatal("no deadlock recorded")
	}
}

// mustRID resolves the heap RID of a key through the index.
func (f *fixture) mustRID(t *testing.T, id int64) catalog.RID {
	t.Helper()
	rids, err := f.ix.Lookup(&f.sess.Clk, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != 1 {
		t.Fatalf("key %d has %d rids", id, len(rids))
	}
	return rids[0]
}

// TestConcurrentCommits runs 8 mutating workers concurrently and checks
// every committed row is visible, the counters add up, no pins leak, and
// the log's group-commit counters account for every commit.
func TestConcurrentCommits(t *testing.T) {
	f := newFixture(t, 128)
	const workers = 8
	const each = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := f.inst.NewSession()
			for i := 0; i < each; i++ {
				id := int64(1000*w + i)
				if err := f.insertRetry(sess, id, fmt.Sprintf("w%d-%d", w, i)); err != nil {
					errs <- fmt.Errorf("worker %d insert %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := f.tm.Commits(); got != workers*each {
		t.Fatalf("commits=%d want %d", got, workers*each)
	}
	if n := f.scanCount(t); n != workers*each {
		t.Fatalf("scan found %d rows, want %d", n, workers*each)
	}
	for w := 0; w < workers; w++ {
		if got := f.lookup(t, int64(1000*w+each-1)); got != fmt.Sprintf("w%d-%d", w, each-1) {
			t.Fatalf("worker %d last row: %q", w, got)
		}
	}
	if n := f.inst.Pool.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames still pinned after all transactions finished", n)
	}
	gc := f.tm.GroupCommit()
	if gc.Txns != workers*each {
		t.Fatalf("group commit accounted %d txns, want %d", gc.Txns, workers*each)
	}
	if gc.Batches <= 0 || gc.Batches > gc.Txns {
		t.Fatalf("group commit batches=%d txns=%d", gc.Batches, gc.Txns)
	}
}

// TestNoStealConcurrentMutators is the no-steal invariant under
// concurrency: 8 mutators hammer a 8-frame pool (constant eviction
// pressure), a third of the transactions abort after writing, and the
// instance then crashes WITHOUT a checkpoint. If any uncommitted page
// had ever been written back, the post-recovery scan would see aborted
// or torn rows.
func TestNoStealConcurrentMutators(t *testing.T) {
	f := newFixture(t, 8)
	if err := f.tm.Checkpoint(f.sess); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const each = 9
	bulk := strings.Repeat("y", 1200)
	var mu sync.Mutex
	committed := make(map[int64]bool)
	aborted := make(map[int64]bool)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := f.inst.NewSession()
			for i := 0; i < each; i++ {
				id := int64(1000*w + i)
				if i%3 == 2 {
					// Deliberate abort after writing heap + index pages.
					err := func() error {
						tx, err := f.tm.Begin(sess)
						if err != nil {
							return err
						}
						if err := tx.LockAppend(f.info.ID); err != nil {
							return tx.Abort()
						}
						app := f.file.NewAppender(&sess.Clk, f.inst.Pool, f.db.Store.Pages(f.info.ID))
						if _, err := app.Append(catalog.Tuple{catalog.IntDatum(id), catalog.StringDatum(bulk)}); err == nil {
							_ = app.Close()
						}
						return tx.Abort()
					}()
					if err != nil {
						errs <- fmt.Errorf("worker %d abort txn %d: %w", w, i, err)
						return
					}
					mu.Lock()
					aborted[id] = true
					mu.Unlock()
					continue
				}
				if err := f.insertRetry(sess, id, bulk); err != nil {
					errs <- fmt.Errorf("worker %d insert %d: %w", w, i, err)
					return
				}
				mu.Lock()
				committed[id] = true
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := f.inst.Pool.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames still pinned", n)
	}

	// Hard crash (no checkpoint): recovery rebuilds purely from WAL redo
	// over whatever pages the pool wrote back.
	f.tm.Crash()
	f.attach(t, 64, false)
	if n := f.scanCount(t); n != len(committed) {
		t.Fatalf("post-recovery scan: %d rows, want %d committed", n, len(committed))
	}
	for id := range committed {
		if got := f.lookup(t, id); got != bulk {
			t.Fatalf("committed key %d missing after recovery (%q)", id, got)
		}
	}
	for id := range aborted {
		if got := f.lookup(t, id); got != "" {
			t.Fatalf("aborted key %d visible after recovery", id)
		}
	}
}

// TestCommitCheckpointCrashInterleaving runs concurrent committers, a
// checkpointer taking the drain barrier mid-stream, and a crash injected
// while workers are in flight; recovery must show exactly the commits
// that succeeded.
func TestCommitCheckpointCrashInterleaving(t *testing.T) {
	f := newFixture(t, 64)
	if err := f.tm.Checkpoint(f.sess); err != nil {
		t.Fatal(err)
	}
	const workers = 4
	const each = 20
	f.tm.CrashAtCommit(workers * each / 2)

	var mu sync.Mutex
	committed := make(map[int64]bool)
	var wg sync.WaitGroup
	errs := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := f.inst.NewSession()
			for i := 0; i < each; i++ {
				id := int64(1000*w + i)
				err := f.insertRetry(sess, id, fmt.Sprintf("v%d", id))
				if errors.Is(err, ErrCrashed) {
					return // this key and everything after it is lost
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d insert %d: %w", w, i, err)
					return
				}
				mu.Lock()
				committed[id] = true
				mu.Unlock()
			}
		}(w)
	}
	// A checkpointer interleaves with the committers until the crash.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ckSess := f.inst.NewSession()
		for {
			err := f.tm.Checkpoint(ckSess)
			if errors.Is(err, ErrCrashed) {
				return
			}
			if err != nil {
				errs <- fmt.Errorf("checkpoint: %w", err)
				return
			}
			if f.tm.Dead() {
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !f.tm.Dead() {
		t.Fatal("crash harness never fired")
	}
	f.tm.Crash()

	stats := f.attach(t, 64, false)
	if stats == nil {
		t.Fatal("no recovery stats")
	}
	if n := f.scanCount(t); n != len(committed) {
		t.Fatalf("post-recovery scan: %d rows, want %d", n, len(committed))
	}
	for id := range committed {
		if got, want := f.lookup(t, id), fmt.Sprintf("v%d", id); got != want {
			t.Fatalf("committed key %d: got %q want %q", id, got, want)
		}
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < each; i++ {
			id := int64(1000*w + i)
			if !committed[id] && f.lookup(t, id) != "" {
				t.Fatalf("uncommitted key %d visible after recovery", id)
			}
		}
	}
}

// parkCase is one row of TestEveryEngineSideWaitParks: a fresh fixture
// with three rows on three heap pages (so the sessions' updates meet
// only where a row says so) and three sessions, s[0..2], that the test
// enrolls in the device scheduler's closed population.
type parkCase struct {
	t    *testing.T
	f    *fixture
	s    [3]*engine.Session
	base int64 // device submissions before the sessions started
}

// submissions counts the foreground device submissions so far.
func (c *parkCase) submissions() (n int64) {
	for _, s := range c.f.inst.Sys.Sched().Schedulers() {
		n += s.Stats().Submitted
	}
	return n
}

// await polls until cond holds; a case that hangs is the test's
// timeout to report, so await itself never gives up.
func await(cond func() bool) {
	for !cond() {
		time.Sleep(50 * time.Microsecond)
	}
}

// awaitSubmission returns once some session is inside a device
// submission — where it stays until all three sessions are blocked,
// the caller included.
func (c *parkCase) awaitSubmission() {
	await(func() bool { return c.submissions() > c.base })
}

// begun opens a transaction on s[i] holding the exclusive lock of row
// id's page.
func (c *parkCase) begun(i int, id int64) *Txn {
	c.t.Helper()
	tx, err := c.f.tm.Begin(c.s[i])
	if err == nil {
		err = c.f.updateIn(tx, c.s[i], id, "held")
	}
	if err != nil {
		c.t.Fatal(err)
	}
	return tx
}

// TestEveryEngineSideWaitParks: a session of a closed scheduler
// population that blocks outside the scheduler — on a page lock, or on
// the log while another session's force or rollover holds it, a
// committer whose record that force carries included — must count as
// blocked, or the device submission
// of the session it waits for (dispatched only once everybody is
// blocked) never completes and the process hangs. Every row builds one
// such wait while another session is inside a device submission and
// must run to completion; nothing couples the transaction manager to
// the scheduler but the sessions' clocks. A commit's force is the
// submission throughout: it holds the log across the device write.
func TestEveryEngineSideWaitParks(t *testing.T) {
	rows := []struct {
		name string
		// acts runs the row's prelude (before anybody is enrolled) and
		// returns what each session then does, concurrently.
		acts func(c *parkCase) [3]func() error
	}{
		{"page lock", func(c *parkCase) [3]func() error {
			held := c.begun(0, 1)
			waits := c.f.tm.LockStats().Waits
			queued := func() bool { return c.f.tm.LockStats().Waits > waits }
			return [3]func() error{
				func() error { // releases the lock once s1 has queued on it and s2 is in its force
					await(queued)
					c.awaitSubmission()
					return held.Commit()
				},
				func() error { return c.f.updateOn(c.s[1], 1, "after the wait") },
				func() error {
					await(queued)
					return c.f.updateOn(c.s[2], 3, "forced")
				},
			}
		}},
		{"group-commit follower", func(c *parkCase) [3]func() error {
			// s1 and s2 have appended their commit records, and s0 holds
			// the log from before they run: its force carries both, and
			// they wait for it on the log's lock.
			tm := c.f.tm
			var last wal.LSN
			var forced atomic.Int64 // s0's clock once its force completed
			committer := func(i int, id int64) func() error {
				tx := c.begun(i, id)
				tx.finished = true
				tm.inst.Pool.UnbindTxn(&tx.sess.Clk)
				lsn, err := tx.walPhase(wal.KindCommit, 0, true)
				if err != nil {
					c.t.Fatal(err)
				}
				last = lsn
				return func() error {
					if err := tx.releaseAndForce(lsn); err != nil {
						return err
					}
					if now, done := tx.sess.Clk.Now(), simclock.Duration(forced.Load()); now < done {
						return fmt.Errorf("commit returned at %v, before the force that carried it completed at %v", now, done)
					}
					return nil
				}
			}
			commit1, commit2 := committer(1, 2), committer(2, 3)
			before := tm.GroupCommit()
			clk0 := &c.s[0].Clk
			tm.log.Lock(clk0)
			return [3]func() error{
				func() error {
					err := tm.log.Flush(clk0, last)
					forced.Store(int64(clk0.Now()))
					tm.log.Unlock()
					if err != nil {
						return err
					}
					if gc := tm.GroupCommit(); gc.Batches != before.Batches+1 || gc.Txns != before.Txns+2 {
						return fmt.Errorf("group commit went %+v -> %+v, want one batch of 2", before, gc)
					}
					return nil
				},
				commit1,
				commit2,
			}
		}},
		{"abort and begin behind a force", func(c *parkCase) [3]func() error {
			open := c.begun(1, 2)
			return [3]func() error{
				func() error { return c.f.updateOn(c.s[0], 1, "forced") },
				func() error {
					c.awaitSubmission()
					return open.Abort()
				},
				func() error {
					c.awaitSubmission()
					tx, err := c.f.tm.Begin(c.s[2])
					if err != nil {
						return err
					}
					return tx.Abort()
				},
			}
		}},
		{"prepare and commit-prepared behind a force", func(c *parkCase) [3]func() error {
			twoPC := func(tx *Txn, gtid int64) func() error {
				return func() error {
					c.awaitSubmission()
					if err := tx.Prepare(gtid); err != nil {
						return err
					}
					return tx.CommitPrepared()
				}
			}
			return [3]func() error{
				func() error { return c.f.updateOn(c.s[0], 1, "forced") },
				twoPC(c.begun(1, 2), 7),
				twoPC(c.begun(2, 3), 8),
			}
		}},
	}
	bulk := strings.Repeat("x", 5000) // one row per heap page
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			// Segments large enough that nothing rolls over: the forces are
			// the only device submissions, so a row knows who is inside one.
			c := &parkCase{t: t, f: newFixtureWAL(t, 64, engine.NewDatabase(), wal.Config{SegmentPages: 256})}
			for id := int64(1); id <= 3; id++ {
				if err := c.f.insert(id, bulk); err != nil {
					t.Fatal(err)
				}
			}
			for i := range c.s {
				c.s[i] = c.f.inst.NewSession()
			}
			acts := row.acts(c)
			c.base = c.submissions()
			grp := c.f.inst.Sys.Sched()
			for _, sess := range c.s {
				grp.Register(&sess.Clk)
			}
			errs := make(chan error, len(acts))
			for i, act := range acts {
				go func() {
					defer grp.Unregister(&c.s[i].Clk)
					errs <- act()
				}()
			}
			deadline := time.After(time.Second)
			for range acts {
				select {
				case err := <-errs:
					if err != nil {
						t.Error(err)
					}
				case <-deadline:
					buf := make([]byte, 1<<20)
					t.Fatalf("a blocked session was not parked: still running after 1s\n%s",
						buf[:runtime.Stack(buf, true)])
				}
			}
			if n := c.f.inst.Pool.PinnedFrames(); n != 0 {
				t.Errorf("%d frames still pinned", n)
			}
		})
	}
}
