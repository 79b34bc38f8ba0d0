package shard

import (
	"errors"
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"hstoragedb/internal/engine/txn"
	"hstoragedb/internal/engine/wal"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/iosched"
	"hstoragedb/internal/lsm"
	"hstoragedb/internal/obs"
	"hstoragedb/internal/pagestore"
)

func testConfig(shards int) Config {
	return Config{
		Shards:          shards,
		Storage:         hybrid.Config{Mode: hybrid.HStorage, CacheBlocks: 4096},
		BufferPoolPages: 512,
		WorkMem:         4096,
		CPUPerTuple:     300 * time.Nanosecond,
		WAL:             wal.Config{SegmentPages: 256, GroupCommitWindow: 50 * time.Microsecond},
	}
}

// watchdog bounds a test that may hang on a wait no detector sees (a
// waits-for cycle through two shards' lock managers; ROADMAP item 1).
// If the returned stop has not been called after d, it panics with every
// shard's waits-for graph and all goroutine stacks, which fails the test
// binary at once instead of at the suite's timeout.
func watchdog(t *testing.T, c *Cluster, d time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(d):
			msg := fmt.Sprintf("%s: still running after %v; waits-for edges (blocked txn -> txns it waits behind):", t.Name(), d)
			for i := 0; i < c.Shards(); i++ {
				msg += fmt.Sprintf("\n  shard %d: %v", i, c.Shard(i).TM.WaitsFor())
			}
			debug.SetTraceback("all")
			panic(msg)
		}
	}()
	return func() { close(done) }
}

// keysOnShards returns one account key per requested shard, in order.
func keysOnShards(t *testing.T, c *Cluster, n int64, shards ...int) []int64 {
	t.Helper()
	out := make([]int64, len(shards))
	for i, want := range shards {
		found := false
		for k := int64(0); k < n; k++ {
			if c.ShardFor(k) == want {
				out[i] = k
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no key on shard %d among %d keys", want, n)
		}
	}
	return out
}

// balanceOf reads one account through a fresh routed transaction.
func balanceOf(t *testing.T, c *Cluster, a *Accounts, key int64) int64 {
	t.Helper()
	rs := c.NewSession()
	tx, err := rs.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	bal, err := a.Balance(tx, key)
	if err != nil {
		t.Fatalf("balance(%d): %v", key, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	return bal
}

func TestShardForDistribution(t *testing.T) {
	c, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for k := int64(0); k < 10000; k++ {
		s := c.ShardFor(k)
		if s2 := c.ShardFor(k); s2 != s {
			t.Fatalf("ShardFor(%d) not deterministic: %d vs %d", k, s, s2)
		}
		counts[s]++
	}
	for i, n := range counts {
		if n < 1500 {
			t.Fatalf("shard %d owns only %d/10000 keys: hash badly skewed (%v)", i, n, counts)
		}
	}
}

func TestSingleShardFastPath(t *testing.T) {
	c, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.LoadAccounts(32, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	rs := c.NewSession()
	tx, err := rs.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Transfer(tx, 1, 2, 30); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := balanceOf(t, c, a, 1); got != 70 {
		t.Fatalf("account 1 balance = %d, want 70", got)
	}
	if got := balanceOf(t, c, a, 2); got != 130 {
		t.Fatalf("account 2 balance = %d, want 130", got)
	}
	// One shard means no transaction ever runs 2PC.
	if st := c.Coordinator().Stats(); st.Commits != 0 || st.Prepares != 0 {
		t.Fatalf("single-shard cluster drove the coordinator: %+v", st)
	}
	if total, err := a.TotalBalance(c.NewSession()); err != nil || total != 3200 {
		t.Fatalf("total = %d (err %v), want 3200", total, err)
	}
}

func TestCrossShardCommit(t *testing.T) {
	c, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.LoadAccounts(64, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := keysOnShards(t, c, 64, 0, 1)
	rs := c.NewSession()
	tx, err := rs.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Transfer(tx, keys[0], keys[1], 25); err != nil {
		t.Fatal(err)
	}
	if len(tx.Parts()) != 2 {
		t.Fatalf("cross-shard transfer enrolled %d participants, want 2", len(tx.Parts()))
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("2pc commit: %v", err)
	}
	if got := balanceOf(t, c, a, keys[0]); got != 75 {
		t.Fatalf("source balance = %d, want 75", got)
	}
	if got := balanceOf(t, c, a, keys[1]); got != 125 {
		t.Fatalf("destination balance = %d, want 125", got)
	}
	st := c.Coordinator().Stats()
	if st.Commits != 1 || st.Prepares != 2 {
		t.Fatalf("coordinator stats = %+v, want 1 commit / 2 prepares", st)
	}
}

// lsmBankConfig is a two-shard cluster on the LSM backend, shaped like
// the bank workload's.
func lsmBankConfig() Config {
	cfg := testConfig(2)
	cfg.Storage.CacheBlocks = 1024
	cfg.Storage.Sched = iosched.Config{BackgroundShare: 0.1}
	cfg.BufferPoolPages = 256
	cfg.Backend = func() pagestore.Backend {
		return lsm.New(lsm.Config{MemtablePages: 64, L0Tables: 4})
	}
	return cfg
}

// TestCrashSweepTransfer kills one shard of a cluster at each of its
// durable block writes in turn (subtest shard<i>/k arms KillAfter(k) on
// shard i, for every k below the clean run's write count there) while a
// cross-shard transfer commits and the cluster checkpoints: the prepare
// and phase-2 log forces, the decision record (shard 0 holds the
// decision log), the checkpoint's write-back (SSTables and manifests on
// the LSM, pages on the heap store) and log pages. It sweeps the LSM
// cluster, then the same cluster on the heap store (subtests under
// "heap/"). After every kill the cluster crashes and recovers. The total
// balance must be conserved, the transfer applied on both shards or on
// neither (on both if Commit succeeded), nothing left in doubt, and a new
// transfer must commit.
func TestCrashSweepTransfer(t *testing.T) {
	heapCfg := lsmBankConfig()
	heapCfg.Backend = func() pagestore.Backend { return pagestore.NewStore() }
	for _, b := range []struct {
		prefix string
		cfg    Config
	}{{"", lsmBankConfig()}, {"heap/", heapCfg}} {
		for victim := 0; victim < 2; victim++ {
			name := fmt.Sprintf("%sshard%d", b.prefix, victim)
			n := crashTransferAt(t, b.cfg, victim, -1)
			for k := int64(0); k < n; k++ {
				t.Run(fmt.Sprintf("%s/%d", name, k), func(t *testing.T) { crashTransferAt(t, b.cfg, victim, k) })
			}
			t.Logf("%s: swept %d kill points", name, n)
		}
	}
}

// crashTransferAt runs the transfer and checkpoint under KillAfter(k) on
// shard victim of a cluster built from cfg and checks the recovery. A
// negative k is the clean run: it must succeed, and it returns the
// durable block writes it made on the victim.
func crashTransferAt(t *testing.T, cfg Config, victim int, k int64) int64 {
	const n, balance, amount = 64, 100, 40
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.LoadAccounts(n, balance, 0)
	if err != nil {
		t.Fatal(err)
	}
	rs := c.NewSession()
	if err := c.Checkpoint(rs); err != nil {
		t.Fatal(err)
	}
	keys := keysOnShards(t, c, n, 0, 1)
	// Both backends embed a pagestore.Cut.
	ls := c.Shard(victim).DB.Store.(interface {
		KillAfter(n int64)
		Writes() int64
		Dead() bool
	})
	base := ls.Writes()
	ls.KillAfter(k)

	tx, err := rs.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Transfer(tx, keys[0], keys[1], amount); err != nil {
		t.Fatal(err)
	}
	commitErr := tx.Commit()
	err = commitErr
	if err == nil {
		err = c.Checkpoint(rs)
	}
	if k < 0 {
		if err != nil {
			t.Fatalf("clean run: %v", err)
		}
		return ls.Writes() - base
	}
	if !errors.Is(err, pagestore.ErrKilled) || !ls.Dead() {
		t.Fatalf("run returned %v (dead=%v), want ErrKilled", err, ls.Dead())
	}
	c.Crash()

	c2, stats, err := Recover(cfg, c.Databases())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if stats.ResolvedCommit+stats.ResolvedAbort != stats.InDoubt {
		t.Fatalf("recovery stats = %+v: not every in-doubt transaction resolved", stats)
	}
	for i := 0; i < c2.Shards(); i++ {
		if d := c2.Shard(i).Log.InDoubt(); len(d) != 0 {
			t.Fatalf("shard %d left in doubt: %+v", i, d)
		}
	}
	a2 := a.Attach(c2)
	src, dst := balanceOf(t, c2, a2, keys[0]), balanceOf(t, c2, a2, keys[1])
	switch {
	case src == balance-amount && dst == balance+amount:
	case src == balance && dst == balance && commitErr != nil:
	default:
		t.Fatalf("balances %d, %d after commit error %v: transfer applied on one shard, or lost", src, dst, commitErr)
	}
	if total, err := a2.TotalBalance(c2.NewSession()); err != nil || total != n*balance {
		t.Fatalf("total = %d (err %v), want %d", total, err, n*balance)
	}
	tx, err = c2.NewSession().Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := a2.Transfer(tx, keys[1], keys[0], 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("transfer after recovery: %v", err)
	}
	if got := balanceOf(t, c2, a2, keys[0]); got != src+1 {
		t.Fatalf("source balance after a new transfer = %d, want %d", got, src+1)
	}
	return 0
}

// TestCheckpointTruncatesDecisionLog: once the decision log rolls past
// its first segment, a cluster checkpoint truncates it, and GTIDs stay
// unique across the truncation and a recovery.
func TestCheckpointTruncatesDecisionLog(t *testing.T) {
	cfg := testConfig(2)
	cfg.WAL.SegmentPages = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.LoadAccounts(64, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := keysOnShards(t, c, 64, 0, 1)
	rs := c.NewSession()
	for i := 0; c.Coordinator().log.Stats().Segments < 3; i++ {
		tx, err := rs.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Transfer(tx, keys[i%2], keys[1-i%2], 1); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
	}
	if err := c.Checkpoint(rs); err != nil {
		t.Fatal(err)
	}
	if got := c.Coordinator().log.Stats().Segments; got != 1 {
		t.Fatalf("decision log holds %d segments after a checkpoint, want 1", got)
	}
	used := c.Coordinator().nextGTID.Load()
	c.Crash()
	c2, _, err := Recover(cfg, c.Databases())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got := c2.Coordinator().log.Stats().Segments; got != 1 {
		t.Fatalf("recovered decision log holds %d segments, want 1", got)
	}
	if got := c2.Coordinator().NextGTID(); got < used {
		t.Fatalf("first GTID after recovery = %d, below the %d already handed out", got, used)
	}
	a2 := a.Attach(c2)
	if total, err := a2.TotalBalance(c2.NewSession()); err != nil || total != 6400 {
		t.Fatalf("total = %d (err %v), want 6400", total, err)
	}
}

// TestCrashAfterDecide covers the decide→phase-2 window: the decision
// record is durable, so the transaction is committed even though no
// participant wrote its local commit record — recovery must resolve
// both in-doubt participants to commit and redo their pages.
func TestCrashAfterDecide(t *testing.T) {
	cfg := testConfig(2)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.LoadAccounts(64, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := keysOnShards(t, c, 64, 0, 1)
	c.Coordinator().CrashAfterDecide()

	rs := c.NewSession()
	tx, err := rs.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Transfer(tx, keys[0], keys[1], 40); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, txn.ErrCrashed) {
		t.Fatalf("commit after armed crash: err = %v, want ErrCrashed", err)
	}

	c2, stats, err := Recover(cfg, c.Databases())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if stats.InDoubt != 2 || stats.ResolvedCommit != 2 || stats.ResolvedAbort != 0 {
		t.Fatalf("recovery stats = %+v, want 2 in-doubt all resolved commit", stats)
	}
	a2 := a.Attach(c2)
	if got := balanceOf(t, c2, a2, keys[0]); got != 60 {
		t.Fatalf("source balance after resolved commit = %d, want 60", got)
	}
	if got := balanceOf(t, c2, a2, keys[1]); got != 140 {
		t.Fatalf("destination balance after resolved commit = %d, want 140", got)
	}
	if total, err := a2.TotalBalance(c2.NewSession()); err != nil || total != 6400 {
		t.Fatalf("total = %d (err %v), want 6400", total, err)
	}
}

// TestParticipantCrashInPhaseTwo covers a participant dying while
// holding prepared locks after the decision committed: shard 1's crash
// harness kills it at its phase-2 commit record, shard 0 commits
// normally, and recovery must bring shard 1 to the same outcome.
func TestParticipantCrashInPhaseTwo(t *testing.T) {
	cfg := testConfig(2)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.LoadAccounts(64, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := keysOnShards(t, c, 64, 0, 1)
	c.Shard(1).TM.CrashAtCommit(1)

	rs := c.NewSession()
	tx, err := rs.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Transfer(tx, keys[0], keys[1], 40); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, txn.ErrCrashed) {
		t.Fatalf("commit with dying participant: err = %v, want ErrCrashed", err)
	}
	// The decision is durable and shard 0 applied its half; shard 1 died
	// holding prepared locks. Take the rest of the cluster down and
	// restart everything.
	c.Crash()

	c2, stats, err := Recover(cfg, c.Databases())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if stats.InDoubt != 1 || stats.ResolvedCommit != 1 {
		t.Fatalf("recovery stats = %+v, want exactly shard 1's txn in doubt, resolved commit", stats)
	}
	a2 := a.Attach(c2)
	if got := balanceOf(t, c2, a2, keys[0]); got != 60 {
		t.Fatalf("source balance = %d, want 60", got)
	}
	if got := balanceOf(t, c2, a2, keys[1]); got != 140 {
		t.Fatalf("destination balance = %d, want 140", got)
	}
}

// TestPrepareFailureAbortsEveryParticipant covers presumed abort: one
// participant's shard dies before Phase 1, so its Prepare fails. Every
// participant still prepares, no decision is made, and the surviving
// participant rolls its row back and releases its locks.
func TestPrepareFailureAbortsEveryParticipant(t *testing.T) {
	for _, tc := range []struct {
		name   string
		failed int
	}{
		{"shard 0 fails", 0},
		{"shard 1 fails", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(testConfig(2))
			if err != nil {
				t.Fatal(err)
			}
			a, err := c.LoadAccounts(64, 100, 0)
			if err != nil {
				t.Fatal(err)
			}
			keys := keysOnShards(t, c, 64, 0, 1)
			tx, err := c.NewSession().Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Transfer(tx, keys[0], keys[1], 40); err != nil {
				t.Fatal(err)
			}
			c.Shard(tc.failed).TM.Crash()
			if err := tx.Commit(); err == nil {
				t.Fatal("commit with a dead participant succeeded")
			}
			if st, want := c.Coordinator().Stats(), (TwoPCStats{Commits: 0, Aborts: 1, Prepares: 2}); st != want {
				t.Fatalf("coordinator stats = %+v, want %+v", st, want)
			}

			// The survivor's row is back at its old value, and a new
			// transaction reads and writes it without waiting on a lock.
			survivor := c.Shard(1 - tc.failed).TM
			key := keys[1-tc.failed]
			waits := survivor.LockStats().Waits
			type result struct {
				bal int64
				err error
			}
			done := make(chan result, 1)
			go func() {
				tx, err := c.NewSession().Begin()
				if err != nil {
					done <- result{err: err}
					return
				}
				bal, err := a.Balance(tx, key)
				if err == nil {
					err = a.Add(tx, key, 1)
				}
				if err == nil {
					err = tx.Commit()
				} else {
					_ = tx.Abort()
				}
				done <- result{bal, err}
			}()
			select {
			case r := <-done:
				if r.err != nil {
					t.Fatalf("new transaction on the survivor: %v", r.err)
				}
				if r.bal != 100 {
					t.Fatalf("survivor balance after presumed abort = %d, want 100", r.bal)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("new transaction still waits on the survivor's row: the aborted participant kept its lock")
			}
			if got := survivor.LockStats().Waits; got != waits {
				t.Fatalf("new transaction waited %d times for a lock, want 0", got-waits)
			}
		})
	}
}

// TestConcurrentTransfersConserveTotal is the race-detector workhorse:
// concurrent workers run mixed single- and cross-shard transfers with a
// checkpoint in between, and the global balance must be conserved.
func TestConcurrentTransfersConserveTotal(t *testing.T) {
	cfg := testConfig(4)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n, balance = 128, 100
	a, err := c.LoadAccounts(n, balance, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer watchdog(t, c, 10*time.Second)()
	res, err := a.RunWorkers(4, 15, 0.5, 7, 0)
	if err != nil {
		t.Fatalf("workers: %v", err)
	}
	if res.Txns != 60 {
		t.Fatalf("completed %d transfers, want 60", res.Txns)
	}
	if res.CrossShard == 0 {
		t.Fatal("no cross-shard transfers at xshard=0.5")
	}
	rs := c.NewSession()
	c.Wait(rs)
	if err := c.Checkpoint(rs); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if _, err := a.RunWorkers(4, 10, 0.5, 8, rs.Now()); err != nil {
		t.Fatalf("post-checkpoint workers: %v", err)
	}
	c.Wait(rs)
	if total, err := a.TotalBalance(rs); err != nil || total != n*balance {
		t.Fatalf("total = %d (err %v), want %d", total, err, n*balance)
	}
	st := c.Coordinator().Stats()
	if st.Commits != res.CrossShard+0 && st.Commits == 0 {
		t.Fatalf("coordinator commits = %d with %d cross-shard transfers", st.Commits, res.CrossShard)
	}
}

// TestRecoverCommittedWorkload crashes the whole cluster after a mixed
// workload (no checkpoint) and verifies recovery redoes every shard's
// committed transfers: the conservation invariant holds over the
// recovered durable state.
func TestRecoverCommittedWorkload(t *testing.T) {
	cfg := testConfig(2)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n, balance = 64, 100
	a, err := c.LoadAccounts(n, balance, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer watchdog(t, c, 10*time.Second)()
	if _, err := a.RunWorkers(2, 12, 0.5, 11, 0); err != nil {
		t.Fatalf("workers: %v", err)
	}
	c.Crash()
	c2, stats, err := Recover(cfg, c.Databases())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if stats.InDoubt != 0 {
		t.Fatalf("clean shutdown left %d in-doubt txns", stats.InDoubt)
	}
	a2 := a.Attach(c2)
	if total, err := a2.TotalBalance(c2.NewSession()); err != nil || total != n*balance {
		t.Fatalf("recovered total = %d (err %v), want %d", total, err, n*balance)
	}
}

// TestPerShardMetricLabels checks the obs plumbing: one registry carries
// each shard's wal series under its own shard label.
func TestPerShardMetricLabels(t *testing.T) {
	cfg := testConfig(2)
	set := obs.NewSet()
	cfg.Obs = set
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.LoadAccounts(64, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := keysOnShards(t, c, 64, 0, 1)
	rs := c.NewSession()
	tx, err := rs.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Transfer(tx, keys[0], keys[1], 5); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, m := range set.Registry().Snapshot() {
		have[m.Name] = true
	}
	for _, want := range []string{
		"wal.appends{shard=0}", "wal.appends{shard=1}",
		"txn.commits{shard=0}", "txn.commits{shard=1}",
	} {
		if !have[want] {
			t.Fatalf("missing per-shard metric %s", want)
		}
	}
}
