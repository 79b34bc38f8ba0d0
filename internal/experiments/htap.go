package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hstoragedb/internal/dss"
	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/heap"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/engine/txn"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/iosched"
	"hstoragedb/internal/tpch"
)

// HTAP experiment arms: the same OLTP mix runs against no analytics at
// all (the interference-free baseline), against serializable 2PL scans
// (shared page + scan locks held to commit), and against MVCC snapshot
// scans (no locks, version-chain reads).
const (
	HTAPBaseline = "baseline"
	HTAPLocked   = "locked"
	HTAPSnapshot = "snapshot"
)

// HTAPArms lists the arms in presentation order.
func HTAPArms() []string { return []string{HTAPBaseline, HTAPLocked, HTAPSnapshot} }

// HTAP tenant bindings: the OLTP mix and the analytics stream run as
// separate tenants with an 8:1 fair-share split, the paper's QoS story
// — transactional traffic keeps its latency target while scans soak the
// leftover bandwidth. The split protects OLTP only from *device*
// interference; what it cannot fix is lock interference, which is the
// arm contrast the experiment measures.
const (
	htapOLTPTenant dss.TenantID = 1
	htapScanTenant dss.TenantID = 2
)

// htapConfig describes the HTAP instance: a txn-grade configuration
// (log class on) whose device scheduler enforces the OLTP-vs-scan
// tenant split. The buffer pool is sized to keep the scanned orders
// heap resident on top of the usual working-set budget — the HTAP
// setup under study caches the shared hot table, so the arms differ by
// concurrency control (lock waits vs version reads), not by who wins
// the device queue on cold page faults.
func (e *Env) htapConfig(mode hybrid.Mode) engine.InstanceConfig {
	ordersPages := int(e.DS.DB.Store.Pages(e.DS.DB.Cat.MustTable("orders").ID))
	cfg := e.baseConfig(mode)
	cfg.Storage.Sched = iosched.Config{
		TenantWeights: map[dss.TenantID]float64{
			htapOLTPTenant: 8,
			htapScanTenant: 1,
		},
	}
	cfg.BufferPoolPages += ordersPages + 16
	return cfg
}

// HTAPRun is the outcome of the HTAP interference experiment under one
// storage configuration and concurrency-control arm: an OLTP mix and a
// stream of analytics sweeps (absent in the baseline arm) share the
// instance, and the run reports both sides' throughput plus the OLTP
// commit-latency tail the analytics induced.
type HTAPRun struct {
	Mode hybrid.Mode
	Arm  string

	// OLTP side: Workers sessions run the transactional mix; commit
	// latency percentiles are measured per transaction on the worker's
	// virtual clock (lock waits are charged to it).
	Workers       int
	Commits       int64
	Retries       int64
	Deadlocks     int64
	CommitP50     time.Duration
	CommitP99     time.Duration
	OLTPElapsed   time.Duration
	CommitsPerSec float64

	// Analytics side: completed revenue sweeps over the scan session's
	// virtual elapsed time. ScanRetries counts deadlock-aborted sweeps
	// (locked arm only).
	Scans       int
	ScanRetries int64
	ScanElapsed time.Duration
	ScansPerSec float64

	// MVCC accounting: snapshot-resolved page reads during the run (0
	// unless an obs registry is attached and the arm takes snapshots)
	// and version-store occupancy after the final checkpoint (must be
	// 0: nothing may leak).
	SnapshotReads int64
	VersionsLeft  int
}

// htapSnapReads reads the cumulative snapshot-read counter, when an obs
// registry is attached (hbench -metrics / -trace); runs report deltas.
func (e *Env) htapSnapReads() int64 {
	if e.Cfg.Obs == nil {
		return 0
	}
	return e.Cfg.Obs.Registry().Counter("bufferpool.snapshot.reads").Value()
}

// RunHTAP runs one arm of the HTAP experiment on one storage
// configuration: workers OLTP sessions each commit txnsPerWorker
// transactions while one analytics session runs scanRounds revenue
// sweeps over the orders heap under the arm's concurrency control.
// Orders is the table the OLTP mix mutates in place (payments rewrite
// o_totalprice) and appends to (new orders), so the locked arm's shared
// page and scan locks collide with writer exclusives in both
// directions, while the snapshot arm reads version chains and never
// waits. All sessions run as a closed population on the device
// scheduler; a session waiting for a page lock or for the log's lock
// parks through its clock, so it cannot stall dispatch.
func (e *Env) RunHTAP(mode hybrid.Mode, arm string, workers, txnsPerWorker, scanRounds int) (HTAPRun, error) {
	run := HTAPRun{Mode: mode, Arm: arm, Workers: workers}
	rig, err := e.newTxnRig(e.htapConfig(mode))
	if err != nil {
		return run, err
	}
	inst, setupSess, tm := rig.inst, rig.sess, rig.tm
	// Warm the orders heap into the pool before measuring (every arm,
	// for comparability): the measured sweeps then read resident pages
	// and the arm contrast is lock waits versus version reads.
	if _, err := e.htapRevenueSweep(setupSess); err != nil {
		return run, err
	}
	inst.ResetStats()
	snapReads0 := e.htapSnapReads()

	grp := inst.Sys.Sched()
	oltpSess := make([]*engine.Session, workers)
	for i := range oltpSess {
		oltpSess[i] = inst.NewSession()
		oltpSess[i].BindTenant(htapOLTPTenant)
		grp.Register(&oltpSess[i].Clk)
	}
	scanSess := inst.NewSession()
	scanSess.BindTenant(htapScanTenant)
	if arm != HTAPBaseline {
		grp.Register(&scanSess.Clk)
	}

	// OLTP workers: one driver per session, timing every transaction on
	// the worker's virtual clock (so lock waits behind sweeps count).
	lats := make([][]time.Duration, workers)
	elapsed := make([]time.Duration, workers)
	drivers := make([]*tpch.OLTP, workers)
	fns := make([]func() error, 0, workers+1)
	for i, sess := range oltpSess {
		drivers[i] = e.DS.NewOLTP(e.Cfg.Seed + int64(i))
		fns = append(fns, func() error {
			defer grp.Unregister(&sess.Clk)
			start := sess.Clk.Now()
			for j := 0; j < txnsPerWorker; j++ {
				t0 := sess.Clk.Now()
				if err := drivers[i].RunTxn(tm, sess, 1); err != nil {
					return fmt.Errorf("htap %s oltp worker %d on %v: %w", arm, i, mode, err)
				}
				lats[i] = append(lats[i], sess.Clk.Now()-t0)
			}
			elapsed[i] = sess.Clk.Now() - start
			return nil
		})
	}

	// Analytics stream: scanRounds revenue sweeps of the orders heap.
	// The locked arm wraps each sweep in a serializable 2PL transaction
	// (the orders scan lock plus a shared lock on every page it reads,
	// all held to commit) and restarts deadlock losses from scratch; the
	// snapshot arm reads its begin-watermark version of every page and
	// never touches the lock manager.
	if arm != HTAPBaseline {
		fns = append(fns, func() error {
			defer grp.Unregister(&scanSess.Clk)
			start := scanSess.Clk.Now()
			for r := 0; r < scanRounds; r++ {
				var err error
				if arm == HTAPLocked {
					err = e.htapLockedSweep(tm, scanSess, &run.ScanRetries)
				} else {
					err = e.htapSnapshotSweep(tm, scanSess)
				}
				if err != nil {
					return fmt.Errorf("htap %s sweep %d on %v: %w", arm, r, mode, err)
				}
				run.Scans++
			}
			run.ScanElapsed = scanSess.Clk.Now() - start
			return nil
		})
	}
	if err := engine.RunStreams(fns...); err != nil {
		return run, err
	}

	settle := inst.NewSession()
	inst.Mgr.Wait(&settle.Clk)

	run.Commits = tm.Commits()
	for _, d := range drivers {
		run.Retries += d.Retries
	}
	run.Deadlocks = tm.LockStats().Deadlocks
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	run.CommitP50 = latPercentile(all, 0.50)
	run.CommitP99 = latPercentile(all, 0.99)
	run.OLTPElapsed = makespan(elapsed...)
	run.CommitsPerSec = perSec(run.Commits, run.OLTPElapsed)
	run.ScansPerSec = perSec(int64(run.Scans), run.ScanElapsed)

	// Drain the version store and verify nothing leaks, then leave the
	// shared dataset consistent for the next run.
	if err := tm.Checkpoint(setupSess); err != nil {
		return run, err
	}
	run.SnapshotReads = e.htapSnapReads() - snapReads0
	run.VersionsLeft = inst.Pool.VersionStats().Versions
	if run.VersionsLeft != 0 {
		return run, fmt.Errorf("htap %s on %v: %d versions leaked past the final checkpoint", arm, mode, run.VersionsLeft)
	}
	return run, rig.close()
}

// htapRevenueSweep scans the full orders heap on the session's stream,
// summing o_totalprice. Under a 2PL transaction the buffer-pool acquire
// hook takes a shared lock on every page touched; under a snapshot the
// pool resolves each page against the transaction's begin watermark.
func (e *Env) htapRevenueSweep(sess *engine.Session) (float64, error) {
	inst := sess.Instance()
	info := e.DS.DB.Cat.MustTable("orders")
	f := heap.NewFile(info.ID, info.Schema, policy.Table)
	sc := f.NewScanner(&sess.Clk, inst.Pool, inst.DB.Store.Pages(info.ID))
	totalCol := info.Schema.MustCol("o_totalprice")
	var revenue float64
	for {
		row, _, ok, err := sc.Next()
		if err != nil {
			return 0, err
		}
		if !ok {
			return revenue, nil
		}
		// Per-tuple processing cost, like the exec layer charges: a
		// sweep of resident pages is CPU work, not free.
		sess.Clk.Advance(inst.Config().CPUPerTuple)
		revenue += row[totalCol].F
	}
}

// htapLockedSweep runs one revenue sweep as a serializable 2PL read
// transaction: the orders scan lock blocks appenders, the per-page
// shared locks block in-place payment updates, and a deadlock loss
// restarts the whole sweep.
func (e *Env) htapLockedSweep(tm *txn.Manager, sess *engine.Session, retries *int64) error {
	ordersObj := e.DS.DB.Cat.MustTable("orders").ID
	return txn.RetryDeadlocks(retries, func() error {
		tx, err := tm.Begin(sess)
		if err != nil {
			return err
		}
		if err := tx.LockScan(ordersObj); err != nil {
			_ = tx.Abort()
			return err
		}
		if _, err := e.htapRevenueSweep(sess); err != nil {
			_ = tx.Abort()
			return err
		}
		return tx.Commit()
	})
}

// htapSnapshotSweep runs one revenue sweep inside a snapshot
// transaction: it observes the commit watermark as of its begin and
// takes no locks.
func (e *Env) htapSnapshotSweep(tm *txn.Manager, sess *engine.Session) error {
	snap := tm.BeginSnapshot(sess)
	_, err := e.htapRevenueSweep(sess)
	if err != nil {
		_ = snap.Abort()
		return err
	}
	return snap.Commit()
}

// HTAPRuns is the HTAP interference report.
type HTAPRuns []HTAPRun

// HTAPAll runs every arm on the SSD-only and hStorage configurations.
func (e *Env) HTAPAll(workers, txnsPerWorker, scanRounds int) (HTAPRuns, error) {
	if workers <= 0 {
		workers = 2
	}
	if txnsPerWorker <= 0 {
		txnsPerWorker = 75
	}
	if scanRounds <= 0 {
		scanRounds = 2
	}
	out := make(HTAPRuns, 0, 6)
	for _, mode := range []hybrid.Mode{hybrid.SSDOnly, hybrid.HStorage} {
		for _, arm := range HTAPArms() {
			run, err := e.RunHTAP(mode, arm, workers, txnsPerWorker, scanRounds)
			if err != nil {
				return nil, err
			}
			out = append(out, run)
		}
	}
	return out, nil
}

// Format renders the HTAP interference table: per mode, the three arms
// side by side with the scan speedup and commit-tail cost of each
// concurrency-control choice.
func (runs HTAPRuns) Format() string {
	var b strings.Builder
	fmt.Fprintln(&b, "HTAP: snapshot scans vs 2PL scans under the OLTP mix")
	fmt.Fprintf(&b, "%-10s %-9s %10s %12s %12s %10s %10s %8s %9s\n",
		"mode", "arm", "commits/s", "commit p50", "commit p99", "scans/s", "scans", "dlocks", "snapreads")
	for _, r := range runs {
		scansPerSec := "-"
		if r.Arm != HTAPBaseline {
			scansPerSec = fmt.Sprintf("%.2f", r.ScansPerSec)
		}
		fmt.Fprintf(&b, "%-10v %-9s %10.0f %12s %12s %10s %10d %8d %9d\n",
			r.Mode, r.Arm, r.CommitsPerSec, fmtLat(r.CommitP50), fmtLat(r.CommitP99),
			scansPerSec, r.Scans, r.Deadlocks, r.SnapshotReads)
	}
	return b.String()
}
