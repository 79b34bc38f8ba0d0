package experiments

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"hstoragedb/internal/dss"
	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/btree"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/heap"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/engine/storagemgr"
	"hstoragedb/internal/engine/txn"
	"hstoragedb/internal/engine/wal"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/tpch"
)

// OLTPRun is the outcome of the transactional OLTP mix under one storage
// configuration and log-classification setting: a measured commit phase,
// then a crash injected mid-stream and a recovery by a fresh instance.
type OLTPRun struct {
	Mode     hybrid.Mode
	LogClass bool // log traffic classified under dss.ClassLog?

	// Measured phase.
	Commits       int64
	Elapsed       time.Duration
	CommitsPerSec float64
	Storage       hybrid.Snapshot
	TypeStats     map[policy.RequestType]storagemgr.TypeStats
	Log           wal.Stats

	// Crash + recovery phase.
	RecoveryTime    time.Duration
	Recovery        wal.RecoveryStats
	RecoveredOrders int // committed NewOrder keys verified present
	LostOrders      int // uncommitted keys verified absent
}

// RunOLTP runs the transactional OLTP mix on one storage configuration:
// txns transactions are committed and measured, then a crash is injected
// during a stream of NewOrders and a fresh instance recovers from the
// WAL. Recovery is verified through index lookups and heap fetches: every
// committed order must be present with its lineitems, the loser's order
// must be absent.
func (e *Env) RunOLTP(mode hybrid.Mode, txns int, logClass bool) (OLTPRun, error) {
	run := OLTPRun{Mode: mode, LogClass: logClass}
	cfg := e.baseConfig(mode)
	if !logClass {
		cfg.Ablation = policy.NoLogClass
	}
	rig, err := e.newTxnRig(cfg)
	if err != nil {
		return run, err
	}
	inst, sess, tm := rig.inst, rig.sess, rig.tm

	// Measured phase.
	driver := e.DS.NewOLTP(e.Cfg.Seed)
	start := sess.Clk.Now()
	if err := driver.RunTxn(tm, sess, txns); err != nil {
		return run, fmt.Errorf("oltp on %v: %w", mode, err)
	}
	inst.Mgr.Wait(&sess.Clk)
	run.Commits = tm.Commits()
	run.Elapsed = sess.Clk.Now() - start
	run.CommitsPerSec = perSec(run.Commits, run.Elapsed)
	run.Storage = inst.Sys.Stats()
	run.TypeStats = inst.Mgr.TypeStats()
	run.Log = rig.log.Stats()

	// Crash phase: the 5th NewOrder commit from here dies between its
	// page records and its commit record.
	tm.CrashAtCommit(5)
	err = driver.RunNewOrdersTxn(tm, sess, 50)
	if !errors.Is(err, txn.ErrCrashed) {
		if err == nil {
			return run, fmt.Errorf("oltp on %v: crash harness never fired", mode)
		}
		return run, err
	}
	tm.Crash()

	// Restart: a fresh instance over the surviving page store.
	rig.inst, err = e.DS.DB.NewInstance(cfg)
	if err != nil {
		return run, err
	}
	rig.sess = rig.inst.NewSession()
	var rstats *wal.RecoveryStats
	rig.log, rstats, err = wal.Recover(&rig.sess.Clk, rig.inst.Mgr, wal.DefaultConfig())
	if err != nil {
		return run, err
	}
	run.Recovery = *rstats
	run.RecoveryTime = rstats.Elapsed

	present, absent, err := verifyRecovered(rig.sess, e.DS, driver.Committed, driver.Lost)
	if err != nil {
		return run, fmt.Errorf("recovery verification on %v: %w", mode, err)
	}
	run.RecoveredOrders, run.LostOrders = present, absent
	return run, rig.close()
}

// verifyRecovered checks the recovery contract on a fresh instance:
// committed orders (and at least one lineitem each) are reachable through
// the indexes, lost orders are not.
func verifyRecovered(sess *engine.Session, ds *tpch.Dataset, committed, lost []int64) (present, absent int, err error) {
	inst := sess.Instance()
	ordersInfo := ds.DB.Cat.MustTable("orders")
	lineInfo := ds.DB.Cat.MustTable("lineitem")
	ordersFile := heap.NewFile(ordersInfo.ID, ordersInfo.Schema, policy.Table)
	lineFile := heap.NewFile(lineInfo.ID, lineInfo.Schema, policy.Table)
	ixOrders := btree.Open(ds.DB.Cat.MustIndex("idx_orders_orderkey").ID, inst.Pool)
	ixLineOK := btree.Open(ds.DB.Cat.MustIndex("idx_lineitem_orderkey").ID, inst.Pool)

	var rids []catalog.RID // reused by every lookup
	fetchKey := func(key int64) (bool, error) {
		var err error
		if rids, err = ixOrders.Lookup(&sess.Clk, key, 0, rids[:0]...); err != nil {
			return false, err
		}
		for _, rid := range rids {
			row, err := ordersFile.Fetch(&sess.Clk, inst.Pool, rid, 0)
			if err != nil {
				return false, err
			}
			if row != nil && row[0].I == key {
				return true, nil
			}
		}
		return false, nil
	}

	for _, key := range committed {
		ok, err := fetchKey(key)
		if err != nil {
			return present, absent, err
		}
		if !ok {
			return present, absent, fmt.Errorf("committed order %d missing after recovery", key)
		}
		if rids, err = ixLineOK.Lookup(&sess.Clk, key, 0, rids[:0]...); err != nil {
			return present, absent, err
		}
		lines := 0
		for _, rid := range rids {
			row, err := lineFile.Fetch(&sess.Clk, inst.Pool, rid, 0)
			if err != nil {
				return present, absent, err
			}
			if row != nil {
				lines++
			}
		}
		if lines == 0 {
			return present, absent, fmt.Errorf("committed order %d lost its lineitems", key)
		}
		present++
	}
	for _, key := range lost {
		ok, err := fetchKey(key)
		if err != nil {
			return present, absent, err
		}
		if ok {
			return present, absent, fmt.Errorf("uncommitted order %d visible after recovery", key)
		}
		absent++
	}
	return present, absent, nil
}

// OLTPRuns is the transactional OLTP report.
type OLTPRuns []OLTPRun

// OLTPAll runs the transactional mix under all four storage
// configurations, each with and without the log classification.
func (e *Env) OLTPAll(txns int) (OLTPRuns, error) {
	if txns <= 0 {
		txns = 150
	}
	out := make(OLTPRuns, 0, 8)
	for _, mode := range hybrid.Modes() {
		for _, logClass := range []bool{true, false} {
			run, err := e.RunOLTP(mode, txns, logClass)
			if err != nil {
				return nil, err
			}
			out = append(out, run)
		}
	}
	return out, nil
}

// Format renders the transactional OLTP report: commit throughput and
// recovery time per configuration, plus the log class counters that show
// where the log I/O landed.
func (runs OLTPRuns) Format() string {
	var b strings.Builder
	b.WriteString("OLTP extension (Section 8): transactional mix, commit throughput and crash recovery\n")
	fmt.Fprintf(&b, "%-12s %-9s %12s %12s %12s %10s %10s %12s\n",
		"mode", "log-class", "commits/s", "elapsed", "recovery", "replayed", "log-writes", "log-SSD-hits")
	for _, r := range runs {
		lc := "off"
		if r.LogClass {
			lc = "on"
		}
		logCS := r.Storage.Class(dss.ClassLog)
		fmt.Fprintf(&b, "%-12s %-9s %12.1f %12s %12s %10d %10d %12d\n",
			r.Mode, lc, r.CommitsPerSec, fmtDur(r.Elapsed), fmtDur(r.RecoveryTime),
			r.Recovery.PagesApplied, logCS.WriteBlocks, logCS.WriteHits)
	}
	b.WriteString("recovery verified: committed orders present, crashed transactions absent\n")
	return b.String()
}
