package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
	"hstoragedb/internal/engine"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/iosched"
	"hstoragedb/internal/tpch"
)

// ioschedQueries is the per-stream query list of the scheduler
// contention experiment: scan-dominated work (tpch.ScanHeavyQueries)
// that keeps the HDD saturated with low-priority sequential traffic
// while the OLTP stream's pinned log writes fight for the devices. The
// query streams have no transaction bound and take no lock, so they must
// probe no index the OLTP stream inserts into: it edits those leaves in
// place (bufferpool.Pool.Owned). Q14's idx_part_partkey is not one.
var ioschedQueries = tpch.ScanHeavyQueries()

// IOSchedRun is the outcome of the scheduler contention experiment
// under one storage configuration and scheduler setting: concurrent
// query streams plus a transactional OLTP stream, reporting throughput
// and per-class device latency.
type IOSchedRun struct {
	Mode hybrid.Mode
	// Sched is false for the FIFO ablation: same queueing and
	// closed-population contention, but grants in arrival order with
	// no priority, aging, coalescing or readahead.
	Sched bool

	// Streams counts the query streams; Queries the queries completed.
	Streams int
	Queries int
	// Makespan is the latest stream clock after background settle.
	Makespan time.Duration
	// Commits and CommitsPerSec summarize the OLTP stream.
	Commits       int64
	CommitsPerSec float64

	// ClassLat merges both devices' end-to-end latency histograms per
	// class (foreground requests only).
	ClassLat map[dss.Class]device.LatencyHist
	// SchedStats holds the per-device scheduler counters (SSD/HDD
	// attach order; empty histories under the FIFO ablation).
	SchedStats []iosched.Stats
}

// RunIOSched runs the contention workload on one configuration: streams
// query streams (each executing ioschedQueries) and one transactional
// OLTP stream run concurrently as a registered closed population, so
// the device scheduler dispatches their traffic strictly by class
// priority (or in FIFO order when sched is false).
func (e *Env) RunIOSched(mode hybrid.Mode, streams, txns int, sched bool) (IOSchedRun, error) {
	run := IOSchedRun{Mode: mode, Sched: sched, Streams: streams}
	cfg := e.baseConfig(mode)
	cfg.Storage.Sched = iosched.Config{FIFO: !sched}
	rig, err := e.newTxnRig(cfg)
	if err != nil {
		return run, err
	}
	inst, oltpSess, tm := rig.inst, rig.sess, rig.tm

	grp := inst.Sys.Sched()
	sessions := make([]*engine.Session, streams)
	for i := range sessions {
		sessions[i] = inst.NewSession()
		grp.Register(&sessions[i].Clk)
	}
	grp.Register(&oltpSess.Clk)

	var queries atomic.Int64
	fns := make([]func() error, 0, streams+1)
	for i, sess := range sessions {
		fns = append(fns, func() error {
			defer grp.Unregister(&sess.Clk)
			for _, q := range ioschedQueries {
				op, err := e.DS.Query(q, e.Cfg.Seed+int64(i)+1)
				if err != nil {
					return err
				}
				if _, _, err := sess.ExecuteDiscard(op); err != nil {
					return fmt.Errorf("stream %d Q%d on %v: %w", i, q, mode, err)
				}
				queries.Add(1)
			}
			return nil
		})
	}

	driver := e.DS.NewOLTP(e.Cfg.Seed)
	var oltpElapsed time.Duration
	fns = append(fns, func() error {
		defer grp.Unregister(&oltpSess.Clk)
		start := oltpSess.Clk.Now()
		if err := driver.RunTxn(tm, oltpSess, txns); err != nil {
			return fmt.Errorf("oltp on %v: %w", mode, err)
		}
		oltpElapsed = oltpSess.Clk.Now() - start
		return nil
	})
	if err := engine.RunStreams(fns...); err != nil {
		return run, err
	}

	settle := inst.NewSession()
	inst.Mgr.Wait(&settle.Clk)
	run.Queries = int(queries.Load())
	run.Commits = tm.Commits()
	run.CommitsPerSec = perSec(run.Commits, oltpElapsed)
	// The settle clock sits at the post-drain device busy horizon:
	// counting it charges each arm for the background work it deferred,
	// so the scheduler cannot look faster by merely postponing destages.
	clocks := []time.Duration{oltpSess.Clk.Now(), settle.Clk.Now()}
	for _, sess := range sessions {
		clocks = append(clocks, sess.Clk.Now())
	}
	run.Makespan = makespan(clocks...)

	run.ClassLat = make(map[dss.Class]device.LatencyHist)
	for _, dev := range []*device.Device{inst.Sys.SSD(), inst.Sys.HDD()} {
		if dev == nil {
			continue
		}
		for class, h := range dev.Stats().PerClass {
			m := run.ClassLat[dss.Class(class)]
			m.Merge(h)
			run.ClassLat[dss.Class(class)] = m
		}
	}
	for _, s := range grp.Schedulers() {
		run.SchedStats = append(run.SchedStats, s.Stats())
	}
	return run, rig.close()
}

// IOSchedRuns is the scheduler contention report.
type IOSchedRuns []IOSchedRun

// IOSchedAll runs the contention experiment across every storage
// configuration, scheduler on and off.
func (e *Env) IOSchedAll(streams, txns int) (IOSchedRuns, error) {
	if streams <= 0 {
		streams = 2
	}
	if txns <= 0 {
		txns = 200
	}
	out := make(IOSchedRuns, 0, 8)
	for _, mode := range hybrid.Modes() {
		for _, sched := range []bool{false, true} {
			run, err := e.RunIOSched(mode, streams, txns, sched)
			if err != nil {
				return nil, err
			}
			out = append(out, run)
		}
	}
	return out, nil
}

// fmtLat renders a latency with microsecond resolution (fmtDur rounds
// to milliseconds, which flattens SSD-class latencies to zero).
func fmtLat(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

// latClassLabel names a class row of the latency table.
func latClassLabel(c dss.Class) string {
	space := dss.DefaultPolicySpace()
	switch {
	case c == dss.ClassLog:
		return "log"
	case c == dss.ClassWriteBuffer:
		return "write-buffer"
	case c == dss.ClassNone:
		return "none"
	case c == space.Temporary():
		return "temp(1)"
	case c == space.Sequential():
		return "sequential"
	case c == space.Eviction():
		return "eviction"
	default:
		return fmt.Sprintf("prio%d", int(c))
	}
}

// Format renders the scheduler contention report: throughput per
// configuration and the per-class device latency histograms, FIFO vs
// scheduler.
func (runs IOSchedRuns) Format() string {
	var b strings.Builder
	b.WriteString("I/O scheduler contention experiment: concurrent scan streams + OLTP log traffic\n")
	fmt.Fprintf(&b, "%-12s %-6s %10s %12s %12s %12s %12s\n",
		"mode", "sched", "commits/s", "makespan", "log-p50", "log-p99", "log-max")
	for _, r := range runs {
		onOff := "fifo"
		if r.Sched {
			onOff = "on"
		}
		h := r.ClassLat[dss.ClassLog]
		fmt.Fprintf(&b, "%-12s %-6s %10.1f %12s %12s %12s %12s\n",
			r.Mode, onOff, r.CommitsPerSec, fmtDur(r.Makespan),
			fmtLat(h.Quantile(0.50)), fmtLat(h.Quantile(0.99)), fmtLat(h.Max))
	}
	b.WriteString("\nper-class device latency (both devices merged, foreground requests)\n")
	for _, r := range runs {
		onOff := "fifo"
		if r.Sched {
			onOff = "on"
		}
		fmt.Fprintf(&b, "%s, sched=%s:\n", r.Mode, onOff)
		classes := make([]int, 0, len(r.ClassLat))
		for c := range r.ClassLat {
			classes = append(classes, int(c))
		}
		sort.Ints(classes)
		fmt.Fprintf(&b, "  %-14s %10s %12s %12s %12s %12s\n", "class", "requests", "mean", "p50", "p99", "max")
		for _, ci := range classes {
			c := dss.Class(ci)
			h := r.ClassLat[c]
			if h.Count == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-14s %10d %12s %12s %12s %12s\n",
				latClassLabel(c), h.Count, fmtLat(h.Mean()),
				fmtLat(h.Quantile(0.50)), fmtLat(h.Quantile(0.99)), fmtLat(h.Max))
		}
	}
	return b.String()
}
