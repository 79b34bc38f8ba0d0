package experiments

import (
	"fmt"
	"strings"
	"time"

	"hstoragedb/internal/engine/wal"
	"hstoragedb/internal/hybrid"
)

// TxnScaleRun is the outcome of the transaction-scaling experiment under
// one storage configuration and worker count: the transactional OLTP mix
// driven by `Workers` concurrent mutating streams over the page-lock
// concurrency-control layer, with commits batched into shared group
// flushes.
type TxnScaleRun struct {
	Mode    hybrid.Mode
	Workers int

	// Txns counts completed transactions; Commits the durable commits
	// (read-only OrderStatus transactions commit without a log force).
	Txns    int64
	Commits int64
	// DeadlockRetries counts transactions that lost a deadlock, aborted
	// and were retried; AbortRate is their share of all attempts.
	DeadlockRetries int64
	AbortRate       float64

	// Elapsed is the virtual makespan (latest worker clock);
	// CommitsPerSec is Commits over it.
	Elapsed       time.Duration
	CommitsPerSec float64

	// LogFlushes counts the log forces of the measured phase; MeanBatch
	// is commits per force — the group-commit amortization (the log's
	// own batch accounting, over the forces that carried a commit, is
	// GroupCommit).
	LogFlushes  int64
	MeanBatch   float64
	GroupCommit wal.GroupCommitStats
}

// txnScaleCkptEvery is the checkpoint cadence of the scaling runs: a
// background checkpointer truncates the log every this many commits, as
// a production system would, so the pinned log class cannot grow past
// the cache and evict the working set mid-run.
const txnScaleCkptEvery = 200

// RunTxnScale runs the concurrent transactional mix on one configuration
// with the given worker count: each worker drives txnsPerWorker
// transactions on its own session, retrying deadlock losses, while the
// Rule 5 registry sees every mutating stream's footprint and a
// checkpointer periodically takes the drain barrier.
func (e *Env) RunTxnScale(mode hybrid.Mode, workers, txnsPerWorker int) (TxnScaleRun, error) {
	run := TxnScaleRun{Mode: mode, Workers: workers}
	// The scaling sweep runs a production-shaped OLTP configuration:
	// the buffer pool holds the working set (unlike the scan
	// experiments, deliberately pool-starved to exercise the storage
	// system, an OLTP server would thrash under no-steal pins
	// otherwise), and the SSD cache is provisioned for the data plus
	// the pinned log that accumulates between checkpoints.
	bp := int(e.Data) + 2048
	cache := 2 * int(e.Data)
	if c := e.cacheBlocks(); c > cache {
		cache = c
	}
	cfg := e.baseConfig(mode)
	cfg.Storage.CacheBlocks = cache
	cfg.BufferPoolPages = bp
	rig, err := e.newTxnRig(cfg)
	if err != nil {
		return run, err
	}
	inst, sess, log, tm := rig.inst, rig.sess, rig.log, rig.tm

	// Warmup: one unmeasured pass populates the SSD cache and the buffer
	// pool with the mix's working set, then a checkpoint truncates the
	// log it produced and the schedulers settle. The measured phase then
	// exercises steady-state behaviour — its streams continue the warmed
	// system's virtual time — instead of cold-start HDD misses.
	// The warmup must slide the order horizon past the recency window
	// the mix reads (tpch's recent-order span), or the measured phase
	// would reach back into pages no instance of this run ever touched.
	warmup := txnsPerWorker * workers / 2
	if warmup < 600 {
		warmup = 600
	}
	if warmup > 0 {
		if _, err := e.DS.RunOLTPWorkers(tm, inst, workers, warmup/workers+1, e.Cfg.Seed+1000, 0); err != nil {
			return run, fmt.Errorf("txnscale warmup on %v x%d: %w", mode, workers, err)
		}
		if err := tm.Checkpoint(sess); err != nil {
			return run, err
		}
	}
	warmEnd := inst.NewSession()
	inst.Mgr.Wait(&warmEnd.Clk)
	startAt := warmEnd.Clk.Now()
	flushes0 := log.Stats().Flushes
	commits0 := tm.Commits()
	gc0 := tm.GroupCommit()

	// Periodic checkpoints: every txnScaleCkptEvery commits, the
	// checkpointer drains in-flight transactions, flushes committed
	// work and truncates the log (TRIMming its pinned cache blocks).
	ckptSess := inst.NewSession()
	ckptSess.Clk.AdvanceTo(startAt)
	stop := checkpointEvery(tm.Commits, txnScaleCkptEvery, func() error { return tm.Checkpoint(ckptSess) })
	res, err := e.DS.RunOLTPWorkers(tm, inst, workers, txnsPerWorker, e.Cfg.Seed, startAt)
	if cerr := stop(); err == nil {
		err = cerr
	}
	if err != nil {
		return run, fmt.Errorf("txnscale on %v x%d: %w", mode, workers, err)
	}
	settle := inst.NewSession()
	inst.Mgr.Wait(&settle.Clk)

	run.Txns = res.Txns
	run.Commits = tm.Commits() - commits0
	run.DeadlockRetries = res.Retries
	if attempts := res.Txns + res.Retries; attempts > 0 {
		run.AbortRate = float64(res.Retries) / float64(attempts)
	}
	run.Elapsed = res.Elapsed
	run.CommitsPerSec = perSec(run.Commits, run.Elapsed)
	run.LogFlushes = log.Stats().Flushes - flushes0
	if run.LogFlushes > 0 {
		run.MeanBatch = float64(run.Commits) / float64(run.LogFlushes)
	}
	gc := tm.GroupCommit()
	run.GroupCommit = wal.GroupCommitStats{Batches: gc.Batches - gc0.Batches, Txns: gc.Txns - gc0.Txns}

	return run, rig.close()
}

// TxnScaleRuns is the transaction-scaling report.
type TxnScaleRuns []TxnScaleRun

// TxnScaleAll sweeps the worker counts across every storage
// configuration. totalTxns is the per-run transaction count, split
// evenly across the workers: every sweep point performs the same work,
// so throughput differences measure concurrency, not working-set size.
func (e *Env) TxnScaleAll(workers []int, totalTxns int) (TxnScaleRuns, error) {
	if len(workers) == 0 {
		workers = []int{1, 2, 4, 8}
	}
	if totalTxns <= 0 {
		totalTxns = 400
	}
	out := make(TxnScaleRuns, 0, len(workers)*4)
	for _, mode := range hybrid.Modes() {
		for _, w := range workers {
			per := totalTxns / w
			if per < 1 {
				per = 1
			}
			run, err := e.RunTxnScale(mode, w, per)
			if err != nil {
				return nil, err
			}
			out = append(out, run)
		}
	}
	return out, nil
}

// Format renders the transaction-scaling report: per mode and worker
// count, commit throughput with its speedup over the single worker,
// group-commit amortization and deadlock abort rate.
func (runs TxnScaleRuns) Format() string {
	var b strings.Builder
	b.WriteString("Transaction scaling: concurrent mutating streams under page-lock 2PL + batched group commit\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %12s %10s %10s %10s %10s %10s\n",
		"mode", "workers", "txns", "commits/s", "speedup", "batch", "gc-batch", "retries", "abort%")
	// Speedups are relative to the smallest worker count present per
	// mode (usually 1, but the sweep list is caller-chosen).
	base := make(map[hybrid.Mode]float64)
	baseWorkers := make(map[hybrid.Mode]int)
	for _, r := range runs {
		if w, ok := baseWorkers[r.Mode]; !ok || r.Workers < w {
			baseWorkers[r.Mode] = r.Workers
			base[r.Mode] = r.CommitsPerSec
		}
	}
	for _, r := range runs {
		speedup := 0.0
		if b1 := base[r.Mode]; b1 > 0 {
			speedup = r.CommitsPerSec / b1
		}
		fmt.Fprintf(&b, "%-12s %8d %8d %12.1f %9.2fx %10.2f %10.2f %10d %9.1f%%\n",
			r.Mode, r.Workers, r.Txns, r.CommitsPerSec, speedup,
			r.MeanBatch, r.GroupCommit.MeanBatch(), r.DeadlockRetries, 100*r.AbortRate)
	}
	b.WriteString("batch = commits per log force; gc-batch = commit records per force that carried one (the log's group commit)\n")
	return b.String()
}
