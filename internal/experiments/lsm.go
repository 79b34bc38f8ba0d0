package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"hstoragedb/internal/dss"
	"hstoragedb/internal/engine/txn"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/iosched"
	"hstoragedb/internal/lsm"
	"hstoragedb/internal/obs"
	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/shard"
)

// LSMRun is the outcome of the backend experiment on one arm: a
// write-heavy OLTP mix (single-row balance updates) over one engine
// instance mounted on the given storage backend, with per-transaction
// foreground latency recorded at commit.
type LSMRun struct {
	// Arm names the configuration: "heap" (extent store baseline),
	// "lsm" (LSM backend, maintenance under ClassCompaction), or
	// "lsm-nocls" (ablation: maintenance under the write-buffer class,
	// polluting the cache the way a classification-unaware stack would).
	Arm string

	// Txns counts committed update transactions; Retries the deadlock
	// losses that were retried.
	Txns    int64
	Retries int64
	// Elapsed is the virtual makespan; CommitsPerSec is Txns over it.
	Elapsed       time.Duration
	CommitsPerSec float64
	// P50/P99 are foreground transaction latencies (admission to
	// durable commit, virtual time) over the measured phase.
	P50 time.Duration
	P99 time.Duration

	// Backend maintenance during the measured phase: memtable flushes,
	// compaction sweeps and their block traffic (all zero on the heap).
	Flushes               int64
	Compactions           int64
	FlushWriteBlocks      int64
	CompactionReadBlocks  int64
	CompactionWriteBlocks int64
	TrimBlocks            int64
	// WriteAmp is the compaction write amplification: total maintenance
	// writes over the flushed pages, (flush + compaction) / flush.
	// 1.0 means no compaction ran; 0 means nothing flushed (heap).
	WriteAmp float64

	// Cache-level mechanism counters (measured-phase deltas). The
	// classification's effect shows up here deterministically, before
	// any latency it causes: CompactionClassBlocks counts blocks the
	// storage system served under dss.ClassCompaction (zero in the
	// ablation arm, whose maintenance rides the write-buffer class);
	// CacheWriteAllocs and CacheEvictions count flash-cache write
	// admissions and evictions — the ablation arm's maintenance writes
	// are admitted and then evict resident foreground blocks, which is
	// exactly the pollution the compaction class exists to prevent.
	CompactionClassBlocks int64
	CacheWriteAllocs      int64
	CacheEvictions        int64
}

// Backend-experiment sizing: one shard whose accounts slice spans ~10x
// its buffer pool, so the update stream continuously destages dirty
// pages into the backend, and an LSM geometry small enough that the
// measured phase covers several flush/compaction cycles.
const (
	lsmAccounts  = 8192 // rows; with lsmPad, ~10x the pool in pages
	lsmBalance   = 1000
	lsmPad       = 800 // filler bytes per row: ~9 rows/page
	lsmBPPages   = 96
	lsmCache     = 160
	lsmCkptEach  = 150     // checkpoint cadence in commits
	lsmMemtable  = 64      // pages buffered before a flush
	lsmL0Tables  = 4       // flushes before a compaction
	lsmProbeLats = 1 << 16 // latency sample cap per run
)

// lsmArm describes one configuration of the sweep.
type lsmArm struct {
	name    string
	backend func() pagestore.Backend // nil = heap
	noClass bool
}

func lsmArms() []lsmArm {
	mk := func() pagestore.Backend {
		return lsm.New(lsm.Config{MemtablePages: lsmMemtable, L0Tables: lsmL0Tables})
	}
	return []lsmArm{
		{name: "heap"},
		{name: "lsm", backend: mk},
		{name: "lsm-nocls", backend: mk, noClass: true},
	}
}

// runLSMArm builds a fresh single-shard cluster on the arm's backend,
// loads the accounts table, warms up, then measures totalTxns update
// transactions across the workers while a background checkpointer
// truncates the log (each checkpoint also syncs the backend, so LSM
// flushes ride the same cadence a production system would force).
func runLSMArm(arm lsmArm, workers, totalTxns int, seed int64, set *obs.Set) (LSMRun, error) {
	run := LSMRun{Arm: arm.name}
	c, err := shard.New(shard.Config{
		Shards: 1,
		Storage: hybrid.Config{
			Mode:        hybrid.HStorage,
			CacheBlocks: lsmCache,
			// A tight background budget keeps compaction sweeps from
			// crowding the device during their bursts — the regime the
			// compaction class is designed for. Both arms run under the
			// same budget; only the classification differs.
			Sched: iosched.Config{BackgroundShare: 0.1},
		},
		BufferPoolPages:        lsmBPPages,
		WorkMem:                4096,
		CPUPerTuple:            300 * time.Nanosecond,
		WAL:                    oltpWALConfig(),
		Obs:                    set,
		Backend:                arm.backend,
		DisableCompactionClass: arm.noClass,
	})
	if err != nil {
		return run, err
	}
	a, err := c.LoadAccounts(lsmAccounts, lsmBalance, lsmPad)
	if err != nil {
		return run, err
	}

	rs := c.NewSession()
	warm := totalTxns / 4
	if warm < 4*workers {
		warm = 4 * workers
	}
	warmTxns, _, _, _, err := lsmWorkers(c, a, workers, warm/workers+1, seed+1000, 0)
	if err != nil {
		return run, fmt.Errorf("lsm warmup %s: %w", arm.name, err)
	}
	c.Wait(rs)
	if err := c.Checkpoint(rs); err != nil {
		return run, err
	}
	startAt := c.Wait(rs)

	mgr := c.Shard(0).Inst.Mgr
	maint0 := mgr.MaintStats()
	sys0 := c.Shard(0).Inst.Sys.Stats()
	tm := c.Shard(0).TM

	ckptSess := c.NewSession()
	ckptSess.AdvanceTo(startAt)
	stop := checkpointEvery(tm.Commits, lsmCkptEach, func() error { return c.Checkpoint(ckptSess) })

	per := totalTxns / workers
	if per < 1 {
		per = 1
	}
	txns, retries, elapsed, lats, err := lsmWorkers(c, a, workers, per, seed, startAt)
	if cerr := stop(); err == nil {
		err = cerr
	}
	if err != nil {
		return run, fmt.Errorf("lsm %s: %w", arm.name, err)
	}
	c.Wait(rs)

	run.Txns = txns
	run.Retries = retries
	run.Elapsed = elapsed
	run.CommitsPerSec = perSec(txns, elapsed)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	run.P50 = latPercentile(lats, 0.50)
	run.P99 = latPercentile(lats, 0.99)
	maint := mgr.MaintStats()
	run.Flushes = maint.Flushes - maint0.Flushes
	run.Compactions = maint.Compactions - maint0.Compactions
	run.FlushWriteBlocks = maint.FlushWriteBlocks - maint0.FlushWriteBlocks
	run.CompactionReadBlocks = maint.CompactionReadBlocks - maint0.CompactionReadBlocks
	run.CompactionWriteBlocks = maint.CompactionWriteBlocks - maint0.CompactionWriteBlocks
	run.TrimBlocks = maint.TrimBlocks - maint0.TrimBlocks
	if run.FlushWriteBlocks > 0 {
		run.WriteAmp = float64(run.FlushWriteBlocks+run.CompactionWriteBlocks) / float64(run.FlushWriteBlocks)
	}
	sys := c.Shard(0).Inst.Sys.Stats()
	run.CompactionClassBlocks = sys.PerClass[dss.ClassCompaction].AccessedBlocks -
		sys0.PerClass[dss.ClassCompaction].AccessedBlocks
	run.CacheWriteAllocs = sys.WriteAllocs - sys0.WriteAllocs
	run.CacheEvictions = sys.Evictions - sys0.Evictions

	// Every unit update added 1: the final total audits atomicity.
	if total, err := a.TotalBalance(rs); err != nil {
		return run, err
	} else if want := lsmAccounts*lsmBalance + txns + warmTxns; total != want {
		return run, fmt.Errorf("lsm %s: balance drifted: %d != %d", arm.name, total, want)
	}
	return run, nil
}

// lsmWorkers drives `workers` concurrent update streams: each performs
// txnsPerWorker single-row balance increments on uniformly random
// accounts, recording the foreground latency (Begin to durable commit,
// virtual time) of every measured transaction. Deadlock losses retry
// transparently.
func lsmWorkers(c *shard.Cluster, a *shard.Accounts, workers, txnsPerWorker int, seed int64, startAt time.Duration) (txns, retries int64, elapsed time.Duration, lats []time.Duration, err error) {
	if workers < 1 {
		workers = 1
	}
	var mu sync.Mutex
	sessions := make([]*shard.Session, workers)
	fns := make([]func() error, workers)
	for i := range sessions {
		rs := c.NewSession()
		rs.AdvanceTo(startAt)
		sessions[i] = rs
		fns[i] = func() error {
			rng := rand.New(rand.NewSource(73000 + seed + int64(i)))
			var n, r int64
			mine := make([]time.Duration, 0, txnsPerWorker)
			var uerr error
			for k := 0; k < txnsPerWorker; k++ {
				lat, rr, err := lsmUpdate(rs, a, rng.Int63n(a.N))
				r += rr
				if err != nil {
					uerr = err
					break
				}
				n++
				mine = append(mine, lat)
			}
			mu.Lock()
			txns += n
			retries += r
			if len(lats) < lsmProbeLats {
				lats = append(lats, mine...)
			}
			mu.Unlock()
			return uerr
		}
	}
	if err := runStreams(fns...); err != nil {
		return txns, retries, 0, lats, err
	}
	for _, s := range sessions {
		elapsed = makespan(elapsed, s.Now()-startAt)
	}
	return txns, retries, elapsed, lats, nil
}

// lsmUpdate runs one unit increment, retrying deadlock losses with the
// same key, and returns the virtual latency of the successful attempt.
func lsmUpdate(rs *shard.Session, a *shard.Accounts, key int64) (time.Duration, int64, error) {
	var retries int64
	for {
		t, err := rs.Begin()
		if err != nil {
			return 0, retries, err
		}
		// The latency clock starts at admission: Begin blocks on the
		// cluster's checkpoint drain barrier, a stall every arm pays
		// identically, which would otherwise bury the backend-dependent
		// tail (cache-miss reads, group-commit forces) under it.
		start := rs.Now()
		err = a.Add(t, key, 1)
		if err == nil {
			err = t.Commit()
		} else {
			_ = t.Abort()
		}
		if err == nil {
			return rs.Now() - start, retries, nil
		}
		if !errors.Is(err, txn.ErrDeadlock) || retries >= 50 {
			return 0, retries, err
		}
		retries++
		runtime.Gosched()
	}
}

// LSMRuns is the storage-backend report.
type LSMRuns []LSMRun

// LSMAll runs the backend sweep: the heap baseline, the LSM backend
// with classified maintenance, and the unclassified ablation.
func LSMAll(workers, totalTxns int, seed int64, set *obs.Set) (LSMRuns, error) {
	if workers < 1 {
		workers = 8
	}
	if totalTxns <= 0 {
		totalTxns = 600
	}
	var out LSMRuns
	for _, arm := range lsmArms() {
		run, err := runLSMArm(arm, workers, totalTxns, seed, set)
		if err != nil {
			return nil, err
		}
		out = append(out, run)
	}
	return out, nil
}

// Format renders the backend report: per arm, commit throughput,
// foreground latency percentiles, and the maintenance traffic where
// compaction classification earns (or, ablated, loses) its keep.
func (runs LSMRuns) Format() string {
	var b strings.Builder
	b.WriteString("Storage backends: write-heavy OLTP on heap vs LSM, with and without compaction classification\n")
	fmt.Fprintf(&b, "%-10s %8s %12s %10s %10s %8s %6s %8s %8s %8s %6s\n",
		"arm", "txns", "commits/s", "p50", "p99", "flushes", "compc", "wr-amp", "trims", "evict", "retry")
	for _, r := range runs {
		fmt.Fprintf(&b, "%-10s %8d %12.1f %10v %10v %8d %6d %8.2f %8d %8d %6d\n",
			r.Arm, r.Txns, r.CommitsPerSec, r.P50, r.P99,
			r.Flushes, r.Compactions, r.WriteAmp, r.TrimBlocks, r.CacheEvictions, r.Retries)
	}
	b.WriteString("wr-amp = (flush + compaction writes) / flush writes; evict = flash-cache evictions during the measured phase.\n")
	b.WriteString("lsm-nocls submits maintenance under the write-buffer class: its writes are admitted to the cache and evict resident foreground blocks (pollution ablation)\n")
	return b.String()
}
