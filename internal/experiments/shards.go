package experiments

import (
	"fmt"
	"strings"
	"time"

	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/obs"
	"hstoragedb/internal/shard"
)

// ShardsRun is the outcome of one shard-scaling sweep point: `Workers`
// concurrent transfer streams over a hash-partitioned cluster of
// `Shards` engine instances, with an `XShard` fraction of transfers
// deliberately crossing shards (and therefore running two-phase commit).
type ShardsRun struct {
	Shards  int
	Workers int
	XShard  float64

	// Txns counts completed transfers; CrossShard the ones that spanned
	// shards; Retries the deadlock losses that were retried.
	Txns       int64
	CrossShard int64
	Retries    int64
	// TwoPCCommits counts coordinator-decided commits (one per
	// cross-shard transfer); LocalCommits the per-shard commit records
	// (a cross-shard transfer contributes one per participant).
	TwoPCCommits int64
	LocalCommits int64

	// Elapsed is the virtual makespan (latest worker clock);
	// TxnsPerSec is Txns over it.
	Elapsed    time.Duration
	TxnsPerSec float64

	// WALAppends/WALFlushes sum every shard's log activity plus the
	// coordinator's decision log — where 2PC's extra records and forces
	// (prepare + decide + phase-2 commit vs one commit) show up.
	WALAppends int64
	WALFlushes int64
}

// Shard-scaling sizing. The sweep scales weakly — every shard brings its
// own fixed slice of accounts along with its fixed buffer pool, SSD
// cache and device pair, the way the paper's LSST target grows (each
// node ingests its own partition of the sky survey). Per-shard hit
// rates and device load are therefore identical at every sweep point,
// so the shard-local arm isolates the partitioning itself: near-linear
// throughput in the shard count, with 2PC the only cross-shard cost.
// (A fixed total dataset would instead scale super-linearly, because
// adding shards also multiplies aggregate cache capacity.) Rows are
// padded so each shard's slice spans ~10x more pages than its pool and
// cache hold — uniform random probes stay I/O-bound on the shard's HDD.
const (
	shardsPerShard = 12288 // accounts per shard (total = shards * this)
	shardsBalance  = 1000  // initial per-account balance
	shardsPad      = 800   // filler bytes per row: ~9 rows/page
	shardsBPPages  = 96    // per-shard buffer pool pages
	shardsCache    = 160   // per-shard SSD cache blocks
	shardsCkptEach = 200   // checkpoint cadence in cluster-wide commits
)

// shardsConfig builds the per-shard stack configuration.
func shardsConfig(shards int, set *obs.Set) shard.Config {
	return shard.Config{
		Shards:          shards,
		Storage:         hybrid.Config{Mode: hybrid.HStorage, CacheBlocks: shardsCache},
		BufferPoolPages: shardsBPPages,
		CPUPerTuple:     cpuPerTuple,
		Obs:             set,
	}
}

// RunShards builds a fresh cluster, loads the partitioned accounts
// table, warms the caches with an unmeasured pass, then measures
// totalTxns transfers across the workers while a background
// checkpointer truncates the per-shard logs. The conservation invariant
// (transfers preserve the total balance) is verified after the run —
// a violation is returned as an error, so every benchmark run is also
// an atomicity check.
func RunShards(shards, workers, totalTxns int, xshard float64, seed int64, set *obs.Set) (ShardsRun, error) {
	run := ShardsRun{Shards: shards, Workers: workers, XShard: xshard}
	c, err := shard.New(shardsConfig(shards, set))
	if err != nil {
		return run, err
	}
	accounts := int64(shards) * shardsPerShard
	a, err := c.LoadAccounts(accounts, shardsBalance, shardsPad)
	if err != nil {
		return run, err
	}

	// Warmup: an unmeasured pass settles the priority caches and the
	// pools, then a checkpoint truncates the logs it produced.
	rs := c.NewSession()
	warm := totalTxns / 4
	if warm < 4*workers {
		warm = 4 * workers
	}
	if _, err := a.RunWorkers(workers, warm/workers+1, xshard, seed+1000, 0); err != nil {
		return run, fmt.Errorf("shards warmup %dx%d: %w", shards, workers, err)
	}
	c.Wait(rs)
	if err := c.Checkpoint(rs); err != nil {
		return run, err
	}
	startAt := c.Wait(rs)

	commits0, appends0, flushes0 := shardsWALTotals(c)
	twopc0 := c.Coordinator().Stats().Commits

	// Background checkpointer: every shardsCkptEach cluster-wide commits
	// it drains routed transactions and truncates every shard's log, as
	// a production cluster would.
	ckptSess := c.NewSession()
	ckptSess.AdvanceTo(startAt)
	stop := checkpointEvery(func() int64 {
		commits, _, _ := shardsWALTotals(c)
		return commits
	}, shardsCkptEach, func() error { return c.Checkpoint(ckptSess) })

	per := totalTxns / workers
	if per < 1 {
		per = 1
	}
	res, err := a.RunWorkers(workers, per, xshard, seed, startAt)
	if cerr := stop(); err == nil {
		err = cerr
	}
	if err != nil {
		return run, fmt.Errorf("shards %dx%d: %w", shards, workers, err)
	}
	c.Wait(rs)

	run.Txns = res.Txns
	run.CrossShard = res.CrossShard
	run.Retries = res.Retries
	run.Elapsed = res.Elapsed
	run.TxnsPerSec = perSec(run.Txns, run.Elapsed)
	commits1, appends1, flushes1 := shardsWALTotals(c)
	run.LocalCommits = commits1 - commits0
	run.WALAppends = appends1 - appends0
	run.WALFlushes = flushes1 - flushes0
	run.TwoPCCommits = c.Coordinator().Stats().Commits - twopc0

	if total, err := a.TotalBalance(rs); err != nil {
		return run, err
	} else if want := accounts * shardsBalance; total != want {
		return run, fmt.Errorf("shards %dx%d: balance not conserved: %d != %d", shards, workers, total, want)
	}
	return run, nil
}

// shardsWALTotals sums local commits and WAL activity across the shards
// plus the coordinator's decision log.
func shardsWALTotals(c *shard.Cluster) (commits, appends, flushes int64) {
	for i := 0; i < c.Shards(); i++ {
		s := c.Shard(i)
		commits += s.TM.Commits()
		st := s.Log.Stats()
		appends += st.Appends
		flushes += st.Flushes
	}
	return commits, appends, flushes
}

// ShardsRuns is the shard-scaling report.
type ShardsRuns []ShardsRun

// ShardsAll sweeps the shard counts, running a shard-local arm
// (xshard 0) and, when xshard > 0, a cross-shard arm per count. The
// worker count and total transfer count stay constant across sweep
// points, so throughput differences measure the partitioning, not the
// offered load.
func ShardsAll(shardCounts []int, workers, totalTxns int, xshard float64, seed int64, set *obs.Set) (ShardsRuns, error) {
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4}
	}
	if workers < 1 {
		workers = 8
	}
	if totalTxns <= 0 {
		totalTxns = 400
	}
	fracs := []float64{0}
	if xshard > 0 {
		fracs = append(fracs, xshard)
	}
	out := make(ShardsRuns, 0, len(shardCounts)*len(fracs))
	for _, frac := range fracs {
		for _, n := range shardCounts {
			run, err := RunShards(n, workers, totalTxns, frac, seed, set)
			if err != nil {
				return nil, err
			}
			out = append(out, run)
		}
	}
	return out, nil
}

// Format renders the shard-scaling report: per arm and shard count,
// transfer throughput with its speedup over the single-shard baseline of
// the same arm, the 2PC share, and the WAL cost per transfer (where the
// prepare/decide/phase-2 overhead is visible).
func (runs ShardsRuns) Format() string {
	var b strings.Builder
	b.WriteString("Shard scaling: hash-partitioned cluster, transfer workload, 2PC for cross-shard transactions\n")
	fmt.Fprintf(&b, "%7s %8s %7s %8s %10s %9s %7s %6s %9s %11s %9s\n",
		"shards", "workers", "xshard", "txns", "txns/s", "speedup", "cross", "2pc", "retries", "wal-app/txn", "flushes")
	base := make(map[float64]float64)
	baseShards := make(map[float64]int)
	for _, r := range runs {
		if n, ok := baseShards[r.XShard]; !ok || r.Shards < n {
			baseShards[r.XShard] = r.Shards
			base[r.XShard] = r.TxnsPerSec
		}
	}
	for _, r := range runs {
		speedup := 0.0
		if b1 := base[r.XShard]; b1 > 0 {
			speedup = r.TxnsPerSec / b1
		}
		perTxn := 0.0
		if r.Txns > 0 {
			perTxn = float64(r.WALAppends) / float64(r.Txns)
		}
		fmt.Fprintf(&b, "%7d %8d %6.0f%% %8d %10.1f %8.2fx %7d %6d %9d %11.1f %9d\n",
			r.Shards, r.Workers, 100*r.XShard, r.Txns, r.TxnsPerSec, speedup,
			r.CrossShard, r.TwoPCCommits, r.Retries, perTxn, r.WALFlushes)
	}
	b.WriteString("speedup is per arm vs its smallest shard count; wal-app/txn = log records per transfer (2PC adds prepare + decide + per-participant commits)\n")
	return b.String()
}
