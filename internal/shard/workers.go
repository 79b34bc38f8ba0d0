package shard

import (
	"math/rand"
	"time"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/txn"
)

// WorkersResult summarizes one multi-worker transfer run.
type WorkersResult struct {
	// Txns counts completed transfers; CrossShard the ones that spanned
	// shards and therefore ran two-phase commit.
	Txns       int64
	CrossShard int64
	// Retries counts deadlock aborts that were retried.
	Retries int64
	// Elapsed is the latest worker clock past startAt: the virtual
	// makespan of the concurrent run.
	Elapsed time.Duration
}

// RunWorkers drives `workers` concurrent transfer streams: each worker
// gets its own routed session (all per-shard clocks started at startAt)
// and performs txnsPerWorker unit transfers between uniformly random
// accounts, a `xshard` fraction of them deliberately cross-shard. The
// workers' traffic dispatches opportunistically: no closed scheduler
// population, because BENCH_shards.json and BENCH_lsm.json were produced
// that way (a worker blocked on a page lock would park, not stall the
// barrier). Deadlock losses retry transparently; the first other error
// stops the run.
func (a *Accounts) RunWorkers(workers, txnsPerWorker int, xshard float64, seed int64, startAt time.Duration) (WorkersResult, error) {
	if workers < 1 {
		workers = 1
	}
	sessions := make([]*Session, workers)
	counts := make([]WorkersResult, workers)
	streams := make([]func() error, workers)
	for i := range sessions {
		sessions[i] = a.c.NewSession()
		sessions[i].AdvanceTo(startAt)
		streams[i] = func() error {
			rng := rand.New(rand.NewSource(41000 + seed + int64(i)))
			n := &counts[i]
			for k := 0; k < txnsPerWorker; k++ {
				wasCross, err := a.runTransfer(sessions[i], rng, xshard, &n.Retries)
				if err != nil {
					return err
				}
				n.Txns++
				if wasCross {
					n.CrossShard++
				}
			}
			return nil
		}
	}
	err := engine.RunStreams(streams...)
	var res WorkersResult
	for i, n := range counts {
		res.Txns += n.Txns
		res.CrossShard += n.CrossShard
		res.Retries += n.Retries
		res.Elapsed = max(res.Elapsed, sessions[i].Now()-startAt)
	}
	return res, err
}

// runTransfer performs one unit transfer between distinct random
// accounts — same-shard by default, cross-shard with probability xshard
// (when the cluster has more than one shard) — retrying deadlock losses
// with the same pair and counting them in *retries.
func (a *Accounts) runTransfer(rs *Session, rng *rand.Rand, xshard float64, retries *int64) (cross bool, err error) {
	from := rng.Int63n(a.N)
	cross = len(a.c.shards) > 1 && rng.Float64() < xshard
	var to int64
	for {
		to = rng.Int63n(a.N)
		if to == from {
			continue
		}
		if (a.c.ShardFor(to) == a.c.ShardFor(from)) != cross {
			break
		}
	}
	return cross, txn.RetryDeadlocks(retries, func() error {
		t, err := rs.Begin()
		if err != nil {
			return err
		}
		if err := a.Transfer(t, from, to, 1); err != nil {
			_ = t.Abort()
			return err
		}
		return t.Commit()
	})
}
