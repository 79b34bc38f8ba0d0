package shard

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"hstoragedb/internal/engine/txn"
)

// maxDeadlockRetries bounds how often one logical transfer is retried
// after losing a (shard-local) deadlock before the error surfaces.
const maxDeadlockRetries = 50

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
	var (
		res    WorkersResult
		mu     sync.Mutex
		wg     sync.WaitGroup
		runErr error
	)
	sessions := make([]*Session, workers)
	for i := range sessions {
		sessions[i] = a.c.NewSession()
		sessions[i].AdvanceTo(startAt)
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(41000 + seed + int64(i)))
			var txns, cross, retries int64
			for k := 0; k < txnsPerWorker; k++ {
				wasCross, r, err := a.runTransfer(sessions[i], rng, xshard)
				retries += r
				if err != nil {
					mu.Lock()
					if runErr == nil {
						runErr = err
					}
					mu.Unlock()
					break
				}
				txns++
				if wasCross {
					cross++
				}
			}
			mu.Lock()
			res.Txns += txns
			res.CrossShard += cross
			res.Retries += retries
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if runErr != nil {
		return res, runErr
	}
	for _, s := range sessions {
		if t := s.Now() - startAt; t > res.Elapsed {
			res.Elapsed = t
		}
	}
	return res, nil
}

// runTransfer performs one unit transfer between distinct random
// accounts — same-shard by default, cross-shard with probability xshard
// (when the cluster has more than one shard) — retrying deadlock losses
// with the same pair.
func (a *Accounts) runTransfer(rs *Session, rng *rand.Rand, xshard float64) (cross bool, retries int64, err error) {
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
	for try := 0; ; try++ {
		t, berr := rs.Begin()
		if berr != nil {
			return cross, retries, berr
		}
		err = a.Transfer(t, from, to, 1)
		if err == nil {
			err = t.Commit()
		} else {
			_ = t.Abort()
		}
		if err == nil || !errors.Is(err, txn.ErrDeadlock) || try >= maxDeadlockRetries {
			return cross, retries, err
		}
		retries++
		// Let the conflicting transactions drain before retrying.
		runtime.Gosched()
	}
}
