package experiments

import (
	"fmt"
	"sync"
	"time"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/txn"
	"hstoragedb/internal/engine/wal"
)

// txnRig is the transactional harness the engine-level runners share: an
// instance over the environment's dataset with a fresh WAL and a
// transaction manager, an initial checkpoint behind it and its counters
// zeroed. sess is the setup session; it owns the log.
type txnRig struct {
	e    *Env
	inst *engine.Instance
	sess *engine.Session
	log  *wal.Manager
	tm   *txn.Manager
}

// oltpWALConfig sizes the log for the experiment scale.
func oltpWALConfig() wal.Config {
	return wal.Config{SegmentPages: 256, GroupCommitWindow: 50 * time.Microsecond}
}

func (e *Env) newTxnRig(cfg engine.InstanceConfig) (*txnRig, error) {
	inst, err := e.DS.DB.NewInstance(cfg)
	if err != nil {
		return nil, err
	}
	sess := inst.NewSession()
	log, err := wal.New(&sess.Clk, inst.Mgr, oltpWALConfig())
	if err != nil {
		return nil, err
	}
	r := &txnRig{e: e, inst: inst, sess: sess, log: log, tm: txn.NewManager(inst, log)}
	if err := r.tm.Checkpoint(sess); err != nil {
		return nil, err
	}
	inst.ResetStats()
	return r, nil
}

// close leaves the shared dataset consistent for the next run: what the
// run committed is flushed (dropping the log over dirty frames would keep
// whichever pages happened to be evicted and lose the rest — a torn store
// for the next run to open), the order key allocator is reset past the
// durable orders and the WAL objects are dropped. After a crash, sess and
// log are the recovered ones and recovery has already redone the store.
func (r *txnRig) close() error {
	if !r.tm.Dead() {
		if err := r.tm.Checkpoint(r.sess); err != nil {
			return err
		}
	}
	if err := r.e.DS.RecomputeNextOrderKey(r.sess); err != nil {
		return err
	}
	return r.log.Destroy(&r.sess.Clk)
}

// checkpointEvery starts a background checkpointer, as a production
// system would run one: whenever commits() has advanced by n since the
// last checkpoint it calls ckpt, which drains in-flight transactions and
// truncates the log, so the pinned log class cannot outgrow the cache
// mid-run. The returned stop ends it and reports its error, if any.
func checkpointEvery(commits func() int64, n int64, ckpt func() error) (stop func() error) {
	quit := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		var last int64
		for {
			select {
			case <-quit:
				done <- nil
				return
			default:
			}
			if c := commits(); c-last >= n {
				if err := ckpt(); err != nil {
					done <- fmt.Errorf("checkpointer: %w", err)
					return
				}
				last = c
			} else {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	return func() error {
		close(quit)
		return <-done
	}
}

// runStreams runs every stream on its own goroutine, waits for all of
// them and returns the first error any reported.
func runStreams(streams ...func() error) error {
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for _, stream := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := stream(); err != nil {
				once.Do(func() { first = err })
			}
		}()
	}
	wg.Wait()
	return first
}

// perSec is the rate of n events over the simulated interval d, 0 for an
// empty one.
func perSec(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) * float64(time.Second) / float64(d)
}

// makespan is the latest of the given stream clocks.
func makespan(clocks ...time.Duration) time.Duration {
	var latest time.Duration
	for _, t := range clocks {
		if t > latest {
			latest = t
		}
	}
	return latest
}

// latPercentile returns the q-quantile of a sorted latency slice.
func latPercentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}
