package shard

import (
	"sync"
	"testing"

	"hstoragedb/internal/simclock"
)

// lastKeysOnShards returns one account key per requested shard, scanning
// from the top of the key space so the picks are disjoint from
// keysOnShards' bottom-up picks.
func lastKeysOnShards(t *testing.T, c *Cluster, n int64, shards ...int) []int64 {
	t.Helper()
	out := make([]int64, len(shards))
	for i, want := range shards {
		found := false
		for k := n - 1; k >= 0; k-- {
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

// TestCrossShardCommitLatencyNotLinear is the acceptance test for
// concurrent prepare issue: under concurrent single-shard load on every
// shard, a cross-shard commit's latency must not grow linearly with the
// participant count. Prepares issued one at a time would each join a
// later group-commit batch on a clock the background writers keep
// advancing, stacking roughly one batch round per participant; issued
// concurrently, all participants join their shard's current batch and
// the phase costs one parallel round, so going from 2 to 4 participants
// must cost far less than the 2x a linear chain would.
func TestCrossShardCommitLatencyNotLinear(t *testing.T) {
	cfg := testConfig(4)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 256
	a, err := c.LoadAccounts(n, 100, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Background: three single-shard writers per shard, keeping every
	// shard's group-commit pipeline busy and its clocks moving. Their
	// keys are disjoint from the probes' so no lock waits pollute the
	// measurement.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	used := make(map[int64]bool)
	for sh := 0; sh < cfg.Shards; sh++ {
		for w := 0; w < 3; w++ {
			key := lastKeysOnShards(t, c, n, sh)[0]
			for used[key] || c.ShardFor(key) != sh {
				key--
			}
			used[key] = true
			wg.Add(1)
			go func(key int64) {
				defer wg.Done()
				rs := c.NewSession()
				for {
					select {
					case <-stop:
						return
					default:
					}
					tx, err := rs.Begin()
					if err != nil {
						return
					}
					if err := a.Add(tx, key, 0); err != nil {
						_ = tx.Abort()
						continue
					}
					_ = tx.Commit()
				}
			}(key)
		}
	}

	// probe measures the mean virtual commit latency of cross-shard
	// transactions touching the given keys (one per shard). Locks are
	// page-granular, so a probe key can share a page with a writer's and
	// lose a deadlock to it: like the writers, the probe aborts and
	// redoes the round.
	probe := func(keys []int64) simclock.Duration {
		rs := c.NewSession()
		const rounds = 25
		const warmup = 5
		var total simclock.Duration
	round:
		for r := -warmup; r < rounds; r++ {
			tx, err := rs.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				err := a.Add(tx, k, 1)
				if IsDeadlock(err) {
					_ = tx.Abort()
					r--
					continue round
				}
				if err != nil {
					t.Fatalf("add(%d): %v", k, err)
				}
			}
			start := rs.Now()
			if err := tx.Commit(); err != nil {
				t.Fatalf("commit: %v", err)
			}
			if r >= 0 {
				// Warmup rounds sync the fresh session's clocks with the
				// background writers' (a new session starts at virtual
				// zero and pays a one-time catch-up on its first batch).
				total += rs.Now() - start
			}
		}
		return total / rounds
	}

	lat2 := probe(keysOnShards(t, c, n, 0, 1))
	lat4 := probe(keysOnShards(t, c, n, 0, 1, 2, 3))
	close(stop)
	wg.Wait()

	if lat2 <= 0 || lat4 <= 0 {
		t.Fatalf("degenerate latencies: lat2=%v lat4=%v", lat2, lat4)
	}
	// Linear scaling would put lat4 near 2*lat2; one parallel prepare
	// round keeps the ratio well under that. The 1.75 threshold leaves
	// room for the extra decide-phase fan-in of two more participants.
	t.Logf("lat2=%v lat4=%v ratio=%.2f", lat2, lat4, float64(lat4)/float64(lat2))
	if float64(lat4) >= 1.75*float64(lat2) {
		t.Fatalf("commit latency scales with participants: 2 shards %v, 4 shards %v (ratio %.2f)",
			lat2, lat4, float64(lat4)/float64(lat2))
	}
}
