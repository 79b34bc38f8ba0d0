package shard

import (
	"testing"

	"hstoragedb/internal/simclock"
)

// topKeysOnShard returns the count highest account keys owned by shard,
// scanning down from the top of the key space so the picks are disjoint
// from keysOnShards' bottom-up picks.
func topKeysOnShard(t *testing.T, c *Cluster, n int64, shard, count int) []int64 {
	t.Helper()
	var out []int64
	for k := n - 1; k >= 0 && len(out) < count; k-- {
		if c.ShardFor(k) == shard {
			out = append(out, k)
		}
	}
	if len(out) < count {
		t.Fatalf("only %d keys on shard %d among %d keys, want %d", len(out), shard, n, count)
	}
	return out
}

// heapPageOf returns the heap page holding key's row.
func heapPageOf(t *testing.T, c *Cluster, a *Accounts, key int64) int64 {
	t.Helper()
	tx, err := c.NewSession().Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tx.Abort() }()
	p, err := tx.ForKey(key)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := a.lookup(p, key)
	if err != nil {
		t.Fatal(err)
	}
	return rid.Page
}

// TestCrossShardCommitLatencyNotLinear is the acceptance test for the
// coordinator's prepare phase: under single-shard load on every shard, a
// 4-participant commit must cost well under twice a 2-participant one.
//
// Everything runs on the test goroutine, in virtual time. Each round the
// probe updates one row per participant shard, then, before its commit,
// every background writer (three per shard, each on its own session)
// commits one single-shard update with its clock set to the probe's
// start. The probe's forces therefore queue behind the same three writer
// forces on every shard, whatever the host's scheduling. Writer rows and
// probe rows sit on different heap pages (checked first), so no lock
// waits: a wait would hang the one goroutine.
//
// The bound. Each participant prepares on its own shard's clock from the
// commit's start, so phase 1 costs one round: on identically loaded
// shards the slowest of two prepares and of four take equally long, as
// do the decision force and the parallel phase-2 commit forces, so
// lat4 = lat2 (633.752 µs each with this configuration). A coordinator
// that chained its prepares, starting each at the previous one's
// completion, pays at least one lone prepare force f per participant
// after the first: lat_k >= L + (k-1)f, with L the one-round cost. Here
// f = 83.438 µs, so chaining gives lat2 = 717.190 µs, lat4 = 884.066 µs,
// a ratio of 1.23. The 1.1 bound fails that coordinator and passes the
// one-round one; a bound above 1.23 would pass both.
func TestCrossShardCommitLatencyNotLinear(t *testing.T) {
	cfg := testConfig(4)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 1000 filler bytes put about eight rows on an 8 KB heap page, so
	// each shard's ~64 rows span several pages: its lowest key (the
	// probe's) and its three highest (the writers') land on different
	// ones.
	const n, pad = 256, 1000
	a, err := c.LoadAccounts(n, 100, pad)
	if err != nil {
		t.Fatal(err)
	}

	type writer struct {
		key int64
		rs  *Session
	}
	var writers []writer
	for sh := 0; sh < cfg.Shards; sh++ {
		probeKey := keysOnShards(t, c, n, sh)[0]
		probePage := heapPageOf(t, c, a, probeKey)
		for _, key := range topKeysOnShard(t, c, n, sh, 3) {
			if pg := heapPageOf(t, c, a, key); pg == probePage {
				t.Fatalf("shard %d: writer key %d shares heap page %d with probe key %d",
					sh, key, pg, probeKey)
			}
			writers = append(writers, writer{key: key, rs: c.NewSession()})
		}
	}

	// commitWriters runs one single-shard commit per writer, each starting
	// at virtual time start.
	commitWriters := func(start simclock.Duration) {
		for _, w := range writers {
			if now := w.rs.Now(); now > start {
				t.Fatalf("writer on key %d is at %v, past the probe's start %v", w.key, now, start)
			}
			w.rs.AdvanceTo(start)
			tx, err := w.rs.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Add(tx, w.key, 0); err != nil {
				t.Fatalf("writer add(%d): %v", w.key, err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("writer commit: %v", err)
			}
		}
	}

	// probe measures the mean virtual commit latency of cross-shard
	// transactions touching the given keys (one per shard). Its session
	// starts where the writers have got to, so no writer is ever ahead
	// of a probe's start.
	probe := func(keys []int64) simclock.Duration {
		rs := c.NewSession()
		for _, w := range writers {
			rs.AdvanceTo(w.rs.Now())
		}
		const rounds = 25
		const warmup = 5
		var total simclock.Duration
		for r := -warmup; r < rounds; r++ {
			tx, err := rs.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				if err := a.Add(tx, k, 1); err != nil {
					t.Fatalf("add(%d): %v", k, err)
				}
			}
			start := rs.Now()
			commitWriters(start)
			if err := tx.Commit(); err != nil {
				t.Fatalf("commit: %v", err)
			}
			if r >= 0 {
				// Warmup rounds keep first-use costs out of the mean:
				// the cluster's first cross-shard commit costs about
				// 120 µs more than every later one.
				total += rs.Now() - start
			}
		}
		return total / rounds
	}

	lat2 := probe(keysOnShards(t, c, n, 0, 1))
	lat4 := probe(keysOnShards(t, c, n, 0, 1, 2, 3))

	if lat2 <= 0 || lat4 <= 0 {
		t.Fatalf("degenerate latencies: lat2=%v lat4=%v", lat2, lat4)
	}
	t.Logf("lat2=%v lat4=%v ratio=%.2f", lat2, lat4, float64(lat4)/float64(lat2))
	if float64(lat4) >= 1.1*float64(lat2) {
		t.Fatalf("commit latency scales with participants: 2 shards %v, 4 shards %v (ratio %.2f)",
			lat2, lat4, float64(lat4)/float64(lat2))
	}
}
