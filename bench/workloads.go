package main

// workloads are the five rows of the benchmark. Names are fixed: later
// issues cite them. Every one is a closed loop: one or two callers, each
// sending its next request when it has the reply to the last.
var workloads = []workload{
	{
		name: "tpch_power",
		why:  "paper Table 8: RF1 + 22 queries + RF2 on data larger than pool and cache; exec, btree, bufferpool misses and the priority cache work, wal/txn/lsm/shard idle",
		// One chunk is the whole power sequence: 24 ops, ≈5 s of host time.
		chunksAtRef: 8,
		chunkOps:    func(scale) int { return 24 },
		lruChunks:   1,
		lruCheck:    true,
		expectS:     75,
		setup:       func(p params) (env, error) { return setupTPCH(p, false) },
	},
	{
		name: "tpch_scan",
		why:  "Rule 1 traffic only (Q1 Q5 Q6 Q11 Q19, nothing spills): the cache is bypassed, so hybrid or btree changes must show no change while exec, heap scans and HDD readahead dominate",
		// One chunk is the five queries: ≈0.65 s of host time.
		chunksAtRef: 30,
		chunkOps:    func(scale) int { return len(scanQueries) },
		lruChunks:   1,
		lruCheck:    true,
		expectS:     35,
		setup:       func(p params) (env, error) { return setupTPCH(p, true) },
	},
	{
		name: "oltp_1w",
		why:  "one session of NewOrder/Payment/OrderStatus over a pool far smaller than the data: wal, txn, uncontended locks, pinned log class and write buffer work; exec idles; deterministic",
		// ≈5 k ops/s of host time.
		chunksAtRef: 60,
		chunkOps:    func(s scale) int { return s.pick(1000, 20) },
		lruChunks:   5,
		expectS:     30,
		setup:       func(p params) (env, error) { return setupOLTP(p, 1) },
	},
	{
		name:        "oltp_2w",
		why:         "the same mix from two concurrent sessions with the pool holding the data: lock waits, deadlock retries, group commit and scheduler contention; the only workload with real concurrency",
		chunksAtRef: 50,
		chunkOps:    func(s scale) int { return 2 * s.pick(1000, 20) },
		expectS:     35,
		setup:       func(p params) (env, error) { return setupOLTP(p, 2) },
	},
	{
		name: "bank_lsm",
		why:  "deposits and transfers on two shards over the LSM backend: flushes, compaction under the background budget and 2PC do the work here and none elsewhere; one session, deterministic",
		// ≈3.9 k ops/s of host time.
		chunksAtRef: 60,
		chunkOps:    bankChunkOps,
		expectS:     35,
		setup:       setupBank,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
