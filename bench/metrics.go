package main

import (
	"sort"
	"time"
)

// metricDef names one metric. Bound is the share of the baseline's
// median an end-to-end metric may get worse by before a change counts as
// a regression (per-layer metrics have none). The lists below are the
// source BENCHMARK.json is checked against by the tests.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a user of the system would see. Two clocks are kept
// apart in every name: sim_* is what the modelled SSD+HDD system takes
// (the paper's metric), host_* what this Go program costs to run.
var endToEnd = []metricDef{
	{"sim_ops_per_s", "1/s", "higher", 0.10},
	{"sim_op_mid_ms", "ms", "lower", 0.10},
	{"sim_op_tail_ms", "ms", "lower", 0.10},
	{"dev_blocks_per_op", "blocks/op", "lower", 0.05},
	{"host_ms_per_op", "ms", "lower", 0.20},
	{"host_allocs_per_op", "count", "lower", 0.10},
	{"host_alloc_kb_per_op", "KB", "lower", 0.10},
	{"host_live_heap_mb", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

func boundOf(name string) float64 {
	for _, d := range endToEnd {
		if d.Name == name {
			return d.Bound
		}
	}
	return 0
}

// perLayer lists the single-layer metrics. S = public Stats() delta of
// the untraced run, T = traced pass, P = probe pass.
var perLayer = []metricDef{
	// exec
	{Name: "exec.host_plan_us_per_op", Unit: "us", Better: "lower"},       // T wall span around Dataset.Query
	{Name: "exec.host_run_ms_per_op", Unit: "ms", Better: "lower"},        // T wall span around ExecuteDiscard
	{Name: "exec.sim_residual_ms_per_op", Unit: "ms", Better: "lower"},    // T op latency not covered by a wait span
	{Name: "exec.rows_per_op", Unit: "count", Better: "higher"},           // S
	{Name: "bufferpool.gets_per_op", Unit: "count", Better: "lower"},      // S
	{Name: "bufferpool.hit_ratio", Unit: "ratio", Better: "higher"},       // S
	{Name: "bufferpool.evictions_per_op", Unit: "count", Better: "lower"}, // S
	{Name: "bufferpool.writebacks_per_op", Unit: "count", Better: "lower"},
	{Name: "bufferpool.sim_miss_fill_ms_per_op", Unit: "ms", Better: "lower"}, // T bufferpool/miss.fill
	{Name: "bufferpool.versions_end", Unit: "count", Better: "lower"},
	{Name: "bufferpool.version_kb_end", Unit: "KB", Better: "lower"},
	{Name: "bufferpool.probe_get_hit_ns", Unit: "ns", Better: "lower"}, // P
	{Name: "bufferpool.probe_get_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "bufferpool.probe_put_ns", Unit: "ns", Better: "lower"},
	{Name: "bufferpool.probe_get_allocs", Unit: "count", Better: "lower"},
	// btree / heap (P)
	{Name: "btree.probe_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.probe_insert_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.probe_lookup_allocs", Unit: "count", Better: "lower"},
	{Name: "btree.probe_pages_per_lookup", Unit: "count", Better: "lower"},
	{Name: "heap.probe_scan_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "heap.probe_fetch_ns", Unit: "ns", Better: "lower"},
	{Name: "heap.probe_scan_allocs_per_row", Unit: "count", Better: "lower"},
	// policy / storagemgr
	{Name: "storagemgr.req_share.sequential", Unit: "ratio", Better: "lower"}, // S TypeStats, Figure 4
	{Name: "storagemgr.req_share.random", Unit: "ratio", Better: "lower"},
	{Name: "storagemgr.req_share.temp", Unit: "ratio", Better: "lower"},
	{Name: "storagemgr.req_share.update", Unit: "ratio", Better: "lower"},
	{Name: "storagemgr.req_share.log", Unit: "ratio", Better: "lower"},
	{Name: "policy.probe_assign_ns", Unit: "ns", Better: "lower"},
	// hybrid (S Snapshot)
	{Name: "hybrid.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "hybrid.rand_read_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "hybrid.temp_read_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "hybrid.log_write_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "hybrid.read_allocs_per_op", Unit: "blocks/op", Better: "lower"},
	{Name: "hybrid.write_allocs_per_op", Unit: "blocks/op", Better: "lower"},
	{Name: "hybrid.bypasses_per_op", Unit: "blocks/op", Better: "lower"},
	{Name: "hybrid.evictions_per_op", Unit: "blocks/op", Better: "lower"},
	{Name: "hybrid.dirty_evictions_per_op", Unit: "blocks/op", Better: "lower"},
	{Name: "hybrid.wb_flushes_per_op", Unit: "count", Better: "lower"},
	{Name: "hybrid.trimmed_per_op", Unit: "blocks/op", Better: "higher"},
	{Name: "hybrid.cached_blocks_end", Unit: "blocks", Better: "higher"},
	{Name: "hybrid.gain_vs_lru", Unit: "ratio", Better: "higher"}, // LRU arm simulated time ÷ hStorage's, same ops
	{Name: "hybrid.probe_submit_ns", Unit: "ns", Better: "lower"},
	{Name: "hybrid.probe_submit_allocs", Unit: "count", Better: "lower"},
	// iosched (S per device)
	{Name: "iosched.ssd.submitted_per_op", Unit: "count", Better: "lower"},
	{Name: "iosched.ssd.coalesced_ratio", Unit: "ratio", Better: "higher"},
	{Name: "iosched.ssd.boosted", Unit: "count", Better: "lower"},
	{Name: "iosched.ssd.max_queue", Unit: "count", Better: "lower"},
	{Name: "iosched.ssd.background_blocks_per_op", Unit: "blocks/op", Better: "lower"},
	{Name: "iosched.hdd.submitted_per_op", Unit: "count", Better: "lower"},
	{Name: "iosched.hdd.coalesced_ratio", Unit: "ratio", Better: "higher"},
	{Name: "iosched.hdd.boosted", Unit: "count", Better: "lower"},
	{Name: "iosched.hdd.max_queue", Unit: "count", Better: "lower"},
	{Name: "iosched.hdd.background_blocks_per_op", Unit: "blocks/op", Better: "lower"},
	{Name: "iosched.hdd.prefetch_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "iosched.sim_queue_wait_ms_per_op", Unit: "ms", Better: "lower"}, // T iosched/queue.wait
	{Name: "iosched.probe_submit_ns", Unit: "ns", Better: "lower"},
	// device (S)
	{Name: "device.ssd.blocks_read_per_op", Unit: "blocks/op", Better: "lower"},
	{Name: "device.ssd.blocks_written_per_op", Unit: "blocks/op", Better: "lower"},
	{Name: "device.ssd.util", Unit: "ratio", Better: "lower"},
	{Name: "device.hdd.blocks_read_per_op", Unit: "blocks/op", Better: "lower"},
	{Name: "device.hdd.blocks_written_per_op", Unit: "blocks/op", Better: "lower"},
	{Name: "device.hdd.util", Unit: "ratio", Better: "lower"},
	{Name: "device.hdd.seq_ratio", Unit: "ratio", Better: "higher"},
	{Name: "device.write_blocks_per_op", Unit: "blocks/op", Better: "lower"}, // SSD + HDD: write cost, flash wear
	{Name: "device.log_latency_p50_us", Unit: "us", Better: "lower"},
	{Name: "device.log_latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "device.sim_service_ms_per_op", Unit: "ms", Better: "lower"}, // T device/service
	// wal
	{Name: "wal.appends_per_op", Unit: "count", Better: "lower"},
	{Name: "wal.flushes_per_op", Unit: "count", Better: "lower"},
	{Name: "wal.page_writes_per_op", Unit: "count", Better: "lower"},
	{Name: "wal.checkpoints", Unit: "count", Better: "lower"},
	{Name: "wal.sim_flush_ms_per_op", Unit: "ms", Better: "lower"},       // T wal/flush
	{Name: "wal.sim_checkpoint_ms_total", Unit: "ms", Better: "lower"},   // T wal/checkpoint
	{Name: "wal.sim_recovery_ms", Unit: "ms", Better: "lower"},           // post-crash recovery, simulated
	{Name: "wal.recovery_records", Unit: "count", Better: "lower"},       // RecoveryStats
	{Name: "wal.recovery_pages_applied", Unit: "count", Better: "lower"}, // RecoveryStats
	{Name: "wal.probe_append_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.probe_append_allocs", Unit: "count", Better: "lower"},
	// txn
	{Name: "txn.commits", Unit: "count", Better: "higher"},
	{Name: "txn.aborts", Unit: "count", Better: "lower"},
	{Name: "txn.group_batch_mean", Unit: "count", Better: "higher"},
	{Name: "txn.sim_groupcommit_ms_per_op", Unit: "ms", Better: "lower"}, // T txn/groupcommit
	{Name: "txn.host_begin_us", Unit: "us", Better: "lower"},             // T wall span
	{Name: "txn.host_commit_us", Unit: "us", Better: "lower"},            // T wall span
	// lockmgr
	{Name: "lockmgr.acquired_per_op", Unit: "count", Better: "lower"},
	{Name: "lockmgr.wait_ratio", Unit: "ratio", Better: "lower"},
	{Name: "lockmgr.deadlocks_per_kop", Unit: "count", Better: "lower"},
	{Name: "lockmgr.upgrades_per_op", Unit: "count", Better: "lower"},
	{Name: "lockmgr.retries_per_kop", Unit: "count", Better: "lower"},
	{Name: "lockmgr.probe_acquire_release_ns", Unit: "ns", Better: "lower"},
	// lsm (S MaintStats summed over shards)
	{Name: "lsm.flushes", Unit: "count", Better: "lower"},
	{Name: "lsm.compactions", Unit: "count", Better: "lower"},
	{Name: "lsm.write_amp", Unit: "ratio", Better: "lower"},
	{Name: "lsm.compaction_read_blocks_per_op", Unit: "blocks/op", Better: "lower"},
	{Name: "lsm.trim_blocks_per_op", Unit: "blocks/op", Better: "higher"},
	{Name: "lsm.compaction_class_blocks_per_op", Unit: "blocks/op", Better: "lower"},
	{Name: "lsm.probe_write_ns", Unit: "ns", Better: "lower"},
	{Name: "lsm.probe_read_ns", Unit: "ns", Better: "lower"},
	// shard
	{Name: "shard.xshard_ratio", Unit: "ratio", Better: "lower"},
	{Name: "shard.prepares_per_op", Unit: "count", Better: "lower"},
	{Name: "shard.twopc_commits", Unit: "count", Better: "higher"},
	{Name: "shard.sim_commit_2pc_p50_ms", Unit: "ms", Better: "lower"},   // T
	{Name: "shard.sim_commit_local_p50_ms", Unit: "ms", Better: "lower"}, // T
	{Name: "shard.host_commit_2pc_us", Unit: "us", Better: "lower"},      // T wall span
	{Name: "shard.host_commit_local_us", Unit: "us", Better: "lower"},    // T wall span
	{Name: "shard.in_doubt_resolved", Unit: "count", Better: "higher"},
	// pagestore
	{Name: "pagestore.total_pages_end", Unit: "pages", Better: "lower"},
	{Name: "pagestore.growth_pages_per_kop", Unit: "pages", Better: "lower"},
	// obs / host
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "obs.spans_per_op", Unit: "count", Better: "lower"},
	{Name: "obs.dropped_spans", Unit: "count", Better: "lower"},
	{Name: "host.wall_s", Unit: "s", Better: "lower"},
	{Name: "host.cpu_s", Unit: "s", Better: "lower"},
	{Name: "host.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "host.calib_ms_median", Unit: "ms", Better: "lower"},
	{Name: "host.calib_spread_pct", Unit: "%", Better: "lower"},
	{Name: "host.sim_s_per_wall_s", Unit: "ratio", Better: "higher"},
	{Name: "host.failed_ops_pct", Unit: "%", Better: "lower"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndMetrics derives the end-to-end set from the untraced phase.
func endToEndMetrics(ph *phase, lats []time.Duration, r *result, setupS, heapMB, recoveryMs float64) map[string]float64 {
	ops := float64(r.Ops)
	c := ph.counts
	devBlocks := c["dev.ssd.blocks_read"] + c["dev.ssd.blocks_written"] + c["dev.hdd.blocks_read"] + c["dev.hdd.blocks_written"]
	return map[string]float64{
		"sim_ops_per_s":        ratio(ops, ph.simElapsed.Seconds()),
		"sim_op_mid_ms":        ms(midmean(lats)),
		"sim_op_tail_ms":       ms(tailMean(lats, r.TailPct)),
		"dev_blocks_per_op":    devBlocks / ops,
		"host_ms_per_op":       trimmedMean(ph.chunkMs) * float64(len(ph.chunkMs)) / ops,
		"host_allocs_per_op":   float64(ph.host.mallocs) / ops,
		"host_alloc_kb_per_op": float64(ph.host.allocBytes) / 1024 / ops,
		"host_live_heap_mb":    heapMB,
		"setup_s":              setupS,
		// Not in BENCHMARK.json's end_to_end (null on the workloads
		// without a log, and a healthy run's failure share is 0, which a
		// relative bound cannot hold); printed beside it all the same.
		"sim_op_p50_ms":   ms(percentile(lats, 50)),
		"sim_recovery_ms": recoveryMs,
		"failed_ops_pct":  r.failedPct(),
	}
}

// layerMetrics derives the per-layer set: S from the untraced phase's
// counter deltas, T from the traced pass, the closing act's own numbers,
// and the LRU arm's gain. Probe metrics are merged in by the caller.
func layerMetrics(ph, tp *phase, tr *tracing, lru *phase, fin closing, r *result) map[string]float64 {
	m := zeroes(perLayer)
	c := ph.counts
	ops := float64(r.Ops)
	per := func(key string) float64 { return c[key] / ops }
	sim := float64(ph.simElapsed)

	var rows int64
	for _, l := range ph.lanes {
		for _, n := range l.rows {
			rows += n
		}
	}
	m["exec.rows_per_op"] = float64(rows) / ops

	gets := c["pool.hits"] + c["pool.misses"]
	m["bufferpool.gets_per_op"] = gets / ops
	m["bufferpool.hit_ratio"] = ratio(c["pool.hits"], gets)
	m["bufferpool.evictions_per_op"] = per("pool.evictions")
	m["bufferpool.writebacks_per_op"] = per("pool.writebacks")
	m["bufferpool.versions_end"] = c["pool.versions_end"]
	m["bufferpool.version_kb_end"] = c["pool.version_bytes_end"] / 1024

	reqs := c["req.sequential"] + c["req.random"] + c["req.temporary"] + c["req.update"] + c["req.log"]
	m["storagemgr.req_share.sequential"] = ratio(c["req.sequential"], reqs)
	m["storagemgr.req_share.random"] = ratio(c["req.random"], reqs)
	m["storagemgr.req_share.temp"] = ratio(c["req.temporary"], reqs)
	m["storagemgr.req_share.update"] = ratio(c["req.update"], reqs)
	m["storagemgr.req_share.log"] = ratio(c["req.log"], reqs)

	m["hybrid.hit_ratio"] = ratio(c["cache.hits"], c["cache.hits"]+c["cache.misses"])
	m["hybrid.rand_read_hit_ratio"] = ratio(c["cache.rand_read_hits"], c["cache.rand_read_blocks"])
	m["hybrid.temp_read_hit_ratio"] = ratio(c["cache.temp_read_hits"], c["cache.temp_read_blocks"])
	m["hybrid.log_write_hit_ratio"] = ratio(c["cache.log_write_hits"], c["cache.log_write_blocks"])
	m["hybrid.read_allocs_per_op"] = per("cache.read_allocs")
	m["hybrid.write_allocs_per_op"] = per("cache.write_allocs")
	m["hybrid.bypasses_per_op"] = per("cache.bypasses")
	m["hybrid.evictions_per_op"] = per("cache.evictions")
	m["hybrid.dirty_evictions_per_op"] = per("cache.dirty_evictions")
	m["hybrid.wb_flushes_per_op"] = per("cache.wb_flushes")
	m["hybrid.trimmed_per_op"] = per("cache.trimmed")
	m["hybrid.cached_blocks_end"] = c["cache.cached_blocks_end"]
	if lru != nil {
		var base, ref time.Duration
		for i, d := range lru.chunkSim {
			ref += d
			base += ph.chunkSim[i]
		}
		m["hybrid.gain_vs_lru"] = ratio(float64(ref), float64(base))
	}

	for _, dev := range []string{"ssd", "hdd"} {
		s, d := "sched."+dev+".", "dev."+dev+"."
		m["iosched."+dev+".submitted_per_op"] = per(s + "submitted")
		m["iosched."+dev+".coalesced_ratio"] = ratio(c[s+"coalesced"], c[s+"coalesced"]+c[s+"granted"])
		m["iosched."+dev+".boosted"] = c[s+"boosted"]
		m["iosched."+dev+".max_queue"] = c[s+"queue_max"]
		m["iosched."+dev+".background_blocks_per_op"] = per(s + "background_blocks")
		m["device."+dev+".blocks_read_per_op"] = per(d + "blocks_read")
		m["device."+dev+".blocks_written_per_op"] = per(d + "blocks_written")
		m["device."+dev+".util"] = ratio(c[d+"busy_ns"], sim)
	}
	m["iosched.hdd.prefetch_hit_ratio"] = ratio(c["sched.hdd.prefetch_hits"], c["sched.hdd.prefetch_blocks"])
	m["device.hdd.seq_ratio"] = ratio(c["dev.hdd.seq"], c["dev.hdd.seq"]+c["dev.hdd.rand"])
	m["device.write_blocks_per_op"] = per("dev.ssd.blocks_written") + per("dev.hdd.blocks_written")
	m["device.log_latency_p50_us"] = c["dev.log_p50_us_end"]
	m["device.log_latency_p99_us"] = c["dev.log_p99_us_end"]

	m["wal.appends_per_op"] = per("wal.appends")
	m["wal.flushes_per_op"] = per("wal.flushes")
	m["wal.page_writes_per_op"] = per("wal.page_writes")
	m["wal.checkpoints"] = c["wal.checkpoints"]
	m["wal.sim_recovery_ms"] = fin.recoveryMs
	m["txn.commits"] = c["txn.commits"]
	m["txn.aborts"] = c["txn.aborts"]
	m["txn.group_batch_mean"] = ratio(c["txn.gc_txns"], c["txn.gc_batches"])
	m["lockmgr.acquired_per_op"] = per("lock.acquired")
	m["lockmgr.wait_ratio"] = ratio(c["lock.waits"], c["lock.acquired"])
	m["lockmgr.deadlocks_per_kop"] = 1000 * per("lock.deadlocks")
	m["lockmgr.upgrades_per_op"] = per("lock.upgrades")
	m["lockmgr.retries_per_kop"] = 1000 * per("driver.retries")

	m["lsm.flushes"] = c["maint.flushes"]
	m["lsm.compactions"] = c["maint.compactions"]
	m["lsm.write_amp"] = ratio(c["maint.flush_write_blocks"]+c["maint.compaction_write_blocks"], c["maint.flush_write_blocks"])
	m["lsm.compaction_read_blocks_per_op"] = per("maint.compaction_read_blocks")
	m["lsm.trim_blocks_per_op"] = per("maint.trim_blocks")
	m["lsm.compaction_class_blocks_per_op"] = per("cache.compaction_blocks")
	m["shard.xshard_ratio"] = ratio(c["twopc.commits"]+c["twopc.aborts"], ops)
	m["shard.prepares_per_op"] = per("twopc.prepares")
	m["shard.twopc_commits"] = c["twopc.commits"]

	m["pagestore.total_pages_end"] = c["store.pages_end"]
	m["pagestore.growth_pages_per_kop"] = 1000 * per("store.pages")

	// T: simulated span time summed per name over the traced chunks
	// (inclusive: a queue wait inside a miss fill is in both), and the
	// benchmark's own wall spans.
	tops := 0.0
	samples := make(map[string][]time.Duration)
	for _, l := range tp.lanes {
		tops += float64(len(l.lat))
		for name, ds := range l.samples {
			samples[name] = append(samples[name], ds...)
		}
	}
	p50 := func(name string) float64 {
		ds := samples[name]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ms(percentile(ds, 50))
	}
	m["shard.sim_commit_2pc_p50_ms"] = p50("commit.2pc")
	m["shard.sim_commit_local_p50_ms"] = p50("commit.local")
	simPer := func(name string) float64 { return ms(tr.agg.byName[name]) / tops }
	m["bufferpool.sim_miss_fill_ms_per_op"] = simPer("bufferpool/miss.fill")
	m["iosched.sim_queue_wait_ms_per_op"] = simPer("iosched/queue.wait")
	m["device.sim_service_ms_per_op"] = simPer("device/service")
	m["wal.sim_flush_ms_per_op"] = simPer("wal/flush")
	m["wal.sim_checkpoint_ms_total"] = ms(tr.agg.byName["wal/checkpoint"])
	m["txn.sim_groupcommit_ms_per_op"] = simPer("txn/groupcommit")
	m["exec.sim_residual_ms_per_op"] = ms(tr.agg.latency-tr.agg.waited) / tops
	wall := totals(tr.wall.spans)
	m["exec.host_plan_us_per_op"] = wall["plan"].perSpanUs()
	m["exec.host_run_ms_per_op"] = wall["run"].perSpanUs() / 1000
	m["txn.host_begin_us"] = wall["begin"].perSpanUs()
	both := wall["commit.local"]
	both.Count += wall["commit.2pc"].Count
	both.Total += wall["commit.2pc"].Total
	m["txn.host_commit_us"] = both.perSpanUs()
	m["shard.host_commit_2pc_us"] = wall["commit.2pc"].perSpanUs()
	m["shard.host_commit_local_us"] = wall["commit.local"].perSpanUs()
	// Like with like: the traced chunks against the same chunks untraced
	// (a bank_lsm chunk costs more the larger its trees have grown).
	m["obs.trace_overhead_pct"] = 100 * (ratio(trimmedMean(tp.chunkMs), trimmedMean(ph.chunkMs[:len(tp.chunkMs)])) - 1)
	m["obs.spans_per_op"] = float64(tr.agg.spans) / tops
	m["obs.dropped_spans"] = float64(tr.set.Tracer.Dropped())

	wallS := ph.host.wallS
	m["host.wall_s"] = wallS
	m["host.cpu_s"] = ph.host.cpuS
	m["host.gc_cycles"] = float64(ph.host.gcCycles)
	m["host.gc_pause_ms"] = float64(ph.host.gcPauseNs) / 1e6
	m["host.calib_ms_median"] = median(ph.calibs)
	m["host.calib_spread_pct"] = spreadPct(ph.calibs)
	m["host.sim_s_per_wall_s"] = ratio(ph.simElapsed.Seconds(), wallS)
	m["host.failed_ops_pct"] = r.failedPct()

	for k, v := range fin.layers {
		m[k] = v
	}
	return m
}
