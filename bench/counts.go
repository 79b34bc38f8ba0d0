package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/engine/txn"
	"hstoragedb/internal/obs"
)

// counts is a flat view of the engine's public Stats() counters, read
// from outside at a phase boundary. Keys ending in "_end" or "_max" are
// gauges (a level or a high-water mark at the time of reading); all
// others are cumulative and are compared as end − start.
type counts map[string]float64

func gauge(key string) bool {
	return strings.HasSuffix(key, "_end") || strings.HasSuffix(key, "_max")
}

// since returns the phase's counts: cumulative keys as c − start, gauges
// as read at the end.
func (c counts) since(start counts) counts {
	out := make(counts, len(c))
	for k, v := range c {
		if gauge(k) {
			out[k] = v
		} else {
			out[k] = v - start[k]
		}
	}
	return out
}

// fingerprint hashes the counts with the op count and the simulated
// elapsed time: a change that leaves the model alone leaves it alone.
func (c counts) fingerprint(ops int, sim time.Duration) string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	fmt.Fprintf(h, "ops=%d sim=%d\n", ops, sim)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%v\n", k, c[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// collector reads one or more engine stacks (one per shard) into a
// counts: counters add up across stacks, high-water marks take the max,
// and the devices' log-class latency histograms merge before their
// percentiles are read.
type collector struct {
	c      counts
	logLat obs.Histogram
}

func newCollector() *collector { return &collector{c: make(counts)} }

func (cl *collector) add(key string, v int64) { cl.c[key] += float64(v) }

func (cl *collector) max(key string, v int) {
	if float64(v) > cl.c[key] {
		cl.c[key] = float64(v)
	}
}

// instance reads every layer below the transaction manager.
func (cl *collector) instance(inst *engine.Instance) {
	ps := inst.Pool.Stats()
	cl.add("pool.hits", ps.Hits)
	cl.add("pool.misses", ps.Misses)
	cl.add("pool.evictions", ps.Evictions)
	cl.add("pool.writebacks", ps.WriteBack)
	vs := inst.Pool.VersionStats()
	cl.add("pool.versions_end", int64(vs.Versions))
	cl.add("pool.version_bytes_end", vs.Bytes)

	ts := inst.Mgr.TypeStats()
	for _, t := range policy.RequestTypes() {
		cl.add("req."+t.String(), ts[t].Requests)
	}
	ms := inst.Mgr.MaintStats()
	cl.add("maint.flushes", ms.Flushes)
	cl.add("maint.compactions", ms.Compactions)
	cl.add("maint.flush_write_blocks", ms.FlushWriteBlocks)
	cl.add("maint.compaction_read_blocks", ms.CompactionReadBlocks)
	cl.add("maint.compaction_write_blocks", ms.CompactionWriteBlocks)
	cl.add("maint.trim_blocks", ms.TrimBlocks)
	cl.add("store.pages", inst.DB.Store.TotalPages())
	cl.add("store.pages_end", inst.DB.Store.TotalPages())

	snap := inst.Sys.Stats()
	cl.add("cache.hits", snap.Hits)
	cl.add("cache.misses", snap.Misses)
	cl.add("cache.read_allocs", snap.ReadAllocs)
	cl.add("cache.write_allocs", snap.WriteAllocs)
	cl.add("cache.bypasses", snap.Bypasses)
	cl.add("cache.evictions", snap.Evictions)
	cl.add("cache.dirty_evictions", snap.DirtyEvict)
	cl.add("cache.trimmed", snap.Trimmed)
	cl.add("cache.wb_flushes", snap.WBFlushes)
	cl.add("cache.cached_blocks_end", int64(snap.CachedBlocks))
	space := dss.DefaultPolicySpace()
	for c := space.RandLow; c <= space.RandHigh; c++ {
		cs := snap.Class(dss.Class(c))
		cl.add("cache.rand_read_blocks", cs.ReadBlocks)
		cl.add("cache.rand_read_hits", cs.ReadHits)
	}
	temp := snap.Class(space.Temporary())
	cl.add("cache.temp_read_blocks", temp.ReadBlocks)
	cl.add("cache.temp_read_hits", temp.ReadHits)
	logc := snap.Class(dss.ClassLog)
	cl.add("cache.log_write_blocks", logc.WriteBlocks)
	cl.add("cache.log_write_hits", logc.WriteHits)
	cl.add("cache.compaction_blocks", snap.Class(dss.ClassCompaction).AccessedBlocks)

	devName := func(d *device.Device) string {
		if d == inst.Sys.SSD() {
			return "ssd"
		}
		return "hdd"
	}
	for _, s := range inst.Sys.Sched().Schedulers() {
		p := "sched." + devName(s.Device()) + "."
		st := s.Stats()
		cl.add(p+"submitted", st.Submitted)
		cl.add(p+"granted", st.Granted)
		cl.add(p+"coalesced", st.Coalesced)
		cl.add(p+"boosted", st.Boosted)
		cl.add(p+"prefetch_blocks", st.PrefetchBlocks)
		cl.add(p+"prefetch_hits", st.PrefetchHits)
		cl.add(p+"background_blocks", st.BackgroundBlocks)
		cl.max(p+"queue_max", st.MaxQueue)
	}
	for _, d := range []*device.Device{inst.Sys.SSD(), inst.Sys.HDD()} {
		if d == nil {
			continue
		}
		p := "dev." + devName(d) + "."
		st := d.Stats()
		cl.add(p+"blocks_read", st.BlocksRead)
		cl.add(p+"blocks_written", st.BlocksWrite)
		cl.add(p+"seq", st.SeqAccesses)
		cl.add(p+"rand", st.RandAccess)
		cl.add(p+"busy_ns", int64(st.BusyTime))
		if h, ok := st.PerClass[int(dss.ClassLog)]; ok {
			cl.logLat.Merge(h)
		}
	}
}

// txns reads the transactional layers of one stack.
func (cl *collector) txns(tm *txn.Manager) {
	ws := tm.WAL().Stats()
	cl.add("wal.appends", ws.Appends)
	cl.add("wal.flushes", ws.Flushes)
	cl.add("wal.page_writes", ws.PageWrites)
	cl.add("wal.checkpoints", ws.Checkpoints)
	cl.add("txn.commits", tm.Commits())
	cl.add("txn.aborts", tm.Aborts())
	gc := tm.GroupCommit()
	cl.add("txn.gc_batches", gc.Batches)
	cl.add("txn.gc_txns", gc.Txns)
	ls := tm.LockStats()
	cl.add("lock.acquired", ls.Acquired)
	cl.add("lock.waits", ls.Waits)
	cl.add("lock.deadlocks", ls.Deadlocks)
	cl.add("lock.upgrades", ls.Upgrades)
}

// done finishes the read.
func (cl *collector) done() counts {
	cl.c["dev.log_p50_us_end"] = cl.logLat.QuantileF(0.50) / float64(time.Microsecond)
	cl.c["dev.log_p99_us_end"] = cl.logLat.QuantileF(0.99) / float64(time.Microsecond)
	return cl.c
}
