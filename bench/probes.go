package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/btree"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/heap"
	"hstoragedb/internal/engine/lockmgr"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/engine/wal"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/iosched"
	"hstoragedb/internal/lsm"
	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/tpch"
)

// The probe pass calls each layer's public functions directly, in a
// loop, on a small fixture: what one call costs this Go program when
// nothing else runs. It is workload-independent.

// probeSink keeps results the compiler could otherwise drop with the
// call that made them.
var probeSink int

// probeBatches is how many batches a probe times; the median is reported.
const probeBatches = 15

// probeResult is one probe's calibrated cost per call.
type probeResult struct {
	ns     float64
	allocs float64
}

// probe times batches of n calls of fn(i), i counting up across batches,
// bracketed by calibration loops, and reports the median batch.
func probe(n int, fn func(i int)) probeResult {
	var m0, m1 runtime.MemStats
	ns := make([]float64, 0, probeBatches)
	allocs := make([]float64, 0, probeBatches)
	i := 0
	runtime.GC()
	before := calibLoop()
	for b := 0; b < probeBatches; b++ {
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for k := 0; k < n; k++ {
			fn(i)
			i++
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(wall)/float64(n))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	after := calibLoop()
	return probeResult{
		ns:     median(ns) * calibRefMs / ((before + after) / 2),
		allocs: median(allocs),
	}
}

// runProbes builds the fixtures and runs every probe. A fixture that
// cannot be built is reported and its probes read 0.
func runProbes(s scale) map[string]float64 {
	out := make(map[string]float64)
	n := s.pick(2000, 50) // calls per batch
	for _, p := range []func(int, map[string]float64) error{
		probeEngine, probePolicy, probeHybrid, probeIosched, probeWAL, probeLockmgr, probeLSM,
	} {
		if err := p(n, out); err != nil {
			fmt.Fprintf(os.Stderr, "bench: probe: %v\n", err)
		}
	}
	return out
}

// probeEngine covers bufferpool, btree and heap on one small TPC-H
// database (SF 0.003: lineitem ≈ 280 pages).
func probeEngine(n int, out map[string]float64) error {
	ds, err := tpch.Load(0.003)
	if err != nil {
		return err
	}
	cat := ds.DB.Cat
	lineitem, orders := cat.MustTable("lineitem"), cat.MustTable("orders")
	pages := ds.DB.Store.Pages(lineitem.ID)
	tag := policy.Tag{Object: lineitem.ID, Content: policy.Table, Pattern: policy.Sequential}
	open := func(frames int) (*engine.Instance, *engine.Session, error) {
		inst, err := ds.DB.NewInstance(engine.InstanceConfig{
			Storage:         hybrid.Config{Mode: hybrid.HStorage, CacheBlocks: 4096},
			BufferPoolPages: frames,
			CPUPerTuple:     cpuPerRow,
		})
		if err != nil {
			return nil, nil, err
		}
		return inst, inst.NewSession(), nil
	}
	var failed error
	check := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}

	// A pool that holds the whole database: after the first touch every
	// Get is a hit.
	big, sess, err := open(int(ds.DB.Store.TotalPages()) + 64)
	if err != nil {
		return err
	}
	hot := int64(64)
	for p := int64(0); p < hot; p++ {
		_, err := big.Pool.Get(&sess.Clk, tag, p)
		check(err)
	}
	r := probe(n, func(i int) {
		_, err := big.Pool.Get(&sess.Clk, tag, int64(i)%hot)
		check(err)
	})
	out["bufferpool.probe_get_hit_ns"], out["bufferpool.probe_get_allocs"] = r.ns, r.allocs

	page, err := big.Pool.Get(&sess.Clk, tag, 0)
	check(err)
	image := append([]byte(nil), page...)
	put := tag
	put.Update = true
	out["bufferpool.probe_put_ns"] = probe(n, func(i int) {
		check(big.Pool.Put(&sess.Clk, put, int64(i)%hot, image))
	}).ns

	// A pool a tenth of the table, swept in page order: every Get is a
	// miss that evicts and reads through cache and scheduler.
	small, ssess, err := open(int(pages) / 10)
	if err != nil {
		return err
	}
	out["bufferpool.probe_get_miss_ns"] = probe(n, func(i int) {
		_, err := small.Pool.Get(&ssess.Clk, tag, int64(i)%pages)
		check(err)
	}).ns

	// B-tree: point lookups on the orders key index (TPC-H order keys are
	// sparse: eight used of every 32), then inserts of fresh keys.
	ix := btree.Open(cat.MustIndex("idx_orders_orderkey").ID, big.Pool)
	rng := rand.New(rand.NewSource(1))
	keys := make([]int64, 4096)
	for i := range keys {
		keys[i] = 1 + rng.Int63n(ds.Orders*4)
	}
	gets0 := big.Pool.Stats()
	r = probe(n, func(i int) {
		_, err := ix.Lookup(&sess.Clk, keys[i%len(keys)], 0)
		check(err)
	})
	gets1 := big.Pool.Stats()
	out["btree.probe_lookup_ns"], out["btree.probe_lookup_allocs"] = r.ns, r.allocs
	out["btree.probe_pages_per_lookup"] = float64(gets1.Hits+gets1.Misses-gets0.Hits-gets0.Misses) / float64(n*probeBatches)
	horizon := ds.OrderKeyHorizon()
	out["btree.probe_insert_ns"] = probe(n, func(i int) {
		check(ix.Insert(&sess.Clk, btree.Entry{Key: horizon + int64(i), RID: catalog.RID{Page: int64(i)}}, 0))
	}).ns

	// Heap: a scan of lineitem from the big pool (decode cost, no I/O),
	// and fetches of single orders rows by RID.
	file := heap.NewFile(lineitem.ID, lineitem.Schema, policy.Table)
	sc := file.NewScanner(&sess.Clk, big.Pool, pages)
	r = probe(n, func(int) {
		_, _, ok, err := sc.Next()
		check(err)
		if !ok {
			sc = file.NewScanner(&sess.Clk, big.Pool, pages)
		}
	})
	out["heap.probe_scan_ns_per_row"], out["heap.probe_scan_allocs_per_row"] = r.ns, r.allocs
	ofile := heap.NewFile(orders.ID, orders.Schema, policy.Table)
	opages := ds.DB.Store.Pages(orders.ID)
	out["heap.probe_fetch_ns"] = probe(n, func(i int) {
		_, err := ofile.Fetch(&sess.Clk, big.Pool, catalog.RID{Page: int64(i) % opages, Slot: uint16(i % 8)}, 0)
		check(err)
	}).ns
	return failed
}

// probePolicy classifies a rotating mix of tags (Rules 1-4 and the log).
func probePolicy(n int, out map[string]float64) error {
	table := policy.NewAssignmentTable(dss.DefaultPolicySpace())
	tags := []policy.Tag{
		{Object: 1, Content: policy.Table, Pattern: policy.Sequential},
		{Object: 2, Content: policy.Index, Pattern: policy.Random, Level: 1},
		{Object: 3, Content: policy.Temp, Pattern: policy.Sequential},
		{Object: 1, Content: policy.Table, Pattern: policy.Random, Update: true},
		{Object: 4, Content: policy.Log, Pattern: policy.Sequential},
	}
	var sum int
	out["policy.probe_assign_ns"] = probe(10*n, func(i int) {
		sum += int(table.Classify(tags[i%len(tags)]))
	}).ns
	probeSink += sum
	return nil
}

// probeHybrid submits a mixed-class single-block request stream to a
// priority cache half the size of the address range it touches.
func probeHybrid(n int, out map[string]float64) error {
	sys, err := hybrid.New(hybrid.Config{Mode: hybrid.HStorage, CacheBlocks: 4096})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(2))
	reqs := make([]dss.Request, 8192)
	for i := range reqs {
		op := device.Read
		if i%4 == 3 {
			op = device.Write
		}
		reqs[i] = dss.Request{Op: op, LBA: rng.Int63n(8192), Blocks: 1, Class: dss.Class(2 + i%5)}
	}
	var at time.Duration
	r := probe(n, func(i int) { at = sys.Submit(at, reqs[i%len(reqs)]) })
	out["hybrid.probe_submit_ns"], out["hybrid.probe_submit_allocs"] = r.ns, r.allocs
	return nil
}

// probeIosched submits single-block random reads straight to a disk's
// scheduler, one at a time (the opportunistic path of a lone stream).
func probeIosched(n int, out map[string]float64) error {
	g := iosched.NewGroup(iosched.Config{})
	s := g.Attach(device.New(device.Cheetah15K()), dss.DefaultPolicySpace().Sequential())
	rng := rand.New(rand.NewSource(3))
	lbas := make([]int64, 8192)
	for i := range lbas {
		lbas[i] = rng.Int63n(1 << 22)
	}
	var at time.Duration
	out["iosched.probe_submit_ns"] = probe(n, func(i int) {
		at = s.Submit(at, device.Read, lbas[i%len(lbas)], 1, dss.Class(2), dss.DefaultTenant, nil)
	}).ns
	return nil
}

// probeWAL appends page records (a full post-image each, what a commit
// appends per touched page) and forces the log every 8, as a small
// transaction would.
func probeWAL(n int, out map[string]float64) error {
	inst, err := engine.NewDatabase().NewInstance(engine.InstanceConfig{
		Storage: hybrid.Config{Mode: hybrid.HStorage, CacheBlocks: 4096},
	})
	if err != nil {
		return err
	}
	sess := inst.NewSession()
	log, err := wal.New(&sess.Clk, inst.Mgr, oltpWAL())
	if err != nil {
		return err
	}
	image := make([]byte, pagestore.PageSize)
	var failed error
	n /= 4 // 8 KB per call
	r := probe(n, func(i int) {
		lsn, err := log.Append(&sess.Clk, wal.Record{Txn: int64(i / 8), Kind: wal.KindHeapUpdate, Obj: 1, Page: int64(i), Image: image})
		if err == nil && i%8 == 7 {
			err = log.Flush(&sess.Clk, lsn)
		}
		if err != nil && failed == nil {
			failed = err
		}
	})
	out["wal.probe_append_ns"], out["wal.probe_append_allocs"] = r.ns, r.allocs
	return failed
}

// probeLockmgr takes four page locks (shared and exclusive) for one
// transaction and releases them: the uncontended path.
func probeLockmgr(n int, out map[string]float64) error {
	m := lockmgr.New()
	var failed error
	r := probe(n, func(i int) {
		txn := int64(i + 1)
		for k := 0; k < 4; k++ {
			mode := lockmgr.Shared
			if k%2 == 1 {
				mode = lockmgr.Exclusive
			}
			if err := m.Acquire(txn, lockmgr.PageID{Obj: 1, Page: int64((i + k) % 512)}, mode); err != nil && failed == nil {
				failed = err
			}
		}
		m.ReleaseAll(txn)
	})
	out["lockmgr.probe_acquire_release_ns"] = r.ns / 4
	return failed
}

// probeLSM writes and reads pages through pagestore.Backend on an LSM
// store sized like bank_lsm's, draining its maintenance as the storage
// manager would; flushes and compactions are part of the write cost.
func probeLSM(n int, out map[string]float64) error {
	var b pagestore.Backend = lsm.New(lsm.Config{MemtablePages: 64, L0Tables: 4})
	if err := b.Create(1); err != nil {
		return err
	}
	const span = 2048
	rng := rand.New(rand.NewSource(4))
	image := make([]byte, pagestore.PageSize)
	var failed error
	check := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	drain := func() {
		if m, ok := b.(pagestore.Maintainer); ok {
			m.DrainMaintenance()
		}
	}
	for p := int64(0); p < span; p++ {
		_, err := b.Write(1, p, image)
		check(err)
	}
	drain()
	n /= 2
	out["lsm.probe_write_ns"] = probe(n, func(i int) {
		image[0] = byte(i)
		_, err := b.Write(1, rng.Int63n(span), image)
		check(err)
		if i%64 == 63 {
			drain()
		}
	}).ns
	out["lsm.probe_read_ns"] = probe(n, func(int) {
		_, _, err := b.Read(1, rng.Int63n(span))
		check(err)
	}).ns
	return failed
}
