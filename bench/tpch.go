package main

import (
	"fmt"
	"time"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/tpch"
)

// The paper's proportions (Section 6.1): a 32 GB cache over 46 GB of
// data, and a buffer pool far smaller than either.
const (
	cacheRatio = 0.7
	poolRatio  = 0.04
	cpuPerRow  = 300 * time.Nanosecond
)

func sized(data int64, ratio float64) int {
	n := int(float64(data) * ratio)
	if n < 64 {
		n = 64
	}
	return n
}

// scanQueries are the queries of tpch_scan: with enough work memory none
// of them spills or probes an index, so all their traffic is Rule 1
// sequential and the cache is bypassed.
var scanQueries = []int{1, 5, 6, 11, 19}

// tpchEnv is one loaded TPC-H database with one session on it.
type tpchEnv struct {
	ds   *tpch.Dataset
	inst *engine.Instance
	sess *engine.Session
	seed int64
	// scan selects tpch_scan's query list over the power sequence.
	scan bool
}

func setupTPCH(p params, scan bool) (env, error) {
	ds, err := tpch.Load(p.scale.pickF(0.05, 0.003))
	if err != nil {
		return nil, err
	}
	data := ds.DB.Store.TotalPages()
	workMem := 3000 // spills, as in the paper's runs
	if scan {
		workMem = 1 << 24 // nothing spills
	}
	inst, err := ds.DB.NewInstance(engine.InstanceConfig{
		Storage:         hybrid.Config{Mode: p.mode, CacheBlocks: sized(data, cacheRatio)},
		BufferPoolPages: sized(data, poolRatio),
		WorkMem:         workMem,
		CPUPerTuple:     cpuPerRow,
		Obs:             p.obs,
	})
	if err != nil {
		return nil, err
	}
	// No warm-up: the power test starts cold, and a scan bypasses the
	// cache whether it is warm or not.
	return &tpchEnv{ds: ds, inst: inst, sess: inst.NewSession(), seed: p.seed, scan: scan}, nil
}

func (e *tpchEnv) lanes() int { return 1 }

func (e *tpchEnv) now() time.Duration { return e.sess.Clk.Now() }

func (e *tpchEnv) settle() time.Duration {
	e.inst.Mgr.Wait(&e.sess.Clk)
	return e.sess.Clk.Now()
}

func (e *tpchEnv) counts() counts {
	cl := newCollector()
	cl.instance(e.inst)
	return cl.done()
}

// chunk i is RF1, the 22 queries in power order and RF2 (tpch_power), or
// the scan list (tpch_scan), with query parameters drawn from seed + i.
func (e *tpchEnv) chunk(i int, ls []*lane) {
	l := ls[0]
	l.track = e.sess.Clk.ID()
	queries := scanQueries
	if !e.scan {
		queries = tpch.PowerOrder()
		e.refresh(l, "rf1", e.ds.RF1)
	}
	for _, q := range queries {
		e.query(l, q, e.seed+int64(i))
	}
	if !e.scan {
		e.refresh(l, "rf2", e.ds.RF2)
	}
}

func (e *tpchEnv) refresh(l *lane, name string, rf func(*engine.Session) (int, error)) {
	start := e.sess.Clk.Now()
	id := l.span(name, -1)
	n, err := rf(e.sess)
	l.wall.end(id, "")
	l.op(start, e.sess.Clk.Now(), int64(n), err)
}

func (e *tpchEnv) query(l *lane, q int, seed int64) {
	start := e.sess.Clk.Now()
	root := l.span("query", -1)
	id := l.span("plan", root)
	plan, err := e.ds.Query(q, seed)
	l.wall.end(id, "")
	var rows int64
	if err == nil {
		id = l.span("run", root)
		rows, _, err = e.sess.ExecuteDiscard(plan)
		l.wall.end(id, "")
	}
	l.wall.end(root, "")
	if err != nil {
		err = fmt.Errorf("Q%d seed %d: %w", q, seed, err)
	}
	l.op(start, e.sess.Clk.Now(), rows, err)
}

func (e *tpchEnv) finish(out *closing) {
	if !e.scan {
		return
	}
	// tpch_scan is the bypass workload: a change to the cache or the
	// B-tree must leave it alone, which only holds while it writes
	// nothing back and (nearly) never hits.
	c := e.counts()
	out.check("scan_no_writebacks", c["pool.writebacks"] == 0, "%v buffer-pool write-backs", c["pool.writebacks"])
	hit := ratio(c["cache.hits"], c["cache.hits"]+c["cache.misses"])
	out.check("scan_bypasses_cache", hit < 0.02, "hybrid hit ratio %.4f", hit)
}

func (e *tpchEnv) close() {}
