package main

import (
	"errors"
	"fmt"
	"time"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/btree"
	"hstoragedb/internal/engine/heap"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/engine/txn"
	"hstoragedb/internal/engine/wal"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/pagestore"
	"hstoragedb/internal/tpch"
)

// ckptEvery is the checkpoint cadence in transactions: the pinned log
// class must not outgrow the cache between truncations.
const ckptEvery = 200

func oltpWAL() wal.Config {
	return wal.Config{SegmentPages: 256, GroupCommitWindow: 50 * time.Microsecond}
}

// oltpEnv runs the transactional mix (45 % NewOrder, 45 % Payment, 10 %
// OrderStatus) on one engine instance: one stream with inline
// checkpoints (oltp_1w) or two concurrent streams with a background
// checkpointer (oltp_2w).
type oltpEnv struct {
	p       params
	ds      *tpch.Dataset
	inst    *engine.Instance
	cfg     engine.InstanceConfig
	tm      *txn.Manager
	admin   *engine.Session // checkpoints, settling
	sess    []*engine.Session
	drivers []*tpch.OLTP
	perLane int // ops per lane per chunk
	done    int // oltp_1w: ops since set-up, for the checkpoint cadence

	// oltp_2w only.
	footprint policy.QueryInfo
	stopCkpt  chan struct{}
	ckptDone  chan error
}

func setupOLTP(p params, workers int) (env, error) {
	ds, err := tpch.Load(p.scale.pickF(0.02, 0.003))
	if err != nil {
		return nil, err
	}
	data := ds.DB.Store.TotalPages()
	e := &oltpEnv{p: p, ds: ds, perLane: p.scale.pick(1000, 20)}
	e.cfg = engine.InstanceConfig{
		Storage:         hybrid.Config{Mode: p.mode, CacheBlocks: sized(data, cacheRatio)},
		BufferPoolPages: sized(data, poolRatio),
		WorkMem:         3000,
		CPUPerTuple:     cpuPerRow,
		Obs:             p.obs,
	}
	if workers > 1 {
		// A production-shaped OLTP server: the pool holds the working set
		// (a starved pool thrashes under no-steal pins once streams
		// overlap) and the cache holds the data plus the pinned log.
		e.cfg.BufferPoolPages = int(data) + 2048
		e.cfg.Storage.CacheBlocks = 2 * int(data)
	}
	if e.inst, err = ds.DB.NewInstance(e.cfg); err != nil {
		return nil, err
	}
	e.admin = e.inst.NewSession()
	log, err := wal.New(&e.admin.Clk, e.inst.Mgr, oltpWAL())
	if err != nil {
		return nil, err
	}
	e.tm = txn.NewManager(e.inst, log)
	if err := e.tm.Checkpoint(e.admin); err != nil {
		return nil, err
	}
	for k := 0; k < workers; k++ {
		e.sess = append(e.sess, e.inst.NewSession())
		e.drivers = append(e.drivers, ds.NewOLTP(p.seed+int64(k)))
	}
	if workers == 1 {
		// One stream does its own checkpoints, on its own clock.
		e.admin = e.sess[0]
	} else {
		e.footprint = oltpFootprint(ds)
		for range e.sess {
			e.inst.Mgr.Registry().Register(e.footprint)
		}
	}

	// Warm-up: one chunk's worth of ops slides the order horizon past
	// the recency window the mix reads and fills pool and cache.
	warm := make([]*lane, workers)
	for k := range warm {
		warm[k] = &lane{prog: &progress{}}
	}
	e.chunk(-1, warm)
	if workers > 1 {
		if err := e.tm.Checkpoint(e.admin); err != nil {
			return nil, err
		}
		// The measured streams continue the warmed system's timeline.
		start := e.settle()
		for _, s := range e.sess {
			s.Clk.AdvanceTo(start)
		}
		e.startCheckpointer(start)
	}
	e.inst.ResetStats()
	return e, nil
}

// oltpFootprint is the Rule 5 registry entry of one OLTP stream: a
// level-0 random-access footprint over the objects its point lookups and
// updates touch, which is what a query registers when it starts.
func oltpFootprint(ds *tpch.Dataset) policy.QueryInfo {
	cat := ds.DB.Cat
	levels := make(map[pagestore.ObjectID][]int)
	for _, t := range []string{"orders", "lineitem", "customer"} {
		levels[cat.MustTable(t).ID] = []int{0}
	}
	for _, ix := range []string{"idx_orders_orderkey", "idx_lineitem_orderkey", "idx_lineitem_partkey", "idx_customer_custkey"} {
		levels[cat.MustIndex(ix).ID] = []int{0}
	}
	return policy.QueryInfo{Levels: levels, HasRandom: true}
}

// startCheckpointer truncates the log every ckptEvery commits from its
// own session, as a production system's background checkpointer would.
func (e *oltpEnv) startCheckpointer(at time.Duration) {
	e.stopCkpt = make(chan struct{})
	e.ckptDone = make(chan error, 1)
	sess := e.inst.NewSession()
	sess.Clk.AdvanceTo(at)
	go func() {
		last := e.tm.Commits()
		for {
			select {
			case <-e.stopCkpt:
				e.ckptDone <- nil
				return
			default:
			}
			if c := e.tm.Commits(); c-last >= ckptEvery {
				if err := e.tm.Checkpoint(sess); err != nil {
					e.ckptDone <- err
					return
				}
				last = c
			} else {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
}

func (e *oltpEnv) lanes() int { return len(e.sess) }

func (e *oltpEnv) now() time.Duration {
	var max time.Duration
	for _, s := range e.sess {
		if t := s.Clk.Now(); t > max {
			max = t
		}
	}
	return max
}

func (e *oltpEnv) settle() time.Duration {
	if len(e.sess) == 1 {
		e.inst.Mgr.Wait(&e.sess[0].Clk)
		return e.now()
	}
	// Settling must not advance a worker's clock: read the devices' busy
	// horizon on a throwaway session instead.
	s := e.inst.NewSession()
	s.Clk.AdvanceTo(e.now())
	e.inst.Mgr.Wait(&s.Clk)
	return s.Clk.Now()
}

func (e *oltpEnv) counts() counts {
	cl := newCollector()
	cl.instance(e.inst)
	cl.txns(e.tm)
	for _, d := range e.drivers {
		cl.add("driver.retries", d.Retries)
	}
	return cl.done()
}

func (e *oltpEnv) chunk(_ int, ls []*lane) {
	runLanes(len(ls), func(k int) {
		l, sess, drv := ls[k], e.sess[k], e.drivers[k]
		l.track = sess.Clk.ID()
		for n := 0; n < e.perLane; n++ {
			start := sess.Clk.Now()
			id := l.span("txn", -1)
			err := drv.RunTxn(e.tm, sess, 1)
			l.wall.end(id, "")
			l.op(start, sess.Clk.Now(), 0, err)
			if len(ls) > 1 {
				continue
			}
			if e.done++; e.done%ckptEvery == 0 {
				id := l.span("checkpoint", -1)
				if err := e.tm.Checkpoint(sess); err != nil {
					l.op(start, start, 0, fmt.Errorf("checkpoint: %w", err))
				}
				l.wall.end(id, "")
			}
		}
	})
}

func (e *oltpEnv) close() {
	if e.stopCkpt != nil {
		close(e.stopCkpt)
		<-e.ckptDone
		e.stopCkpt = nil
		for range e.sess {
			e.inst.Mgr.Registry().Unregister(e.footprint)
		}
	}
}

func (e *oltpEnv) finish(out *closing) {
	if len(e.sess) > 1 {
		e.finish2w(out)
		return
	}
	// 150 more transactions past the last checkpoint give recovery
	// something to replay; then the 5th NewOrder commit from here dies
	// between its page records and its commit record.
	sess, drv := e.sess[0], e.drivers[0]
	if err := drv.RunTxn(e.tm, sess, 150); err != nil {
		out.check("crash_tail", false, "%v", err)
		return
	}
	e.tm.CrashAtCommit(5)
	if err := drv.RunNewOrdersTxn(e.tm, sess, 50); !errors.Is(err, txn.ErrCrashed) {
		out.check("crash_fires", false, "crash harness returned %v", err)
		return
	}
	e.tm.Crash()

	// Restart: a fresh instance over the surviving page store.
	inst2, err := e.ds.DB.NewInstance(e.cfg)
	if err != nil {
		out.check("restart", false, "%v", err)
		return
	}
	sess2 := inst2.NewSession()
	_, rs, err := wal.Recover(&sess2.Clk, inst2.Mgr, oltpWAL())
	if err != nil {
		out.check("recover", false, "%v", err)
		return
	}
	out.recoveryMs = ms(rs.Elapsed)
	out.layers = map[string]float64{
		"wal.recovery_records":       float64(rs.Records),
		"wal.recovery_pages_applied": float64(rs.PagesApplied),
	}
	present, err := ordersPresent(sess2, e.ds, drv.Committed, true)
	out.check("committed_present", err == nil && present == len(drv.Committed), "%d of %d committed orders found (%v)", present, len(drv.Committed), err)
	lost, err := ordersPresent(sess2, e.ds, drv.Lost, false)
	out.check("lost_absent", err == nil && lost == 0 && len(drv.Lost) > 0, "%d of %d crashed orders visible (%v)", lost, len(drv.Lost), err)
}

// finish2w checks every committed NewOrder of both workers is reachable
// through idx_orders_orderkey.
func (e *oltpEnv) finish2w(out *closing) {
	e.close()
	sess := e.inst.NewSession()
	for k, d := range e.drivers {
		present, err := ordersPresent(sess, e.ds, d.Committed, false)
		out.check(fmt.Sprintf("committed_reachable_w%d", k), err == nil && present == len(d.Committed),
			"%d of %d committed orders found (%v)", present, len(d.Committed), err)
	}
}

// ordersPresent counts the order keys that resolve, through the orderkey
// index and a heap fetch, to a live row; withLines also requires at
// least one lineitem per order.
func ordersPresent(sess *engine.Session, ds *tpch.Dataset, keys []int64, withLines bool) (int, error) {
	pool := sess.Pool()
	cat := ds.DB.Cat
	orders, lines := cat.MustTable("orders"), cat.MustTable("lineitem")
	ordersFile := heap.NewFile(orders.ID, orders.Schema, policy.Table)
	lineFile := heap.NewFile(lines.ID, lines.Schema, policy.Table)
	ixOrders := btree.Open(cat.MustIndex("idx_orders_orderkey").ID, pool)
	ixLines := btree.Open(cat.MustIndex("idx_lineitem_orderkey").ID, pool)

	live := func(ix *btree.Tree, file *heap.File, key int64, match bool) (bool, error) {
		rids, err := ix.Lookup(&sess.Clk, key, 0)
		if err != nil {
			return false, err
		}
		for _, rid := range rids {
			row, err := file.Fetch(&sess.Clk, pool, rid, 0)
			if err != nil {
				return false, err
			}
			if row != nil && (!match || row[0].I == key) {
				return true, nil
			}
		}
		return false, nil
	}
	present := 0
	for _, key := range keys {
		ok, err := live(ixOrders, ordersFile, key, true)
		if err == nil && ok && withLines {
			ok, err = live(ixLines, lineFile, key, false)
		}
		if err != nil {
			return present, err
		}
		if ok {
			present++
		}
	}
	return present, nil
}
