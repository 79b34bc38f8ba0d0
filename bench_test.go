// Benchmarks that regenerate every table and figure of the paper's
// evaluation (one benchmark per artifact; see DESIGN.md's per-experiment
// index), plus ablation benches for the design choices the paper's rules
// encode. Reported custom metrics carry the reproduced numbers:
// "sim-ms/<thing>" is simulated execution time, "hit-%" a cache hit
// ratio, "qph" throughput in queries per simulated hour.
//
//	go test -bench=. -benchmem
package hstoragedb_test

import (
	"sync"
	"testing"
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
	"hstoragedb/internal/engine"
	"hstoragedb/internal/experiments"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/tpch"
)

// benchSF keeps the benchmark corpus small enough for -bench=. to finish
// in minutes while preserving the paper's capacity ratios.
const benchSF = 0.005

var (
	envOnce sync.Once
	envVal  *experiments.Env
	envErr  error
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() {
		cfg := experiments.DefaultConfig()
		cfg.SF = benchSF
		envVal, envErr = experiments.NewEnv(cfg)
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return envVal
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// BenchmarkFig4RequestDiversity regenerates Figure 4: the request-type
// mix of all 22 TPC-H queries.
func BenchmarkFig4RequestDiversity(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		shares, err := e.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		if len(shares) != 22 {
			b.Fatalf("%d queries", len(shares))
		}
	}
}

// BenchmarkFig5Sequential regenerates Figure 5 (Q1, Q5, Q11, Q19 under
// the four storage configurations).
func BenchmarkFig5Sequential(b *testing.B) {
	e := benchEnv(b)
	var rows []experiments.ModeTimes
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = e.Fig5()
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		b.ReportMetric(ms(rows[0].Times[hybrid.HDDOnly]), "sim-ms/Q1-hdd")
		b.ReportMetric(ms(rows[0].Times[hybrid.LRU]), "sim-ms/Q1-lru")
		b.ReportMetric(ms(rows[0].Times[hybrid.HStorage]), "sim-ms/Q1-hstorage")
	}
}

// BenchmarkTable4LRUSequential regenerates Table 4: LRU cache statistics
// for the sequential-dominated queries.
func BenchmarkTable4LRUSequential(b *testing.B) {
	e := benchEnv(b)
	var rows []experiments.Table4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = e.Table4()
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		b.ReportMetric(100*rows[0].Ratio, "hit-%/Q1")
	}
}

// BenchmarkFig6Random regenerates Figure 6 (Q9 and Q21).
func BenchmarkFig6Random(b *testing.B) {
	e := benchEnv(b)
	var rows []experiments.ModeTimes
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = e.Fig6()
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) == 2 {
		b.ReportMetric(ms(rows[0].Times[hybrid.HDDOnly]), "sim-ms/Q9-hdd")
		b.ReportMetric(ms(rows[0].Times[hybrid.HStorage]), "sim-ms/Q9-hstorage")
		b.ReportMetric(ms(rows[1].Times[hybrid.HDDOnly]), "sim-ms/Q21-hdd")
		b.ReportMetric(ms(rows[1].Times[hybrid.HStorage]), "sim-ms/Q21-hstorage")
	}
}

// BenchmarkTable5Q9Stats regenerates Table 5: per-priority cache
// statistics of Q9 under hStorage-DB.
func BenchmarkTable5Q9Stats(b *testing.B) {
	e := benchEnv(b)
	var rows []experiments.PrioRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = e.Table5()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(100*r.Ratio(), "hit-%/"+r.Label)
	}
}

// BenchmarkTable6Q21Stats regenerates Table 6: Q21 under hStorage-DB and
// LRU.
func BenchmarkTable6Q21Stats(b *testing.B) {
	e := benchEnv(b)
	var hs []experiments.PrioRow
	for i := 0; i < b.N; i++ {
		var err error
		hs, _, err = e.Table6()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range hs {
		b.ReportMetric(100*r.Ratio(), "hit-%/"+r.Label)
	}
}

// BenchmarkFig9TempData regenerates Figure 9 (Q18).
func BenchmarkFig9TempData(b *testing.B) {
	e := benchEnv(b)
	var rows []experiments.ModeTimes
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = e.Fig9()
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) == 1 {
		b.ReportMetric(ms(rows[0].Times[hybrid.LRU]), "sim-ms/Q18-lru")
		b.ReportMetric(ms(rows[0].Times[hybrid.HStorage]), "sim-ms/Q18-hstorage")
	}
}

// BenchmarkTable7Q18Stats regenerates Table 7: Q18's temp-read hit ratios.
func BenchmarkTable7Q18Stats(b *testing.B) {
	e := benchEnv(b)
	var hs, lru []experiments.PrioRow
	for i := 0; i < b.N; i++ {
		var err error
		hs, lru, err = e.Table7()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range hs {
		b.ReportMetric(100*r.Ratio(), "hit-%/hstorage-"+r.Label)
	}
	for _, r := range lru {
		b.ReportMetric(100*r.Ratio(), "hit-%/lru-"+r.Label)
	}
}

// BenchmarkFig11PowerTest regenerates Figure 11 and Table 8: the full
// power-test sequence under three configurations.
func BenchmarkFig11PowerTest(b *testing.B) {
	e := benchEnv(b)
	var res *experiments.PowerResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = e.Fig11()
		if err != nil {
			b.Fatal(err)
		}
	}
	if res != nil {
		b.ReportMetric(ms(res.Totals[hybrid.HDDOnly]), "sim-ms/total-hdd")
		b.ReportMetric(ms(res.Totals[hybrid.HStorage]), "sim-ms/total-hstorage")
		b.ReportMetric(ms(res.Totals[hybrid.SSDOnly]), "sim-ms/total-ssd")
	}
}

// BenchmarkTable9Throughput regenerates Table 9: the concurrent
// throughput test.
func BenchmarkTable9Throughput(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.SF = benchSF
	tEnv, err := experiments.NewEnv(cfg.ThroughputConfig())
	if err != nil {
		b.Fatal(err)
	}
	var res *experiments.ThroughputResult
	for i := 0; i < b.N; i++ {
		res, err = tEnv.Table9(3)
		if err != nil {
			b.Fatal(err)
		}
	}
	if res != nil {
		for _, mode := range hybrid.Modes() {
			b.ReportMetric(res.QueriesPerHour[mode], "qph/"+mode.String())
		}
	}
}

// BenchmarkFig12Concurrency regenerates Figure 12: Q9/Q18 standalone vs
// inside the throughput test.
func BenchmarkFig12Concurrency(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.SF = benchSF
	tEnv, err := experiments.NewEnv(cfg.ThroughputConfig())
	if err != nil {
		b.Fatal(err)
	}
	var f12 *experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		t9, err := tEnv.Table9(3)
		if err != nil {
			b.Fatal(err)
		}
		f12, err = tEnv.Fig12(t9)
		if err != nil {
			b.Fatal(err)
		}
	}
	if f12 != nil {
		b.ReportMetric(ms(f12.Throughput[9][hybrid.LRU]), "sim-ms/Q9-lru-tp")
		b.ReportMetric(ms(f12.Throughput[9][hybrid.HStorage]), "sim-ms/Q9-hstorage-tp")
	}
}

// ---- ablations (DESIGN.md Section 5) ----

// ablationRun executes Q18 on a fresh instance built by mutate and
// returns its simulated time.
func ablationRun(b *testing.B, e *experiments.Env, mutate func(*engine.InstanceConfig)) time.Duration {
	b.Helper()
	data := e.DS.DB.Store.TotalPages()
	cfg := engine.InstanceConfig{
		Storage: hybrid.Config{
			Mode:        hybrid.HStorage,
			CacheBlocks: int(float64(data) * 0.3),
		},
		BufferPoolPages: int(float64(data) * 0.04),
		WorkMem:         e.Cfg.WorkMem,
		CPUPerTuple:     300 * time.Nanosecond,
	}
	mutate(&cfg)
	inst, err := e.DS.DB.NewInstance(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sess := inst.NewSession()
	op, err := e.DS.Query(18, 0)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := sess.ExecuteDiscard(op); err != nil {
		b.Fatal(err)
	}
	inst.Mgr.Wait(&sess.Clk)
	return sess.Clk.Now()
}

// BenchmarkAblationTrim compares Q18 with and without TRIM on temp-file
// deletion: without it, dead temporary data pins the cache (the problem
// Section 4.2.3 describes).
func BenchmarkAblationTrim(b *testing.B) {
	e := benchEnv(b)
	var with, without time.Duration
	for i := 0; i < b.N; i++ {
		with = ablationRun(b, e, func(*engine.InstanceConfig) {})
		without = ablationRun(b, e, func(c *engine.InstanceConfig) { c.DisableTrim = true })
	}
	b.ReportMetric(ms(with), "sim-ms/trim-on")
	b.ReportMetric(ms(without), "sim-ms/trim-off")
}

// BenchmarkAblationWriteBuffer sweeps the write-buffer fraction b over
// the RF1 update function.
func BenchmarkAblationWriteBuffer(b *testing.B) {
	e := benchEnv(b)
	data := e.DS.DB.Store.TotalPages()
	for _, frac := range []float64{0.0, 0.10, 0.30} {
		frac := frac
		name := map[float64]string{0.0: "b=0%", 0.10: "b=10%", 0.30: "b=30%"}[frac]
		b.Run(name, func(b *testing.B) {
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				space := dss.DefaultPolicySpace()
				space.WriteBufferFrac = frac
				inst, err := e.DS.DB.NewInstance(engine.InstanceConfig{
					Storage: hybrid.Config{
						Mode:        hybrid.HStorage,
						CacheBlocks: int(float64(data) * 0.3),
						Policy:      space,
					},
					BufferPoolPages: int(float64(data) * 0.04),
					WorkMem:         e.Cfg.WorkMem,
				})
				if err != nil {
					b.Fatal(err)
				}
				sess := inst.NewSession()
				if _, err := e.DS.RF1(sess); err != nil {
					b.Fatal(err)
				}
				if _, err := e.DS.RF2(sess); err != nil {
					b.Fatal(err)
				}
				inst.Mgr.Wait(&sess.Clk)
				elapsed = sess.Clk.Now()
			}
			b.ReportMetric(ms(elapsed), "sim-ms/rf-pair")
		})
	}
}

// BenchmarkAblationRule5 compares the concurrent throughput test with the
// Rule 5 registry on and off (non-deterministic priorities).
func BenchmarkAblationRule5(b *testing.B) {
	e := benchEnv(b)
	data := e.DS.DB.Store.TotalPages()
	runStreams := func(disable bool) time.Duration {
		inst, err := e.DS.DB.NewInstance(engine.InstanceConfig{
			Storage: hybrid.Config{
				Mode:        hybrid.HStorage,
				CacheBlocks: int(float64(data) * 0.25),
			},
			BufferPoolPages: int(float64(data) * 0.04),
			WorkMem:         e.Cfg.WorkMem,
			DisableRule5:    disable,
		})
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		ends := make([]time.Duration, 2)
		for s := 0; s < 2; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				sess := inst.NewSession()
				for _, q := range []int{9, 21, 3} {
					op, err := e.DS.Query(q, int64(s))
					if err != nil {
						b.Error(err)
						return
					}
					if _, _, err := sess.ExecuteDiscard(op); err != nil {
						b.Error(err)
						return
					}
				}
				ends[s] = sess.Clk.Now()
			}(s)
		}
		wg.Wait()
		if ends[1] > ends[0] {
			return ends[1]
		}
		return ends[0]
	}
	var on, off time.Duration
	for i := 0; i < b.N; i++ {
		on = runStreams(false)
		off = runStreams(true)
	}
	b.ReportMetric(ms(on), "sim-ms/rule5-on")
	b.ReportMetric(ms(off), "sim-ms/rule5-off")
}

// BenchmarkAblationAsyncReadAlloc compares synchronous vs asynchronous
// read allocation (the footnote in Section 5.1).
func BenchmarkAblationAsyncReadAlloc(b *testing.B) {
	e := benchEnv(b)
	data := e.DS.DB.Store.TotalPages()
	run := func(async bool) time.Duration {
		inst, err := e.DS.DB.NewInstance(engine.InstanceConfig{
			Storage: hybrid.Config{
				Mode:           hybrid.HStorage,
				CacheBlocks:    int(float64(data) * 0.7),
				AsyncReadAlloc: async,
			},
			BufferPoolPages: int(float64(data) * 0.04),
			WorkMem:         e.Cfg.WorkMem,
		})
		if err != nil {
			b.Fatal(err)
		}
		sess := inst.NewSession()
		op, err := e.DS.Query(9, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := sess.ExecuteDiscard(op); err != nil {
			b.Fatal(err)
		}
		inst.Mgr.Wait(&sess.Clk)
		return sess.Clk.Now()
	}
	var syncT, asyncT time.Duration
	for i := 0; i < b.N; i++ {
		syncT = run(false)
		asyncT = run(true)
	}
	b.ReportMetric(ms(syncT), "sim-ms/sync")
	b.ReportMetric(ms(asyncT), "sim-ms/async")
}

// ---- microbenchmarks of the substrates ----

// BenchmarkPriorityCacheSubmit measures the priority cache's raw request
// processing rate.
func BenchmarkPriorityCacheSubmit(b *testing.B) {
	sys, err := hybrid.New(hybrid.Config{Mode: hybrid.HStorage, CacheBlocks: 4096})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Submit(0, dss.Request{
			Op:     device.Read,
			LBA:    int64(i % 8192),
			Blocks: 1,
			Class:  dss.Class(2 + i%5),
		})
	}
}

// The B-tree lookup and heap scan microbenchmarks live with their layers:
// internal/engine/btree (BenchmarkLookup, BenchmarkSeek) and
// internal/engine/heap (BenchmarkFetch, BenchmarkScan, BenchmarkUpdate);
// `make bench` collects them.

// BenchmarkTPCHLoad measures dataset generation + load + index build.
func BenchmarkTPCHLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := tpch.Load(0.002); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- extensions ----

// BenchmarkExtensionARC compares the ARC baseline (a stronger
// monitoring-based policy than the paper's LRU) against LRU and
// hStorage-DB on the random-heavy Q21.
func BenchmarkExtensionARC(b *testing.B) {
	e := benchEnv(b)
	data := e.DS.DB.Store.TotalPages()
	run := func(mode hybrid.Mode) time.Duration {
		inst, err := e.DS.DB.NewInstance(engine.InstanceConfig{
			Storage: hybrid.Config{
				Mode:        mode,
				CacheBlocks: int(float64(data) * 0.5),
			},
			BufferPoolPages: int(float64(data) * 0.04),
			WorkMem:         e.Cfg.WorkMem,
		})
		if err != nil {
			b.Fatal(err)
		}
		sess := inst.NewSession()
		op, err := e.DS.Query(21, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := sess.ExecuteDiscard(op); err != nil {
			b.Fatal(err)
		}
		inst.Mgr.Wait(&sess.Clk)
		return sess.Clk.Now()
	}
	var lru, arc, hs time.Duration
	for i := 0; i < b.N; i++ {
		lru = run(hybrid.LRU)
		arc = run(hybrid.ARC)
		hs = run(hybrid.HStorage)
	}
	b.ReportMetric(ms(lru), "sim-ms/Q21-lru")
	b.ReportMetric(ms(arc), "sim-ms/Q21-arc")
	b.ReportMetric(ms(hs), "sim-ms/Q21-hstorage")
}

// BenchmarkExtensionOLTP runs the paper's future-work OLTP mix under the
// four configurations, reporting simulated transactions per second.
func BenchmarkExtensionOLTP(b *testing.B) {
	const txns = 300
	for _, mode := range []hybrid.Mode{hybrid.HDDOnly, hybrid.LRU, hybrid.HStorage, hybrid.SSDOnly} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			var tps float64
			for i := 0; i < b.N; i++ {
				ds, err := tpch.Load(benchSF)
				if err != nil {
					b.Fatal(err)
				}
				data := ds.DB.Store.TotalPages()
				inst, err := ds.DB.NewInstance(engine.InstanceConfig{
					Storage: hybrid.Config{
						Mode:        mode,
						CacheBlocks: int(float64(data) * 0.25),
					},
					BufferPoolPages: int(float64(data) * 0.04),
					WorkMem:         3000,
				})
				if err != nil {
					b.Fatal(err)
				}
				sess := inst.NewSession()
				driver := ds.NewOLTP(1)
				if err := driver.Run(sess, txns); err != nil {
					b.Fatal(err)
				}
				inst.Mgr.Wait(&sess.Clk)
				tps = float64(txns) / sess.Clk.Now().Seconds()
			}
			b.ReportMetric(tps, "sim-txn/s")
		})
	}
}
