package experiments

import (
	"fmt"
	"strings"
	"time"

	"hstoragedb/internal/dss"
	"hstoragedb/internal/engine"
	"hstoragedb/internal/hybrid"
)

// The ablations switch one design choice of the paper's rules off (or
// sweep it) and report the simulated time of the workload that choice
// exists for. They report directions; nothing here asserts them.

// Ablation is one ablation's report: a title and the simulated time of
// each arm.
type Ablation struct {
	Title string
	Arms  []ArmTime
}

// ArmTime is one arm of an ablation.
type ArmTime struct {
	Arm     string
	Elapsed time.Duration
}

// Format renders the arms as rows.
func (a Ablation) Format() string {
	var b strings.Builder
	b.WriteString(a.Title + "\n")
	fmt.Fprintf(&b, "%-14s %12s\n", "arm", "sim time")
	for _, arm := range a.Arms {
		fmt.Fprintf(&b, "%-14s %12s\n", arm.Arm, fmtDur(arm.Elapsed))
	}
	return b.String()
}

// arm names one configuration of an ablation and measures it.
type arm struct {
	name string
	run  func() (time.Duration, error)
}

func ablation(title string, arms ...arm) (Ablation, error) {
	res := Ablation{Title: title}
	for _, a := range arms {
		d, err := a.run()
		if err != nil {
			return res, fmt.Errorf("%s: %w", a.name, err)
		}
		res.Arms = append(res.Arms, ArmTime{Arm: a.name, Elapsed: d})
	}
	return res, nil
}

// ablationConfig sizes an ablation instance: the SSD cache at cacheRatio
// of the data, the buffer pool at 4 %, no CPU charge per tuple — the
// arms isolate storage time.
func (e *Env) ablationConfig(mode hybrid.Mode, cacheRatio float64) engine.InstanceConfig {
	return engine.InstanceConfig{
		Storage: hybrid.Config{
			Mode:        mode,
			CacheBlocks: int(float64(e.Data) * cacheRatio),
		},
		BufferPoolPages: int(float64(e.Data) * 0.04),
		WorkMem:         e.Cfg.WorkMem,
		Obs:             e.Cfg.Obs,
	}
}

// queryTime runs query q cold on a fresh instance built from cfg.
func (e *Env) queryTime(cfg engine.InstanceConfig, q int) (time.Duration, error) {
	inst, err := e.DS.DB.NewInstance(cfg)
	if err != nil {
		return 0, err
	}
	run, err := e.runQuery(inst, q)
	return run.Elapsed, err
}

// AblTrim compares Q18 with and without TRIM on temp-file deletion:
// without it, dead temporary data pins the cache (the problem Section
// 4.2.3 describes).
func (e *Env) AblTrim() (Ablation, error) {
	on := e.ablationConfig(hybrid.HStorage, 0.3)
	on.CPUPerTuple = 300 * time.Nanosecond
	off := on
	off.DisableTrim = true
	return ablation("Ablation: TRIM on temp-file deletion (Q18, hStorage-DB)",
		arm{"trim-on", func() (time.Duration, error) { return e.queryTime(on, 18) }},
		arm{"trim-off", func() (time.Duration, error) { return e.queryTime(off, 18) }})
}

// AblWriteBuffer sweeps the write-buffer fraction b of the policy space
// over one RF1/RF2 pair.
func (e *Env) AblWriteBuffer() (Ablation, error) {
	var arms []arm
	for _, frac := range []float64{0, 0.10, 0.30} {
		arms = append(arms, arm{fmt.Sprintf("b=%.0f%%", 100*frac), func() (time.Duration, error) {
			cfg := e.ablationConfig(hybrid.HStorage, 0.3)
			cfg.Storage.Policy = dss.DefaultPolicySpace()
			cfg.Storage.Policy.WriteBufferFrac = frac
			inst, err := e.DS.DB.NewInstance(cfg)
			if err != nil {
				return 0, err
			}
			sess := inst.NewSession()
			if _, err := e.DS.RF1(sess); err != nil {
				return 0, err
			}
			if _, err := e.DS.RF2(sess); err != nil {
				return 0, err
			}
			inst.Mgr.Wait(&sess.Clk)
			return sess.Clk.Now(), nil
		}})
	}
	return ablation("Ablation: write-buffer fraction b (RF1 + RF2, hStorage-DB)", arms...)
}

// AblRule5 runs two concurrent query streams (Q9, Q21, Q3 each) with the
// Rule 5 registry on and off; off, concurrent streams get
// non-deterministic priorities. Two real goroutines: the times vary from
// run to run.
func (e *Env) AblRule5() (Ablation, error) {
	streams := func(disable bool) (time.Duration, error) {
		cfg := e.ablationConfig(hybrid.HStorage, 0.25)
		cfg.DisableRule5 = disable
		inst, err := e.DS.DB.NewInstance(cfg)
		if err != nil {
			return 0, err
		}
		ends := make([]time.Duration, 2)
		fns := make([]func() error, len(ends))
		for s := range ends {
			fns[s] = func() error {
				sess := inst.NewSession()
				for _, q := range []int{9, 21, 3} {
					op, err := e.DS.Query(q, int64(s))
					if err != nil {
						return err
					}
					if _, _, err := sess.ExecuteDiscard(op); err != nil {
						return fmt.Errorf("stream %d Q%d: %w", s, q, err)
					}
				}
				ends[s] = sess.Clk.Now()
				return nil
			}
		}
		if err := runStreams(fns...); err != nil {
			return 0, err
		}
		return makespan(ends...), nil
	}
	return ablation("Ablation: Rule 5 concurrency registry (2 streams of Q9, Q21, Q3, hStorage-DB)",
		arm{"rule5-on", func() (time.Duration, error) { return streams(false) }},
		arm{"rule5-off", func() (time.Duration, error) { return streams(true) }})
}

// AblAsyncReadAlloc compares synchronous and asynchronous read
// allocation on Q9 (the footnote in Section 5.1).
func (e *Env) AblAsyncReadAlloc() (Ablation, error) {
	syncCfg := e.ablationConfig(hybrid.HStorage, 0.7)
	asyncCfg := syncCfg
	asyncCfg.Storage.AsyncReadAlloc = true
	return ablation("Ablation: read allocation into the cache, synchronous vs asynchronous (Q9, hStorage-DB)",
		arm{"sync", func() (time.Duration, error) { return e.queryTime(syncCfg, 9) }},
		arm{"async", func() (time.Duration, error) { return e.queryTime(asyncCfg, 9) }})
}

// ExtARC runs the random-heavy Q21 under LRU, under ARC — a stronger
// monitoring-based policy than the paper's LRU baseline — and under
// hStorage-DB.
func (e *Env) ExtARC() (Ablation, error) {
	var arms []arm
	for _, m := range []struct {
		name string
		mode hybrid.Mode
	}{{"Q21-lru", hybrid.LRU}, {"Q21-arc", hybrid.ARC}, {"Q21-hstorage", hybrid.HStorage}} {
		arms = append(arms, arm{m.name, func() (time.Duration, error) {
			return e.queryTime(e.ablationConfig(m.mode, 0.5), 21)
		}})
	}
	return ablation("Extension: ARC against LRU and hStorage-DB (Q21)", arms...)
}
