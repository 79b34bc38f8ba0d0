// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) against the simulated hybrid storage system. Each
// experiment returns structured results plus a rendered report whose rows
// mirror the paper's.
package experiments

import (
	"fmt"
	"time"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/engine/storagemgr"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/obs"
	"hstoragedb/internal/tpch"
)

// Config scales an experiment run. The defaults reproduce the paper's
// cache:data and memory:data proportions at laptop scale.
type Config struct {
	// SF is the TPC-H scale factor (the paper uses 30 for single-query
	// runs and 10 for the throughput test; defaults here are scaled to
	// laptop runtimes while preserving the capacity ratios).
	SF float64
	// CacheRatio sizes the SSD cache as a fraction of total data pages
	// (paper: 32 GB cache / 46 GB data ≈ 0.7).
	CacheRatio float64
	// BufferPoolRatio sizes the DBMS buffer pool as a fraction of total
	// data pages (paper: 8 GB RAM / 46 GB data ≈ 0.17, but most of RAM
	// is not buffer pool; we default lower).
	BufferPoolRatio float64
	// WorkMem is the blocking-operator budget in tuples.
	WorkMem int
	// Seed selects query substitution parameters.
	Seed int64
	// Obs optionally attaches an observability set (metrics registry and
	// request tracer) to every instance the experiments build. Excluded
	// from -json output: it is runtime state, not configuration.
	Obs *obs.Set `json:"-"`
}

// DefaultConfig returns the configuration used by tests and the hbench
// defaults.
func DefaultConfig() Config {
	return Config{SF: 0.01, CacheRatio: 0.7, BufferPoolRatio: 0.04, WorkMem: 3000, Seed: 0}
}

// ThroughputConfig mirrors Section 6.4: scale 1/3 of the single-query
// scale, a 4 GB cache over a 16 GB dataset (ratio 0.25) and a 2 GB main
// memory (ratio 0.125).
func (c Config) ThroughputConfig() Config {
	t := c
	t.SF = c.SF / 3
	t.CacheRatio = 0.25
	t.BufferPoolRatio = 0.05
	return t
}

// Env is a loaded dataset plus sizing derived from it.
type Env struct {
	Cfg  Config
	DS   *tpch.Dataset
	Data int64 // total data pages after load

	t9 *ThroughputResult // throughput's memo
}

// NewEnv loads a dataset for the configuration.
func NewEnv(cfg Config) (*Env, error) {
	ds, err := tpch.Load(cfg.SF)
	if err != nil {
		return nil, err
	}
	return &Env{Cfg: cfg, DS: ds, Data: ds.DB.Store.TotalPages()}, nil
}

// cacheBlocks returns the SSD cache size in blocks.
func (e *Env) cacheBlocks() int {
	n := int(float64(e.Data) * e.Cfg.CacheRatio)
	if n < 64 {
		n = 64
	}
	return n
}

// bpPages returns the buffer pool size in pages.
func (e *Env) bpPages() int {
	n := int(float64(e.Data) * e.Cfg.BufferPoolRatio)
	if n < 64 {
		n = 64
	}
	return n
}

// baseConfig is the instance every experiment starts from: the mode's
// storage system with the SSD cache and the buffer pool sized from the
// dataset, the configured work memory and the CPU cost per tuple.
// Experiments that need something else change the fields they mean to.
func (e *Env) baseConfig(mode hybrid.Mode) engine.InstanceConfig {
	return engine.InstanceConfig{
		Storage: hybrid.Config{
			Mode:        mode,
			CacheBlocks: e.cacheBlocks(),
		},
		BufferPoolPages: e.bpPages(),
		WorkMem:         e.Cfg.WorkMem,
		CPUPerTuple:     300 * time.Nanosecond,
		Obs:             e.Cfg.Obs,
	}
}

// Instance builds a fresh engine instance in the given mode.
func (e *Env) Instance(mode hybrid.Mode) (*engine.Instance, error) {
	return e.DS.DB.NewInstance(e.baseConfig(mode))
}

// QueryRun is the outcome of one query under one storage mode.
type QueryRun struct {
	Query     int
	Mode      hybrid.Mode
	Rows      int64
	Elapsed   time.Duration
	Storage   hybrid.Snapshot
	TypeStats map[policy.RequestType]storagemgr.TypeStats
}

// RunSingle executes query q once, cold, on a fresh instance in the given
// mode and collects all statistics.
func (e *Env) RunSingle(q int, mode hybrid.Mode) (QueryRun, error) {
	inst, err := e.Instance(mode)
	if err != nil {
		return QueryRun{}, err
	}
	return e.runQuery(inst, q)
}

// runQuery executes query q on a new session of inst, waits for the
// background work it left behind, and collects the instance's statistics.
func (e *Env) runQuery(inst *engine.Instance, q int) (QueryRun, error) {
	mode := inst.Sys.Mode()
	sess := inst.NewSession()
	op, err := e.DS.Query(q, e.Cfg.Seed)
	if err != nil {
		return QueryRun{}, err
	}
	rows, _, err := sess.ExecuteDiscard(op)
	if err != nil {
		return QueryRun{}, fmt.Errorf("Q%d on %v: %w", q, mode, err)
	}
	inst.Mgr.Wait(&sess.Clk)
	return QueryRun{
		Query:     q,
		Mode:      mode,
		Rows:      rows,
		Elapsed:   sess.Clk.Now(),
		Storage:   inst.Sys.Stats(),
		TypeStats: inst.Mgr.TypeStats(),
	}, nil
}

// RunAllModes executes query q under all four storage configurations.
func (e *Env) RunAllModes(q int) (map[hybrid.Mode]QueryRun, error) {
	out := make(map[hybrid.Mode]QueryRun, 4)
	for _, mode := range hybrid.Modes() {
		r, err := e.RunSingle(q, mode)
		if err != nil {
			return nil, err
		}
		out[mode] = r
	}
	return out, nil
}
