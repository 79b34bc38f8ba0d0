package experiments

import (
	"fmt"
	"io"

	"hstoragedb/internal/dss"
)

// Params carries the workload flags of cmd/hbench to the experiments.
// An experiment reads the ones its entry below names and applies its own
// policy to them; zero values mean the experiment's default.
type Params struct {
	Streams       int       // query streams (table9, fig12, iosched)
	Txns          int       // transactions: per configuration, or the total a sweep point splits
	Workers       []int     // worker counts (txnscale sweeps them; shards and lsm run the last)
	TenantWeights []float64 // tenant weights, assigned to tenant IDs 1..n (tenants)
	ScanBlocks    int       // per-tenant scan demand in blocks (tenants)
	ScanRounds    int       // analytics sweeps (htap)
	Shards        []int     // shard counts (shards)
	XShard        float64   // cross-shard transfer fraction (shards)
}

// EnvKind names the dataset an experiment runs over.
type EnvKind int

const (
	// NoEnv experiments build their own storage and load no TPC-H data;
	// their Env carries the configuration only.
	NoEnv EnvKind = iota
	// SingleQueryEnv is the dataset at the configured scale.
	SingleQueryEnv
	// ThroughputEnv is the smaller, tighter Config.ThroughputConfig.
	ThroughputEnv
)

// Result is what an experiment returns: a value that marshals to the
// experiment's -json record and renders its own report.
type Result interface {
	Format() string
}

// Experiment is one entry of the registry.
type Experiment struct {
	ID  string
	Doc string
	Env EnvKind
	Run func(e *Env, p Params) (Result, error)
}

// Registry returns every experiment, in the order `hbench -exp all` runs
// them: the paper's single-query figures and tables, the extension
// experiments, the throughput test (its own dataset), the ablations.
func Registry() []Experiment { return registry }

var registry = []Experiment{
	{"fig4", "Figure 4: request-type mix of the 22 TPC-H queries", SingleQueryEnv,
		func(e *Env, _ Params) (Result, error) { return e.Fig4() }},
	{"fig5", "Figure 5: sequential-dominated queries under the four configurations", SingleQueryEnv,
		func(e *Env, _ Params) (Result, error) {
			rows, err := e.Fig5()
			return ModeTimesTable{"Figure 5: sequential-dominated queries (Q1, Q5, Q11, Q19)", rows}, err
		}},
	{"table4", "Table 4: LRU cache statistics for sequential requests", SingleQueryEnv,
		func(e *Env, _ Params) (Result, error) { return e.Table4() }},
	{"fig6", "Figure 6: random-dominated queries", SingleQueryEnv,
		func(e *Env, _ Params) (Result, error) {
			rows, err := e.Fig6()
			return ModeTimesTable{"Figure 6: random-dominated queries (Q9, Q21)", rows}, err
		}},
	{"table5", "Table 5: Q9 per-priority cache statistics", SingleQueryEnv,
		func(e *Env, _ Params) (Result, error) { return e.Table5() }},
	{"table6", "Table 6: Q21 cache statistics, hStorage-DB vs LRU", SingleQueryEnv,
		func(e *Env, _ Params) (Result, error) {
			hs, lru, err := e.Table6()
			return PrioTable{"Table 6: Q21 cache statistics", hs, lru}, err
		}},
	{"fig9", "Figure 9: the temp-data query Q18", SingleQueryEnv,
		func(e *Env, _ Params) (Result, error) {
			rows, err := e.Fig9()
			return ModeTimesTable{"Figure 9: temp-data query (Q18)", rows}, err
		}},
	{"table7", "Table 7: Q18 temp-read vs sequential cache statistics", SingleQueryEnv,
		func(e *Env, _ Params) (Result, error) {
			hs, lru, err := e.Table7()
			return PrioTable{"Table 7: Q18 cache statistics (temp reads vs sequential)", hs, lru}, err
		}},
	{"fig11", "Figure 11 and Table 8: the power-test sequence as one stream", SingleQueryEnv,
		func(e *Env, _ Params) (Result, error) { return e.Fig11() }},
	{"oltp", "transactional OLTP mix, commit throughput and crash recovery (-txns per configuration)", SingleQueryEnv,
		func(e *Env, p Params) (Result, error) { return e.OLTPAll(p.Txns) }},
	{"iosched", "I/O scheduler vs FIFO under -streams scan streams + an OLTP stream of -txns", SingleQueryEnv,
		func(e *Env, p Params) (Result, error) { return e.IOSchedAll(p.Streams, p.Txns) }},
	{"txnscale", "concurrent transaction scaling over -workers, -txns total per sweep point", SingleQueryEnv,
		func(e *Env, p Params) (Result, error) { return e.TxnScaleAll(p.Workers, p.Txns) }},
	{"tenants", "multi-tenant fair shares (-tenants weights, -scanblocks each, -txns split across tenants)", SingleQueryEnv,
		func(e *Env, p Params) (Result, error) {
			specs := make([]TenantSpec, len(p.TenantWeights))
			for i, w := range p.TenantWeights {
				specs[i] = TenantSpec{ID: dss.TenantID(i + 1), Weight: w}
			}
			// -txns is the total across tenants, at least one each: a tiny
			// -txns must bound the run, not fall through to the default.
			perTenant := 0
			if len(specs) > 0 {
				perTenant = max(p.Txns/len(specs), 1)
			}
			return e.TenantsAll(specs, p.ScanBlocks, perTenant)
		}},
	{"htap", "snapshot scans vs 2PL scans under the OLTP mix (8 workers split -txns, -scanrounds sweeps)", SingleQueryEnv,
		func(e *Env, p Params) (Result, error) {
			// The interference contrast needs sustained writer pressure:
			// at least 30 transactions per worker whatever -txns says.
			const workers = 8
			return e.HTAPAll(workers, max(p.Txns/workers, 30), p.ScanRounds)
		}},
	{"shards", "shard scaling with 2PC (-shards counts, -xshard fraction, last -workers entry, -txns per point)", NoEnv,
		func(e *Env, p Params) (Result, error) {
			return ShardsAll(p.Shards, lastWorkers(p), p.Txns, p.XShard, e.Cfg.Seed, e.Cfg.Obs)
		}},
	{"lsm", "heap vs LSM backend, compaction classification on/off (last -workers entry, -txns per arm)", NoEnv,
		func(e *Env, p Params) (Result, error) { return LSMAll(lastWorkers(p), p.Txns, e.Cfg.Seed, e.Cfg.Obs) }},
	{"table9", "Table 9: the throughput test, -streams query streams + an update stream", ThroughputEnv,
		func(e *Env, p Params) (Result, error) { return e.throughput(p.Streams) }},
	{"fig12", "Figure 12: Q9 and Q18 standalone vs inside the throughput test (shares table9's run)", ThroughputEnv,
		func(e *Env, p Params) (Result, error) {
			t9, err := e.throughput(p.Streams)
			if err != nil {
				return nil, err
			}
			return e.Fig12(t9)
		}},
	{"abl-trim", "ablation: TRIM on temp-file deletion, Q18", SingleQueryEnv,
		func(e *Env, _ Params) (Result, error) { return e.AblTrim() }},
	{"abl-wb", "ablation: write-buffer fraction sweep over RF1 + RF2", SingleQueryEnv,
		func(e *Env, _ Params) (Result, error) { return e.AblWriteBuffer() }},
	{"abl-rule5", "ablation: Rule 5 registry on/off under two concurrent streams", SingleQueryEnv,
		func(e *Env, _ Params) (Result, error) { return e.AblRule5() }},
	{"abl-async", "ablation: synchronous vs asynchronous read allocation, Q9", SingleQueryEnv,
		func(e *Env, _ Params) (Result, error) { return e.AblAsyncReadAlloc() }},
	{"ext-arc", "extension: ARC vs LRU vs hStorage-DB, Q21", SingleQueryEnv,
		func(e *Env, _ Params) (Result, error) { return e.ExtARC() }},
}

// lastWorkers is the worker count of the experiments that run one: the
// last -workers entry (0, the experiment's default, when there is none).
func lastWorkers(p Params) int {
	if len(p.Workers) == 0 {
		return 0
	}
	return p.Workers[len(p.Workers)-1]
}

// Suite runs registry experiments over lazily loaded datasets: a dataset
// is loaded when the first experiment that needs it runs, so experiments
// that build their own storage never pay for a TPC-H load.
type Suite struct {
	Cfg Config
	// Out receives the load progress lines; nil discards them.
	Out  io.Writer
	envs [ThroughputEnv + 1]*Env
}

// Run runs one experiment.
func (s *Suite) Run(x Experiment, p Params) (Result, error) {
	e, err := s.env(x.Env)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	return x.Run(e, p)
}

func (s *Suite) env(kind EnvKind) (*Env, error) {
	if s.envs[kind] != nil {
		return s.envs[kind], nil
	}
	out := s.Out
	if out == nil {
		out = io.Discard
	}
	var (
		e   *Env
		err error
	)
	switch kind {
	case NoEnv:
		e = &Env{Cfg: s.Cfg}
	case SingleQueryEnv:
		fmt.Fprintln(out, "loading dataset...")
		if e, err = NewEnv(s.Cfg); err == nil {
			fmt.Fprintf(out, "loaded: %d data pages (%.1f MB)\n\n", e.Data, float64(e.Data)*8/1024)
		}
	case ThroughputEnv:
		e, err = NewEnv(s.Cfg.ThroughputConfig())
	}
	s.envs[kind] = e
	return e, err
}
