// Command hbench regenerates the tables and figures of the hStorage-DB
// paper's evaluation (Section 6), the extension experiments and the
// ablations against the simulated hybrid storage system. Everything it
// reports is simulated: wall-clock cost per layer is `make bench`, the
// end-to-end gate is the benchmark in bench/.
//
// Usage:
//
//	hbench -exp all
//	hbench -exp fig5,fig6,table5 -sf 0.02 -cache 0.7
//	hbench -exp txnscale -workers 1,2,4,8 -json metrics.json
//	hbench -exp iosched -trace trace.json -metrics
//
// `hbench -h` lists the experiment ids with what each one measures; the
// list comes from the registry in internal/experiments, which is also the
// order `-exp all` runs them in.
//
// With -json, every experiment's structured results are also written to
// the given file as one versioned JSON document (schema "hbench/v1")
// keyed by experiment id, so successive runs can be compared
// mechanically (see cmd/benchdiff).
//
// With -trace, every layer of the run — I/O scheduler queueing, device
// service, buffer pool miss fills, lock waits, WAL flushes and
// checkpoints, group commits — records spans on the simulated clock into
// a bounded ring buffer (-tracecap), written at exit as Chrome
// trace-event JSON for Perfetto or chrome://tracing. -tracesample
// 1/N-samples the per-request spans; a fixed-seed single-stream run
// traces deterministically when every request is sampled (the default).
//
// With -metrics, the metrics registry — dotted-name counters, gauges and
// latency histograms from all layers — is dumped to stdout after the
// experiments finish, and embedded in the -json document when both are
// given.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"hstoragedb/internal/experiments"
	"hstoragedb/internal/obs"
)

// benchSchema versions the -json document layout. Bump it when the
// top-level shape changes; cmd/benchdiff refuses files it doesn't know.
const benchSchema = "hbench/v1"

// benchFile is the versioned -json document.
type benchFile struct {
	Schema      string             `json:"schema"`
	Config      experiments.Config `json:"config"`
	Experiments map[string]any     `json:"experiments"`
	Metrics     map[string]any     `json:"metrics,omitempty"`
}

// expUsage is the -exp flag's help text: every registry id, then one line
// per experiment.
func expUsage() string {
	var ids, docs strings.Builder
	for _, x := range experiments.Registry() {
		ids.WriteString(x.ID + " ")
		fmt.Fprintf(&docs, "\n  %-9s %s", x.ID, x.Doc)
	}
	return "comma-separated experiment ids (" + ids.String() + "all)" + docs.String()
}

func main() {
	log.SetFlags(0)
	exp := flag.String("exp", "all", expUsage())
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor")
	cache := flag.Float64("cache", 0.7, "SSD cache size as a fraction of total data pages")
	bp := flag.Float64("bp", 0.04, "buffer pool size as a fraction of total data pages")
	workMem := flag.Int("workmem", 3000, "blocking-operator memory budget in tuples")
	seed := flag.Int64("seed", 0, "query parameter seed")
	streams := flag.Int("streams", 3, "query streams in the throughput and iosched tests")
	txns := flag.Int("txns", 150, "transactions per configuration in the OLTP/iosched experiments; total transactions per sweep point in txnscale (split across workers)")
	workersFlag := flag.String("workers", "1,2,4,8", "comma-separated worker counts for the txnscale experiment")
	tenantsFlag := flag.String("tenants", "4,2,1,1", "comma-separated tenant weights for the tenants experiment (tenant IDs 1..n)")
	scanBlocks := flag.Int("scanblocks", 3000, "per-tenant scan-stream demand in blocks for the tenants experiment")
	scanRounds := flag.Int("scanrounds", 6, "revenue sweeps by the analytics stream in the htap experiment")
	shardsFlag := flag.String("shards", "1,2,4", "comma-separated shard counts for the shards experiment (counts below 1 are clamped to 1)")
	xshard := flag.Float64("xshard", 0.2, "fraction of cross-shard transfers in the shards experiment's cross-shard arm (clamped into [0,1])")
	jsonPath := flag.String("json", "", "write per-experiment metrics to this file as versioned JSON (schema hbench/v1)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file of every layer's spans (open in Perfetto)")
	traceCap := flag.Int("tracecap", 0, "trace ring-buffer capacity in spans (0 = default 65536; oldest spans drop first)")
	traceSample := flag.Int("tracesample", 1, "record per-request spans for 1 in N requests (1 = all; >1 trades fidelity for memory)")
	metricsDump := flag.Bool("metrics", false, "dump the metrics registry (counters, gauges, histograms) to stdout after the run")
	flag.Parse()

	traceSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "trace" {
			traceSet = true
		}
	})
	if traceSet && *tracePath == "" {
		log.Fatal("-trace needs an output path, e.g. -trace trace.json")
	}
	if *tracePath == "" && (*traceCap != 0 || *traceSample != 1) {
		log.Fatal("-tracecap/-tracesample only make sense with -trace")
	}
	if *traceSample < 1 {
		log.Fatal("-tracesample must be >= 1")
	}

	// The observability set is shared by every instance the experiments
	// build: the registry accumulates across experiments, the tracer
	// keeps the most recent spans up to its capacity.
	var set *obs.Set
	if *tracePath != "" || *metricsDump {
		set = &obs.Set{Reg: obs.NewRegistry()}
		if *tracePath != "" {
			set.Tracer = obs.NewTracer(obs.TraceConfig{Capacity: *traceCap, SampleEvery: *traceSample})
		}
	}

	cfg := experiments.Config{
		SF:              *sf,
		CacheRatio:      *cache,
		BufferPoolRatio: *bp,
		WorkMem:         *workMem,
		Seed:            *seed,
		Obs:             set,
	}
	params := experiments.Params{
		Streams:    *streams,
		Txns:       *txns,
		ScanBlocks: *scanBlocks,
		ScanRounds: *scanRounds,
		XShard:     clampXShard(*xshard),
	}
	var err error
	if params.Workers, err = parseWorkers(*workersFlag); err != nil {
		log.Fatalf("-workers: %v", err)
	}
	if params.TenantWeights, err = parseTenants(*tenantsFlag); err != nil {
		log.Fatalf("-tenants: %v", err)
	}
	if params.Shards, err = parseShards(*shardsFlag); err != nil {
		log.Fatalf("-shards: %v", err)
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(strings.ToLower(id))] = true
	}

	fmt.Printf("hbench: SF=%g cache=%.0f%% of data, bp=%.0f%%, workmem=%d tuples\n",
		cfg.SF, 100*cfg.CacheRatio, 100*cfg.BufferPoolRatio, cfg.WorkMem)
	suite := &experiments.Suite{Cfg: cfg, Out: os.Stdout}

	// results accumulates each experiment's structured results for -json.
	results := map[string]any{}
	for _, x := range experiments.Registry() {
		if !want["all"] && !want[x.ID] {
			continue
		}
		res, err := suite.Run(x, params)
		if err != nil {
			log.Fatalf("%s: %v", x.ID, err)
		}
		results[x.ID] = res
		fmt.Println(res.Format())
	}
	if len(results) == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched %q\n", *exp)
		os.Exit(2)
	}

	if *metricsDump {
		fmt.Println("metrics registry:")
		fmt.Print(set.Reg.Format())
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatalf("-trace: %v", err)
		}
		if err := set.Tracer.WriteChromeTrace(f); err != nil {
			log.Fatalf("-trace: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("-trace: %v", err)
		}
		if n := set.Tracer.Dropped(); n > 0 {
			fmt.Printf("trace written to %s (%d spans; ring overflowed, oldest %d dropped — raise -tracecap)\n",
				*tracePath, set.Tracer.Len(), n)
		} else {
			fmt.Printf("trace written to %s (%d spans)\n", *tracePath, set.Tracer.Len())
		}
	}
	if *jsonPath != "" {
		doc := benchFile{Schema: benchSchema, Config: cfg, Experiments: results}
		if *metricsDump {
			doc.Metrics = set.Reg.JSONSnapshot()
		}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			log.Fatalf("-json: marshal: %v", err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			log.Fatalf("-json: %v", err)
		}
		fmt.Printf("metrics written to %s\n", *jsonPath)
	}
}
