// Command bench is the repository's one benchmark: five closed-loop
// workloads driven through the engine's Go packages, end-to-end metrics
// on two clocks (sim_* for the modelled SSD+HDD system, host_* for this
// Go program), output checks, and per-layer metrics from public Stats()
// deltas, a traced pass and a probe pass. See README.md.
//
//	go run -C bench .                       # whole suite, human tables
//	go run -C bench . -aa                   # suite twice, A/A table
//	go run -C bench . -only oltp_1w -cpuprofile /tmp/cpu.prof
//	bash bench/run.sh --workload tpch_scan --seed 3 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		only       = flag.String("only", "", "run one workload (also -workload)")
		seed       = flag.Int64("seed", 1, "seed of every generated input")
		seconds    = flag.Float64("seconds", refSeconds, "nominal length of each measured phase; sizes the chunk counts, so the same value always runs the same ops")
		trace      = flag.Int("trace", -1, "0: end-to-end metrics only, 1: per-layer metrics only (traced pass, probes, LRU arm), default both; with -workload the last stdout line is the result as one JSON object")
		aa         = flag.Bool("aa", false, "run the suite twice and compare every end-to-end metric against its bound")
		jsonOut    = flag.String("json", "", "write one JSON object per workload to this file")
		traceDir   = flag.String("tracedir", "", "write the traced pass of each workload as Chrome trace JSON into this directory")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the measured phases (use with -only; keep it outside the repository)")
		memProfile = flag.String("memprofile", "", "write an allocation profile at exit")
		deadlineX  = flag.Float64("deadline", 5, "watchdog: a workload may take this many times its expected time")
	)
	flag.StringVar(only, "workload", "", "run one workload and print the result line")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	contract := false
	flag.Visit(func(f *flag.Flag) { contract = contract || f.Name == "workload" })

	selected := workloads
	if *only != "" {
		w, ok := workloadByName(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: no workload %q\n", *only)
			return 2
		}
		selected = []workload{w}
	}
	if *seconds < 1 || *seconds > 600 {
		fmt.Fprintf(os.Stderr, "bench: -seconds %v out of range\n", *seconds)
		return 2
	}
	opt := options{
		seed:      *seed,
		scale:     scale{seconds: *seconds},
		e2e:       *trace != 1,
		layers:    *trace != 0,
		traceDir:  *traceDir,
		deadlineX: *deadlineX,
	}
	if contract {
		opt.deadlineCap = 170 * time.Second
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}

	fmt.Printf("bench: seed %d, %v s per measured phase, %s, GOMAXPROCS %d\n", opt.seed, *seconds, runtime.Version(), runtime.GOMAXPROCS(0))
	results := runSuite(selected, opt)
	for _, r := range results {
		printResult(os.Stdout, r)
	}
	code := 0
	for _, r := range results {
		if !r.correct() {
			code = 1
		}
	}

	if *aa {
		fmt.Printf("\nbench: A/A — second pass of the same code, same seed\n")
		again := runSuite(selected, opt)
		if !printAA(os.Stdout, results, again) {
			code = 1
		}
	}

	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, results); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			code = 1
		}
	}
	if *memProfile != "" {
		if err := writeHeapProfile(*memProfile); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			code = 1
		}
	}
	if contract {
		// The driver's contract: the last line of stdout is the result,
		// and a measured run exits 0 even when it reports correct=false.
		line, err := json.Marshal(contractLine(results[0], *trace))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Printf("%s\n", line)
		return 0
	}
	return code
}

// runSuite measures the workloads one after another. The probe pass is
// workload-independent: it runs once and its numbers repeat on every row.
func runSuite(ws []workload, opt options) []*result {
	var probed map[string]float64
	probe := func() map[string]float64 {
		if probed == nil {
			probed = runProbes(opt.scale)
		}
		return probed
	}
	var out []*result
	for _, w := range ws {
		start := time.Now()
		r := run(w, opt, probe)
		fmt.Fprintf(os.Stderr, "bench: %s done in %.1f s\n", w.name, time.Since(start).Seconds())
		out = append(out, r)
	}
	return out
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
