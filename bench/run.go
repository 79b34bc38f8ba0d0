package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/obs"
)

// scale sizes a run. Chunk counts are derived from the nominal measured
// seconds through each workload's fixed rate, never from a stopwatch, so
// the same seed and seconds always execute the same ops and the
// simulated numbers repeat as far as the engine's do; tiny is the
// unit-test size.
type scale struct {
	seconds float64
	tiny    bool
}

// refSeconds is the measured-phase length the workloads' chunk counts
// are stated for (the issue's full-size suite).
const refSeconds = 20

func (s scale) pick(full, tiny int) int {
	if s.tiny {
		return tiny
	}
	return full
}

func (s scale) pickF(full, tiny float64) float64 {
	if s.tiny {
		return tiny
	}
	return full
}

// chunks scales a workload's reference chunk count to the run.
func (s scale) chunks(atRef int) int {
	if s.tiny {
		return 1
	}
	n := int(float64(atRef) * s.seconds / refSeconds)
	if n < 1 {
		n = 1
	}
	return n
}

// params is what a workload's setup receives: everything it generates
// comes from seed; the engine sees only the generated inputs.
type params struct {
	seed  int64
	scale scale
	mode  hybrid.Mode // HStorage, or LRU for the reference arm
	obs   *obs.Set    // attached in the traced pass only
}

// env is one loaded, warmed-up instance of a workload.
type env interface {
	// lanes is the number of worker goroutines a chunk runs (1 or 2).
	lanes() int
	// chunk runs the ops of chunk i, lane k recording into ls[k].
	chunk(i int, ls []*lane)
	// now is the simulated time of the latest session clock; settle
	// first drains background device work, so that a phase is not
	// credited for writes it left in flight.
	now() time.Duration
	settle() time.Duration
	// counts reads the engine's public counters.
	counts() counts
	// finish runs the workload's closing act (crash, recovery,
	// verification) and reports into out.
	finish(out *closing)
	// close stops whatever setup started.
	close()
}

// closing is what finish reports.
type closing struct {
	recoveryMs float64
	layers     map[string]float64 // closing-act metrics (recovery counts, ...)
	checks     []check
}

func (c *closing) check(name string, ok bool, format string, args ...any) {
	c.checks = append(c.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// check is one output verification; a failed one counts as a failed op.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// workload is one row of the benchmark.
type workload struct {
	name string
	why  string
	// chunksAtRef is the chunk count at -seconds 20; chunkOps the ops of
	// one chunk (all lanes together).
	chunksAtRef int
	chunkOps    func(scale) int
	// lruChunks is how many leading chunks the hybrid.LRU reference arm
	// repeats for hybrid.gain_vs_lru (0: no arm). lruCheck makes the arm
	// part of the output check (per-op row counts must match), so it
	// also runs when per-layer metrics are not asked for.
	lruChunks int
	lruCheck  bool
	// expectS is the whole workload's expected wall seconds at the
	// reference size with every pass on, for the watchdog.
	expectS float64
	setup   func(params) (env, error)
}

// progress is what the watchdog can still read when a workload hangs.
type progress struct {
	planned, attempted, failed atomic.Int64
}

// lane is one worker's record of a phase.
type lane struct {
	prog  *progress
	track int64           // session clock id, the worker's trace track
	lat   []time.Duration // simulated admission-to-completion latency per completed op
	rows  []int64         // rows each op returned (queries), in op order
	ops   []opInterval    // traced pass only
	// samples are named simulated durations inside ops (a commit, by
	// kind); traced pass only.
	samples map[string][]time.Duration
	traced  bool
	wall    *wallRecorder
	opSeq   int
	// afterOp, when set, runs after every op, outside its latency.
	afterOp func()
}

// op records one finished op. A non-nil err is a failed op: the first
// few are printed, none stops the run.
func (l *lane) op(start, end time.Duration, rows int64, err error) {
	l.opSeq++
	l.prog.attempted.Add(1)
	if err != nil {
		if l.prog.failed.Add(1) <= 5 {
			fmt.Fprintf(os.Stderr, "bench: failed op: %v\n", err)
		}
	} else {
		l.lat = append(l.lat, end-start)
		l.rows = append(l.rows, rows)
		if l.traced {
			l.ops = append(l.ops, opInterval{track: l.track, start: start, end: end})
		}
	}
	if l.afterOp != nil {
		l.afterOp()
	}
}

// sample records a named simulated duration (traced pass only).
func (l *lane) sample(name string, d time.Duration) {
	if !l.traced {
		return
	}
	if l.samples == nil {
		l.samples = make(map[string][]time.Duration)
	}
	l.samples[name] = append(l.samples[name], d)
}

// span opens a wall span for the current op (no-op untraced).
func (l *lane) span(name string, parent int) int { return l.wall.begin(name, parent, l.opSeq) }

// tracing is the traced pass's extra state.
type tracing struct {
	set  *obs.Set
	wall *wallRecorder
	agg  *simAgg
}

// phase is the outcome of running chunks on one env.
type phase struct {
	lanes      []*lane
	chunkSim   []time.Duration // simulated time each chunk took
	chunkMs    []float64       // calibrated host milliseconds per chunk
	calibs     []float64       // every calibration loop timed, ms
	simElapsed time.Duration   // settled start to settled end
	counts     counts          // public counters over the phase
	host       hostCost
}

func (p *phase) latencies() []time.Duration {
	var all []time.Duration
	for _, l := range p.lanes {
		all = append(all, l.lat...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// runPhase runs chunks [0, n) on e, each bracketed by calibration loops
// (which begin with a forced collection).
func runPhase(e env, n int, prog *progress, tr *tracing) *phase {
	p := &phase{}
	for k := 0; k < e.lanes(); k++ {
		l := &lane{prog: prog}
		if tr != nil {
			l.traced, l.wall = true, tr.wall
		}
		p.lanes = append(p.lanes, l)
	}
	drain := func() {
		var ops []opInterval
		for _, l := range p.lanes {
			ops = append(ops, l.ops...)
			l.ops = l.ops[:0]
		}
		tr.agg.drain(tr.set.Tracer, ops)
	}
	start := e.settle()
	before := e.counts()
	var m meter
	if len(p.lanes) == 1 {
		// One stream: between two ops the lane can stop for a calibration
		// loop, so that a long chunk is metered in short segments, and
		// nothing else records while the tracer is drained, so drain as
		// soon as the ring is a quarter full instead of once per chunk.
		p.lanes[0].afterOp = func() {
			m.split()
			if tr != nil && tr.set.Tracer.Len() >= traceRing/4 {
				drain()
			}
		}
	}
	for i := 0; i < n; i++ {
		sim0 := e.now()
		m.open()
		e.chunk(i, p.lanes)
		m.close()
		p.chunkMs = append(p.chunkMs, m.take())
		p.chunkSim = append(p.chunkSim, e.now()-sim0)
		if tr != nil {
			drain()
		}
	}
	p.host, p.calibs = m.cost, m.calibs
	p.simElapsed = e.settle() - start
	p.counts = e.counts().since(before)
	return p
}

// traceRing is the traced pass's span ring: it has to hold the spans of
// the longest single op (a TPC-H query's every miss, queue wait and
// device service) plus the quarter-full drain threshold.
const traceRing = 1 << 21

// options select what a run measures.
type options struct {
	seed     int64
	scale    scale
	e2e      bool   // setup repeats and the end-to-end set
	layers   bool   // traced pass, probes, LRU arm: the per-layer set
	traceDir string // write Chrome traces of the traced pass here
	// deadlineX times the workload's expected time is its watchdog
	// deadline, which deadlineCap (if set) cuts short: the driver allows a
	// run 180 s.
	deadlineX   float64
	deadlineCap time.Duration
}

// deadline is the watchdog's allowance for w.
func (o options) deadline(w workload) time.Duration {
	x := o.scale.seconds / refSeconds
	if x < 1 || o.scale.tiny {
		x = 1 // set-up does not shrink with the measured phase
	}
	d := time.Duration(o.deadlineX * w.expectS * x * float64(time.Second))
	if o.deadlineCap > 0 && d > o.deadlineCap {
		d = o.deadlineCap
	}
	return d
}

// setupRepeats is how often a workload is set up when setup_s is
// reported: it is a short one-shot (and a process's first is slower, its
// heap still growing), so the median of five stands in.
const setupRepeats = 5

// result is everything one workload produced.
type result struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Chunks      int                `json:"chunks"`
	Ops         int                `json:"ops"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	TailPct     float64            `json:"tail_percentile"`
	Samples     int                `json:"samples"`
	EndToEnd    map[string]float64 `json:"end_to_end"`
	Layers      map[string]float64 `json:"layers,omitempty"`
	Checks      []check            `json:"checks"`
	Fingerprint string             `json:"sim_fingerprint"`
	// Counts are the public Stats() counters over the measured phase: what
	// sim_fingerprint hashes (with the op count and the simulated time).
	Counts counts `json:"counts,omitempty"`
	// Samples of the measured phase: calibrated host milliseconds and
	// simulated milliseconds per chunk, every calibration loop's
	// milliseconds, and the simulated per-op latency distribution.
	ChunkHostMs []float64          `json:"chunk_host_ms,omitempty"`
	ChunkSimMs  []float64          `json:"chunk_sim_ms,omitempty"`
	CalibLoopMs []float64          `json:"calib_loop_ms,omitempty"`
	LatencyMs   map[string]float64 `json:"sim_latency_ms,omitempty"`
	TimedOut    bool               `json:"timed_out,omitempty"`
	GoVersion   string             `json:"go_version"`
	GoMaxProcs  int                `json:"gomaxprocs"`
}

func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return !r.TimedOut && r.failedPct() <= 1
}

func (r *result) failedPct() float64 {
	if r.Attempted == 0 {
		return 100
	}
	return 100 * float64(r.Failed) / float64(r.Attempted)
}

// run measures one workload under the watchdog: past the deadline every
// goroutine is dumped to stderr, the ops not yet finished count as
// failed, and the caller moves on (the stuck goroutines are abandoned;
// nothing in the engine can cancel them).
func run(w workload, opt options, probe func() map[string]float64) *result {
	prog := &progress{}
	done := make(chan *result, 1)
	go func() { done <- measure(w, opt, prog, probe) }()
	deadline := opt.deadline(w)
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case r := <-done:
		return r
	case <-timer.C:
	}
	fmt.Fprintf(os.Stderr, "bench: %s exceeded its %v deadline; goroutine dump follows\n", w.name, deadline)
	buf := make([]byte, 1<<20)
	os.Stderr.Write(buf[:runtime.Stack(buf, true)])
	r := newResult(w, opt)
	r.TimedOut = true
	r.Attempted = prog.planned.Load()
	if r.Attempted == 0 {
		r.Attempted = 1
	}
	r.Failed = prog.failed.Load() + r.Attempted - prog.attempted.Load()
	r.zero(opt)
	return r
}

func newResult(w workload, opt options) *result {
	return &result{Workload: w.name, Seed: opt.seed, GoVersion: runtime.Version(), GoMaxProcs: runtime.GOMAXPROCS(0)}
}

// zero fills in every metric name with 0: a row that could not be
// measured still has the shape of one that was.
func (r *result) zero(opt options) {
	r.EndToEnd = zeroes(endToEnd)
	if opt.layers {
		r.Layers = zeroes(perLayer)
	}
}

func zeroes(defs []metricDef) map[string]float64 {
	m := make(map[string]float64, len(defs))
	for _, d := range defs {
		m[d.Name] = 0
	}
	return m
}

// measure is the body of run.
func measure(w workload, opt options, prog *progress, probe func() map[string]float64) *result {
	r := newResult(w, opt)
	chunks := opt.scale.chunks(w.chunksAtRef)
	if !opt.e2e && chunks > 2 {
		// A per-layer run reports counts per op, which half the ops give
		// as well; its time goes to the traced pass and the LRU arm.
		chunks = (chunks + 1) / 2
	}
	r.Chunks = chunks
	r.Ops = chunks * w.chunkOps(opt.scale)
	prog.planned.Store(int64(r.Ops))
	p := params{seed: opt.seed, scale: opt.scale, mode: hybrid.HStorage}
	fail := func(stage string, err error) *result {
		fmt.Fprintf(os.Stderr, "bench: %s: %s: %v\n", w.name, stage, err)
		r.Checks = append(r.Checks, check{Name: stage, Detail: err.Error()})
		r.Attempted, r.Failed = int64(r.Ops), int64(r.Ops)
		r.zero(opt)
		return r
	}

	// Set-up: generate, load, index, warm up. Timed like a chunk.
	repeats := 1
	if opt.e2e {
		repeats = setupRepeats
	}
	var (
		e       env
		setupMs []float64
		m       meter
	)
	for k := 0; k < repeats; k++ {
		if e != nil {
			e.close()
			e = nil
		}
		var err error
		m.open()
		e, err = w.setup(p)
		m.close()
		if err != nil {
			return fail("setup", err)
		}
		setupMs = append(setupMs, m.take())
	}

	ph := runPhase(e, chunks, prog, nil)
	heapMB := liveHeapMB()
	var fin closing
	e.finish(&fin)
	e.close()
	e = nil

	r.Attempted = prog.attempted.Load()
	r.Failed = prog.failed.Load()
	r.Checks = fin.checks
	lats := ph.latencies()
	r.Samples = len(lats)
	r.TailPct = tailPercentile(len(lats))
	r.Fingerprint = ph.counts.fingerprint(r.Ops, ph.simElapsed)
	r.Counts = ph.counts
	r.ChunkHostMs, r.CalibLoopMs = ph.chunkMs, ph.calibs
	for _, d := range ph.chunkSim {
		r.ChunkSimMs = append(r.ChunkSimMs, ms(d))
	}
	r.LatencyMs = latencyTable(lats)
	r.EndToEnd = endToEndMetrics(ph, lats, r, median(setupMs)/1000, heapMB, fin.recoveryMs)

	// The LRU reference arm: a freshly loaded copy of the data (not part
	// of setup_s) runs the leading chunks under block-level LRU.
	var lru *phase
	if w.lruChunks > 0 && (opt.layers || w.lruCheck) {
		n := w.lruChunks
		if n > chunks {
			n = chunks
		}
		pl := p
		pl.mode = hybrid.LRU
		le, err := w.setup(pl)
		if err != nil {
			return fail("lru setup", err)
		}
		lru = runPhase(le, n, &progress{}, nil)
		le.close()
		if w.lruCheck {
			r.Checks = append(r.Checks, rowCheck(ph.lanes[0].rows, lru.lanes[0].rows))
		}
	}

	if opt.layers {
		tp, tr, err := tracedPass(w, p, chunks, opt.traceDir)
		if err != nil {
			return fail("traced pass", err)
		}
		r.Layers = layerMetrics(ph, tp, tr, lru, fin, r)
		for k, v := range probe() {
			r.Layers[k] = v
		}
		r.Checks = append(r.Checks, tracedChecks(ph, tp, tr)...)
	}

	for _, c := range r.Checks {
		if !c.OK {
			r.Failed++
			fmt.Fprintf(os.Stderr, "bench: %s: check %s failed: %s\n", w.name, c.Name, c.Detail)
		}
	}
	return r
}

// rowCheck compares the per-op row counts of the LRU arm's chunks with
// the same ops of the hStorage run: the storage configuration must not
// change an answer.
func rowCheck(got, ref []int64) check {
	c := check{Name: "rows_equal_lru", OK: len(ref) > 0 && len(got) >= len(ref)}
	for i := 0; c.OK && i < len(ref); i++ {
		if got[i] != ref[i] {
			c.OK = false
			c.Detail = fmt.Sprintf("op %d returned %d rows under hStorage, %d under LRU", i, got[i], ref[i])
		}
	}
	if c.OK {
		c.Detail = fmt.Sprintf("%d ops", len(ref))
	} else if c.Detail == "" {
		c.Detail = fmt.Sprintf("%d hStorage ops against %d LRU ops", len(got), len(ref))
	}
	return c
}

// tracedPass loads a fresh copy with an obs.Set attached and repeats the
// first chunks with every op's spans collected.
func tracedPass(w workload, p params, chunks int, dir string) (*phase, *tracing, error) {
	n := 2
	if n > chunks {
		n = chunks
	}
	var out *traceWriter
	if dir != "" {
		var err error
		if out, err = newTraceWriter(dir + "/" + w.name + ".trace.json"); err != nil {
			return nil, nil, err
		}
	}
	tr := &tracing{
		set:  &obs.Set{Reg: obs.NewRegistry(), Tracer: obs.NewTracer(obs.TraceConfig{Capacity: traceRing})},
		wall: newWallRecorder(),
		agg:  newSimAgg(out),
	}
	p.obs = tr.set
	e, err := w.setup(p)
	if err != nil {
		return nil, nil, err
	}
	// Spans of set-up and warm-up are not the measured ops'.
	tr.set.Tracer.Reset()
	ph := runPhase(e, n, &progress{}, tr)
	e.close()
	return ph, tr, out.close(tr.wall.spans)
}

// tracedChecks verifies the traced pass: no span was lost, the traced
// chunks took the simulated time the untraced ones did (tracing must not
// change the model), and on one stream the top-level waits fit inside
// the op latency.
func tracedChecks(ph, tp *phase, tr *tracing) []check {
	var cs []check
	dropped := tr.set.Tracer.Dropped()
	cs = append(cs, check{Name: "trace_no_drops", OK: dropped == 0, Detail: fmt.Sprintf("%d dropped", dropped)})

	var untraced, traced time.Duration
	for i, d := range tp.chunkSim {
		traced += d
		untraced += ph.chunkSim[i]
	}
	rel := 0.0
	if untraced > 0 {
		rel = float64(traced-untraced) / float64(untraced)
	}
	bound := boundOf("sim_ops_per_s")
	cs = append(cs, check{Name: "trace_same_model", OK: rel <= bound && rel >= -bound,
		Detail: fmt.Sprintf("traced chunks %v simulated, untraced %v (%+.3f%%)", traced, untraced, 100*rel)})

	if len(tp.lanes) == 1 {
		ok := tr.agg.waited <= tr.agg.latency
		cs = append(cs, check{Name: "trace_residual_nonnegative", OK: ok,
			Detail: fmt.Sprintf("waits %v of latency %v", tr.agg.waited, tr.agg.latency)})
	}
	return cs
}

// runLanes runs fn(k) on one goroutine per lane and waits for all.
func runLanes(n int, fn func(k int)) {
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			fn(k)
		}(k)
	}
	wg.Wait()
}
