package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"hstoragedb/internal/obs"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for n, want := range map[int]float64{
		30000: 99, // oltp_*, bank_lsm
		192:   90, // tpch_power, eight chunks
		96:    85, // tpch_power, four chunks
		75:    85, // tpch_scan, fifteen chunks
		48:    75,
		20:    50,
		5:     50, // too few for any: the ladder's floor
	} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", n, got, want)
		}
	}
	// The rule itself: at least ten samples beyond the pick, fewer than
	// ten beyond the next step up the ladder.
	for n := 20; n < 5000; n++ {
		p := tailPercentile(n)
		if beyond := n - rank(p, n); beyond < 10 {
			t.Fatalf("n=%d: p%g leaves %d samples beyond", n, p, beyond)
		}
		for i, q := range tailLadder {
			if q == p && i > 0 {
				if beyond := n - rank(tailLadder[i-1], n); beyond >= 10 {
					t.Fatalf("n=%d: picked p%g though p%g leaves %d beyond", n, p, tailLadder[i-1], beyond)
				}
			}
		}
	}
}

func durations(vs ...int) []time.Duration {
	out := make([]time.Duration, len(vs))
	for i, v := range vs {
		out[i] = time.Duration(v)
	}
	return out
}

func TestPercentileTailMeanMidmean(t *testing.T) {
	s := durations(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 100)
	if got := percentile(s, 50); got != 10 {
		t.Errorf("p50 = %d, want 10 (nearest rank)", got)
	}
	if got := percentile(s, 100); got != 100 {
		t.Errorf("p100 = %d, want 100", got)
	}
	// Beyond p50 lie the ten largest: 11..19 and 100.
	if got := tailMean(s, 50); got != (11+12+13+14+15+16+17+18+19+100)/10 {
		t.Errorf("tailMean(p50) = %d", got)
	}
	// The middle half is samples 6..15; the outlier does not reach it.
	if got := midmean(s); got != (6+7+8+9+10+11+12+13+14+15)/10 {
		t.Errorf("midmean = %d", got)
	}
	if midmean(nil) != 0 || percentile(nil, 50) != 0 {
		t.Error("empty samples must read 0")
	}
}

func TestCalibrateArithmetic(t *testing.T) {
	wall := 200 * time.Millisecond
	if got := calibrate(wall, calibRefMs, calibRefMs); math.Abs(got-200) > 1e-9 {
		t.Errorf("on the reference box calibrated = wall: got %v", got)
	}
	// A host in a slow phase runs the loop and the work twice as slowly.
	if got := calibrate(2*wall, 2*calibRefMs, 2*calibRefMs); math.Abs(got-200) > 1e-9 {
		t.Errorf("slow phase must cancel: got %v", got)
	}
	// The phase changed during the work: the mean of the two loops.
	if got := calibrate(wall, calibRefMs, 3*calibRefMs); math.Abs(got-100) > 1e-9 {
		t.Errorf("mean of before and after: got %v", got)
	}
	if calibrate(wall, 0, 0) != 0 {
		t.Error("no calibration, no figure")
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	if s := spreadPct([]float64{90, 100, 100, 100, 110}); s != 0 {
		t.Errorf("quartiles of 90 100 100 100 110 coincide: spread %v", s)
	}
	if s := spreadPct([]float64{80, 90, 100, 110, 120}); math.Abs(s-20) > 1e-9 {
		t.Errorf("spread = %v, want 20", s)
	}
}

var testSink [][]byte

// The meter must leave its own calibration loops (allocation-heavy by
// design) out of the cost it reports, also when it splits the work.
func TestMeterExcludesCalibration(t *testing.T) {
	const objects = 20000
	var m meter
	m.open()
	for i := 0; i < objects; i++ {
		testSink = append(testSink[:0], make([]byte, 64))
		if i%5000 == 0 {
			m.start.at = m.start.at.Add(-segmentEvery) // force a split
			m.split()
		}
	}
	m.close()
	if len(m.calibs) != 6 {
		t.Fatalf("%d calibration loops, want 6 (open, 4 splits, close)", len(m.calibs))
	}
	if m.cost.mallocs < objects || m.cost.mallocs > objects+2000 {
		t.Errorf("metered %d mallocs for %d objects: the loops' %d leaked in", m.cost.mallocs, objects, calibPages*(1+calibSmall))
	}
	if ms := m.take(); ms <= 0 {
		t.Errorf("calibrated ms = %v", ms)
	}
	if m.take() != 0 {
		t.Error("take must reset")
	}
}

func TestUnionAndCovered(t *testing.T) {
	got := union([]interval{{20, 50}, {0, 5}, {10, 30}, {50, 60}, {80, 90}})
	want := []interval{{0, 5}, {10, 60}, {80, 90}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("union = %v, want %v", got, want)
	}
	if c := covered(want, 3, 85); c != 2+50+5 {
		t.Errorf("covered = %d, want 57", c)
	}
	if c := covered(want, 60, 80); c != 0 {
		t.Errorf("covered a gap = %d", c)
	}
}

func TestWallSpanSelfTime(t *testing.T) {
	// txn [0,100] with begin [10,30], op [20,50] (overlapping), commit
	// [60,90] holding force [70,80]; one span left open.
	spans := []wallSpan{
		{Name: "txn", Start: 0, End: 100, Parent: -1},
		{Name: "begin", Start: 10, End: 30, Parent: 0},
		{Name: "op", Start: 20, End: 50, Parent: 0},
		{Name: "commit", Start: 60, End: 90, Parent: 0},
		{Name: "force", Start: 70, End: 80, Parent: 3},
		{Name: "txn", Start: 200, End: -1, Parent: -1},
	}
	tot := totals(spans)
	if got := tot["txn"]; got.Count != 1 || got.Total != 100 || got.Self != 100-40-30 {
		t.Errorf("txn = %+v, want count 1 total 100 self 30", got)
	}
	if got := tot["commit"]; got.Total != 30 || got.Self != 20 {
		t.Errorf("commit = %+v, want total 30 self 20", got)
	}
	if got := tot["force"]; got.Self != got.Total {
		t.Errorf("a leaf's self time is its total: %+v", got)
	}
	r := newWallRecorder()
	id := r.begin("commit", -1, 7)
	r.end(id, "commit.2pc")
	if s := r.spans[id]; s.Name != "commit.2pc" || s.Op != 7 || s.End < s.Start {
		t.Errorf("recorded %+v", s)
	}
	var off *wallRecorder
	off.end(off.begin("x", -1, 0), "") // the untraced run records nothing
}

func TestSimSpanAggregation(t *testing.T) {
	a := newSimAgg(nil)
	spans := []obs.Span{
		// Track 1: a miss fill holding a queue wait and a device service
		// (nested: reported inclusively, never added to the fill), then
		// a group commit holding the log force.
		{Cat: "bufferpool", Name: "miss.fill", TID: 1, Start: 10, Dur: 40},
		{Cat: "iosched", Name: "queue.wait", TID: 1, Start: 12, Dur: 8},
		{Cat: "device", Name: "service", TID: 1, Start: 20, Dur: 30},
		{Cat: "txn", Name: "groupcommit", TID: 1, Start: 60, Dur: 30},
		{Cat: "wal", Name: "flush", TID: 1, Start: 65, Dur: 20},
		// Track 2 waits while track 1's op runs: not track 1's wait.
		{Cat: "wal", Name: "flush", TID: 2, Start: 0, Dur: 100},
		// An instant span counts as a span and adds no time.
		{Cat: "lockmgr", Name: "wait", TID: 1, Start: 5, Dur: 0},
	}
	a.fold(spans, []opInterval{{track: 1, start: 0, end: 100}})
	if a.spans != 7 {
		t.Errorf("spans = %d", a.spans)
	}
	if a.byName["wal/flush"] != 120 || a.byName["device/service"] != 30 {
		t.Errorf("inclusive sums by name: %v", a.byName)
	}
	// Top-level waits on track 1: [10,50] and [60,90] (the force inside
	// the group commit is counted once).
	if a.latency != 100 || a.waited != 70 {
		t.Errorf("latency %d waited %d, want 100 and 70: residual must be 30", a.latency, a.waited)
	}
	// An op cut by the batch boundary only counts the waits inside it.
	a.fold([]obs.Span{{Cat: "wal", Name: "flush", TID: 3, Start: 0, Dur: 50}}, []opInterval{{track: 3, start: 40, end: 60}})
	if a.waited != 80 {
		t.Errorf("waited = %d, want 80", a.waited)
	}
}

func TestWorseByDirection(t *testing.T) {
	lower := metricDef{Better: "lower"}
	higher := metricDef{Better: "higher"}
	if got := worseBy(lower, 100, 110); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("lower-is-better 100→110: %v", got)
	}
	if got := worseBy(higher, 100, 110); math.Abs(got+0.10) > 1e-12 {
		t.Errorf("higher-is-better 100→110 is an improvement: %v", got)
	}
	if got := worseBy(higher, 100, 80); math.Abs(got-0.20) > 1e-12 {
		t.Errorf("higher-is-better 100→80: %v", got)
	}
}

// hungEnv is a workload whose second op never returns.
type hungEnv struct{ block chan struct{} }

func (e *hungEnv) lanes() int              { return 1 }
func (e *hungEnv) now() time.Duration      { return 0 }
func (e *hungEnv) settle() time.Duration   { return 0 }
func (e *hungEnv) counts() counts          { return counts{} }
func (e *hungEnv) finish(*closing)         {}
func (e *hungEnv) close()                  {}
func (e *hungEnv) chunk(_ int, ls []*lane) { ls[0].op(0, 1, 0, nil); <-e.block }

func TestWatchdogCountsUnfinishedOpsAsFailed(t *testing.T) {
	// The hung goroutine is abandoned, as in a real run: nothing in the
	// engine could cancel it either.
	e := &hungEnv{block: make(chan struct{})}
	w := workload{
		name: "hung", chunksAtRef: 1, expectS: 1,
		chunkOps: func(scale) int { return 10 },
		setup:    func(params) (env, error) { return e, nil },
	}
	start := time.Now()
	r := run(w, options{seed: 1, scale: scale{tiny: true}, layers: true, deadlineX: 1}, nil)
	if time.Since(start) > 5*time.Second {
		t.Fatalf("watchdog took %v", time.Since(start))
	}
	if !r.TimedOut || r.correct() {
		t.Fatalf("timed out %v, correct %v", r.TimedOut, r.correct())
	}
	if r.Attempted != 10 || r.Failed != 9 {
		t.Errorf("attempted %d failed %d, want 10 and 9 (one op finished)", r.Attempted, r.Failed)
	}
	if len(r.EndToEnd) != len(endToEnd) || len(r.Layers) != len(perLayer) {
		t.Errorf("a timed-out row still carries every metric name: %d, %d", len(r.EndToEnd), len(r.Layers))
	}
}

// benchmarkFile is BENCHMARK.json as far as the tests read it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// names returns the sorted metric names of defs.
func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Every workload at a tiny size, all passes on: the names the run emits
// are exactly the names BENCHMARK.json lists, with the same units,
// directions and bounds, and every output check passes.
func TestTinyRunEmitsExactlyBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}

	var e2e, layers []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the benchmark's list:\n%v\n%v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the benchmark's list")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the cap is 128", len(perLayer))
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(bf.Workloads), len(workloads))
	}

	opt := options{seed: 1, scale: scale{tiny: true}, e2e: true, layers: true, deadlineX: 5}
	results := runSuite(workloads, opt)
	for i, r := range results {
		if bf.Workloads[i].Name != r.Workload || bf.Workloads[i].Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, bf.Workloads[i].Name, r.Workload)
		}
		var excused int64
		for _, c := range r.Checks {
			if c.OK {
				continue
			}
			// Forty ops on two racing workers do not take the same
			// simulated time twice; at full size the traced chunks agree
			// with the untraced ones to 0.2-2.6 %.
			if r.Workload == "oltp_2w" && c.Name == "trace_same_model" {
				excused++
				continue
			}
			t.Errorf("%s: check %s failed: %s", r.Workload, c.Name, c.Detail)
		}
		if r.Failed != excused || r.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed", r.Workload, r.Failed, r.Attempted)
		}
		line := contractLine(r, 0)
		if got := len(line.Metrics); got != len(endToEnd) {
			t.Errorf("%s: -trace 0 line has %d metrics", r.Workload, got)
		}
		for _, d := range endToEnd {
			if v := r.EndToEnd[d.Name]; v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end %s = %v, must be a positive number", r.Workload, d.Name, v)
			}
		}
		if got, want := keys(r.Layers), names(perLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: per-layer names differ from the list:\n got %v\nwant %v", r.Workload, got, want)
		}
		for k, v := range r.Layers {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", r.Workload, k, v)
			}
		}
	}
}
