package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// isNull tells a printed end-to-end metric that does not exist on this
// workload (no log, so no recovery) from one that is 0.
func isNull(r *result, name string) bool {
	return name == "sim_recovery_ms" && r.EndToEnd[name] == 0
}

// printed is the end-to-end set in print order: BENCHMARK.json's nine
// plus the three a relative bound cannot gate.
var printed = append(append([]metricDef(nil), endToEnd...),
	metricDef{Name: "sim_op_p50_ms", Unit: "ms", Better: "lower"},
	metricDef{Name: "sim_recovery_ms", Unit: "ms", Better: "lower"},
	metricDef{Name: "failed_ops_pct", Unit: "%", Better: "lower"},
)

func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "\n== %s  seed %d  %d chunks, %d ops (%d attempted, %d failed)  tail = p%g of %d samples  sim_fingerprint %s\n",
		r.Workload, r.Seed, r.Chunks, r.Ops, r.Attempted, r.Failed, r.TailPct, r.Samples, r.Fingerprint)
	if r.TimedOut {
		fmt.Fprintf(w, "   TIMED OUT: unfinished ops counted as failed\n")
	}
	if r.EndToEnd != nil {
		fmt.Fprintf(w, "   %-28s %14s  %-10s %s\n", "end-to-end", "value", "unit", "bound")
		for _, d := range printed {
			v, ok := r.EndToEnd[d.Name]
			if !ok {
				continue
			}
			val := fmt.Sprintf("%14.6g", v)
			if isNull(r, d.Name) {
				val = fmt.Sprintf("%14s", "null")
			}
			bound := ""
			if d.Bound > 0 {
				bound = fmt.Sprintf("%g %%", 100*d.Bound)
			}
			fmt.Fprintf(w, "   %-28s %s  %-10s %s\n", d.Name, val, d.Unit, bound)
		}
	}
	for _, c := range r.Checks {
		state := "ok  "
		if !c.OK {
			state = "FAIL"
		}
		fmt.Fprintf(w, "   check %s %-28s %s\n", state, c.Name, c.Detail)
	}
	if r.Layers == nil {
		return
	}
	if v := r.Layers["host.calib_spread_pct"]; v > 30 {
		fmt.Fprintf(w, "   WARNING: calibration loop spread %.0f %% — the host was unsteady, host_* numbers are soft\n", v)
	}
	layer := ""
	for _, d := range perLayer {
		l, rest, _ := strings.Cut(d.Name, ".")
		if l != layer {
			layer = l
			fmt.Fprintf(w, "   -- %s\n", layer)
		}
		fmt.Fprintf(w, "      %-34s %14.6g  %s\n", "."+rest, r.Layers[d.Name], d.Unit)
	}
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's own direction (negative: b is better).
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	rel := (b - a) / math.Abs(a)
	if d.Better == "higher" {
		rel = -rel
	}
	return rel
}

// printAA prints, per (metric, workload), the relative difference of two
// passes of the same code against the metric's bound, both ways round:
// whichever pass is called the baseline, the other must not breach.
func printAA(w io.Writer, first, second []*result) bool {
	ok := true
	fmt.Fprintf(w, "   %-12s %-22s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i, a := range first {
		b := second[i]
		for _, d := range endToEnd {
			va, vb := a.EndToEnd[d.Name], b.EndToEnd[d.Name]
			diff := math.Max(worseBy(d, va, vb), worseBy(d, vb, va))
			mark := ""
			if diff > d.Bound {
				mark, ok = "  BREACH", false
			}
			fmt.Fprintf(w, "   %-12s %-22s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", a.Workload, d.Name, va, vb, 100*diff, 100*d.Bound, mark)
		}
		// failed_ops_pct has an absolute bound: 0.05 points.
		fa, fb := a.failedPct(), b.failedPct()
		mark := ""
		if math.Abs(fa-fb) > 0.05 || !a.correct() || !b.correct() {
			mark, ok = "  BREACH", false
		}
		fmt.Fprintf(w, "   %-12s %-22s %14.6g %14.6g %8.2fpt %5.2fpt%s\n", a.Workload, "failed_ops_pct", fa, fb, math.Abs(fa-fb), 0.05, mark)
		same := "differs"
		if a.Fingerprint == b.Fingerprint {
			same = "identical"
		}
		fmt.Fprintf(w, "   %-12s %-22s %14s %14s  %s\n", a.Workload, "sim_fingerprint", a.Fingerprint, b.Fingerprint, same)
	}
	if ok {
		fmt.Fprintf(w, "   A/A: every end-to-end metric within its bound\n")
	} else {
		fmt.Fprintf(w, "   A/A: BREACH — two passes of the same code disagree by more than a bound\n")
	}
	return ok
}

func writeJSON(path string, results []*result) error {
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// contractMetric is one entry of the result line's metrics object.
type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractResult is the one-line result the driver reads.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

// contractLine picks the metric set by -trace: 0 the end-to-end set, 1
// the per-layer set, each exactly as BENCHMARK.json lists it.
func contractLine(r *result, trace int) contractResult {
	defs, vals := endToEnd, r.EndToEnd
	if trace == 1 {
		defs, vals = perLayer, r.Layers
	}
	out := contractResult{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]contractMetric, len(defs))}
	for _, d := range defs {
		out.Metrics[d.Name] = contractMetric{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}
