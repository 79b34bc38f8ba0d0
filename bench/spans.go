package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"hstoragedb/internal/obs"
)

// interval is a half-open stretch [lo, hi) of one timeline.
type interval struct{ lo, hi time.Duration }

// union merges intervals into a sorted list of disjoint ones, so nested
// or overlapping spans (a log force inside a group commit, two shards
// preparing in parallel) are counted once.
func union(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.lo <= last.hi {
			if iv.hi > last.hi {
				last.hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// covered is how much of [lo, hi) the disjoint sorted intervals cover.
func covered(merged []interval, lo, hi time.Duration) time.Duration {
	i := sort.Search(len(merged), func(i int) bool { return merged[i].hi > lo })
	var sum time.Duration
	for ; i < len(merged) && merged[i].lo < hi; i++ {
		a, b := merged[i].lo, merged[i].hi
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		sum += b - a
	}
	return sum
}

// wallSpan is one wall-clock span the benchmark records around its own
// call into a layer: name, start and end since the recorder started, the
// span that caused it (-1 for a root) and the op it belongs to.
type wallSpan struct {
	Name       string
	Start, End time.Duration
	Parent     int
	Op         int
}

// wallRecorder keeps wall spans in memory until the traced pass ends. A
// nil recorder (the untraced run) records nothing.
type wallRecorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []wallSpan
}

func newWallRecorder() *wallRecorder { return &wallRecorder{t0: time.Now()} }

// begin opens a span and returns its id (-1 when disabled).
func (r *wallRecorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans = append(r.spans, wallSpan{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// end closes the span. rename, when non-empty, replaces its name: a
// commit only knows whether it ran two-phase once it has run.
func (r *wallRecorder) end(id int, rename string) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].End = now
	if rename != "" {
		r.spans[id].Name = rename
	}
	r.mu.Unlock()
}

// spanTotal sums the spans of one name.
type spanTotal struct {
	Count int
	Total time.Duration
	// Self is Total minus the part of each span its child spans cover.
	Self time.Duration
}

// totals aggregates closed spans by name, with self time.
func totals(spans []wallSpan) map[string]spanTotal {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[string]spanTotal)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		t := out[s.Name]
		t.Count++
		t.Total += s.End - s.Start
		t.Self += s.End - s.Start - covered(union(children[i]), s.Start, s.End)
		out[s.Name] = t
	}
	return out
}

// perSpanUs is a span name's mean duration per span, in microseconds.
func (t spanTotal) perSpanUs() float64 {
	if t.Count == 0 {
		return 0
	}
	return float64(t.Total) / float64(time.Microsecond) / float64(t.Count)
}

// opInterval is one op on the simulated timeline: the track (session
// clock id) it ran on and its admission and completion instants.
type opInterval struct {
	track      int64
	start, end time.Duration
}

// waitSpans are the engine's top-level simulated wait spans: while one
// is open on an op's track, the op is blocked on storage, the log or a
// group-commit leader. Whatever of an op's latency they do not cover is
// CPU charge, or a wait no span records.
var waitSpans = map[string]bool{
	"bufferpool/miss.fill": true,
	"wal/flush":            true,
	"wal/checkpoint":       true,
	"txn/groupcommit":      true,
}

// simAgg folds the simulated-clock spans of the traced pass.
type simAgg struct {
	byName  map[string]time.Duration // "cat/name" → summed duration (inclusive)
	spans   int64
	latency time.Duration // summed op latency
	waited  time.Duration // part of it covered by waitSpans on the op's track
	out     *traceWriter
}

func newSimAgg(out *traceWriter) *simAgg {
	return &simAgg{byName: make(map[string]time.Duration), out: out}
}

// fold adds one drained batch of spans and the ops that completed in it.
func (a *simAgg) fold(spans []obs.Span, ops []opInterval) {
	waits := make(map[int64][]interval)
	for _, s := range spans {
		name := s.Cat + "/" + s.Name
		a.byName[name] += s.Dur
		if waitSpans[name] && s.Dur > 0 {
			waits[s.TID] = append(waits[s.TID], interval{s.Start, s.Start + s.Dur})
		}
		a.out.sim(s)
	}
	a.spans += int64(len(spans))
	for track := range waits {
		waits[track] = union(waits[track])
	}
	for _, op := range ops {
		a.latency += op.end - op.start
		a.waited += covered(waits[op.track], op.start, op.end)
	}
}

// drain empties the tracer into the aggregate.
func (a *simAgg) drain(tr *obs.Tracer, ops []opInterval) {
	spans := tr.Spans()
	tr.Reset()
	a.fold(spans, ops)
}

// traceWriter streams a Chrome trace-event file (Perfetto,
// chrome://tracing): simulated spans under pid 1 as they are drained,
// the benchmark's wall spans under pid 2 at the end. Nil writes nothing.
type traceWriter struct {
	f     *os.File
	w     *bufio.Writer
	first bool
	err   error
}

func newTraceWriter(path string) (*traceWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	t := &traceWriter{f: f, w: bufio.NewWriter(f), first: true}
	_, t.err = t.w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	return t, nil
}

func (t *traceWriter) event(ev map[string]any) {
	if t.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		t.err = err
		return
	}
	if !t.first {
		t.w.WriteByte(',')
	}
	t.first = false
	t.w.WriteByte('\n')
	_, t.err = t.w.Write(b)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func (t *traceWriter) sim(s obs.Span) {
	if t == nil {
		return
	}
	ev := map[string]any{"name": s.Name, "cat": s.Cat, "ph": "X", "pid": 1, "tid": s.TID, "ts": us(s.Start), "dur": us(s.Dur)}
	if s.Dur == 0 {
		ev["ph"] = "i"
	}
	if len(s.Args) > 0 {
		ev["args"] = s.Args
	}
	t.event(ev)
}

// close writes the wall spans and finishes the file.
func (t *traceWriter) close(wall []wallSpan) error {
	if t == nil {
		return nil
	}
	for i, s := range wall {
		if s.End < 0 {
			continue
		}
		t.event(map[string]any{"name": s.Name, "cat": "bench", "ph": "X", "pid": 2, "tid": 1, "ts": us(s.Start), "dur": us(s.End - s.Start),
			"args": map[string]any{"id": i, "parent": s.Parent, "op": s.Op}})
	}
	if t.err == nil {
		_, t.err = t.w.WriteString("\n]}\n")
	}
	if t.err == nil {
		t.err = t.w.Flush()
	}
	if cerr := t.f.Close(); t.err == nil {
		t.err = cerr
	}
	if t.err != nil {
		return fmt.Errorf("trace %s: %w", t.f.Name(), t.err)
	}
	return nil
}
