// Package obs is the engine-wide observability layer: a metrics
// registry shared by every subsystem and a deterministic request tracer
// stamped on the simulated clock.
//
// The paper's argument rests on where requests spend time — class
// queues, device positioning, cache hits — so every layer of the
// reproduction (iosched, device, hybrid cache, buffer pool, lock
// manager, WAL, transactions) registers counters, gauges, and
// histograms here under stable dotted names (`iosched.band.wait`,
// `bufferpool.miss`, `wal.groupcommit.batch`, ...) with optional
// per-class and per-tenant labels. Because all latencies are simulated,
// a fixed seed yields byte-for-byte identical metric dumps and traces,
// which makes both golden-testable — something real engines cannot do.
//
// Everything is nil-safe: a nil *Registry hands out inert instruments
// and a nil *Tracer drops spans, so uninstrumented construction paths
// (unit tests, standalone caches) need no guards.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Set bundles the two observability sinks a subsystem may be handed:
// the metrics registry and the request tracer. A nil *Set (or nil
// fields) disables the corresponding sink.
type Set struct {
	// Reg is the metrics registry, or nil to disable metrics.
	Reg *Registry
	// Tracer records request spans, or nil to disable tracing.
	Tracer *Tracer
}

// NewSet returns a Set with a fresh registry and a tracer using the
// default ring capacity and no sampling.
func NewSet() *Set {
	return &Set{Reg: NewRegistry(), Tracer: NewTracer(TraceConfig{})}
}

// Registry returns the set's registry; nil-safe (a nil Set yields a nil
// registry, whose instruments are inert).
func (s *Set) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.Reg
}

// Trace returns the set's tracer; nil-safe (a nil Set yields a nil
// tracer, which drops all spans).
func (s *Set) Trace() *Tracer {
	if s == nil {
		return nil
	}
	return s.Tracer
}

// With derives a set whose registry stamps the given labels onto every
// instrument (see Registry.With); the tracer is shared unchanged. The
// shard layer hands each engine stack a `shard=<id>` view so one
// registry holds every shard's metrics side by side. Nil-safe.
func (s *Set) With(labels ...Label) *Set {
	if s == nil {
		return nil
	}
	return &Set{Reg: s.Reg.With(labels...), Tracer: s.Tracer}
}

// Label is one key=value dimension attached to a metric, e.g. class or
// tenant. Labels are part of the metric's identity in the registry.
type Label struct {
	// Key is the dimension name ("class", "tenant", "dev").
	Key string
	// Value is the dimension value, already rendered to a string.
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// LInt is shorthand for a Label with an integer value (class ranks,
// tenant IDs). Callers build it once per instrument and cache the
// instrument, never per lookup.
func LInt(key string, value int64) Label {
	return Label{Key: key, Value: strconv.FormatInt(value, 10)}
}

// Counter is a monotonically increasing metric. Updates are single
// atomic adds; a nil Counter is inert.
type Counter struct {
	v atomic.Int64
}

// Add increases the counter by d (negative deltas are ignored to keep
// the counter monotone).
func (c *Counter) Add(d int64) {
	if c == nil || d <= 0 {
		return
	}
	c.v.Add(d)
}

// Inc increases the counter by one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can move in both directions (device busy
// horizon, queue depth). Updates are single atomic stores/adds; a nil
// Gauge is inert.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// SetMax raises the gauge to v if v is larger than the current value.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Add moves the gauge by d (either direction).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// HistVar is a registered histogram: the shared Histogram value guarded
// by a mutex so concurrent streams can observe into it. A nil HistVar
// is inert.
type HistVar struct {
	mu sync.Mutex
	h  Histogram
	// unit describes how samples should be rendered: "ns" for real
	// durations, "count" for integers recorded as time.Duration(n).
	unit string
}

// Observe records one sample.
func (hv *HistVar) Observe(v time.Duration) {
	if hv == nil {
		return
	}
	hv.mu.Lock()
	hv.h.Observe(v)
	hv.mu.Unlock()
}

// Snapshot returns an independent copy of the histogram.
func (hv *HistVar) Snapshot() Histogram {
	if hv == nil {
		return Histogram{}
	}
	hv.mu.Lock()
	defer hv.mu.Unlock()
	return hv.h
}

// Registry is the process-wide metric table: dotted name + sorted
// labels identify each instrument, created on first use and shared by
// every later lookup. Lookups take the registry lock once; the returned
// instrument is then updated with plain atomics, so hot paths cache the
// instrument, not the name.
//
// A Registry value is a view onto shared state: With derives a view
// that stamps extra labels onto every instrument it hands out, which is
// how per-shard engine stacks register `wal.appends{shard=2}` and
// friends without any layer knowing it runs inside a shard.
type Registry struct {
	s *regState
	// base labels are appended to every lookup through this view.
	base []Label
}

// regState is the shared instrument table behind one registry and all
// of its derived views.
type regState struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*HistVar
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		s: &regState{
			counters: make(map[string]*Counter),
			gauges:   make(map[string]*Gauge),
			hists:    make(map[string]*HistVar),
		},
	}
}

// With returns a view of the registry whose instruments all carry the
// given labels in addition to any per-lookup labels. The view shares
// the parent's instrument table: snapshots and dumps of either show
// both. Nil-safe (a nil registry derives a nil view).
func (r *Registry) With(labels ...Label) *Registry {
	if r == nil {
		return nil
	}
	base := append(append([]Label(nil), r.base...), labels...)
	return &Registry{s: r.s, base: base}
}

// withBase merges the view's base labels with the per-lookup ones.
func (r *Registry) withBase(labels []Label) []Label {
	if len(r.base) == 0 {
		return labels
	}
	return append(append([]Label(nil), r.base...), labels...)
}

// key renders the canonical identity: name{k1=v1,k2=v2} with label keys
// sorted, or the bare name without labels.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns (creating on first use) the counter registered under
// name and labels. Nil-safe: a nil registry returns a nil, inert
// counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	k := key(name, r.withBase(labels))
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	c := r.s.counters[k]
	if c == nil {
		c = &Counter{}
		r.s.counters[k] = c
	}
	return c
}

// Gauge returns (creating on first use) the gauge registered under name
// and labels. Nil-safe.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	k := key(name, r.withBase(labels))
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	g := r.s.gauges[k]
	if g == nil {
		g = &Gauge{}
		r.s.gauges[k] = g
	}
	return g
}

// Histogram returns (creating on first use) a latency histogram over
// the default bucket ladder, registered under name and labels.
// Nil-safe.
func (r *Registry) Histogram(name string, labels ...Label) *HistVar {
	return r.HistogramWith(nil, "ns", name, labels...)
}

// HistogramWith returns (creating on first use) a histogram over a
// custom bound table and unit ("ns" or "count"); nil bounds select the
// default latency ladder. The bounds and unit of the first registration
// win. Nil-safe.
func (r *Registry) HistogramWith(bounds []time.Duration, unit string, name string, labels ...Label) *HistVar {
	if r == nil {
		return nil
	}
	k := key(name, r.withBase(labels))
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	hv := r.s.hists[k]
	if hv == nil {
		hv = &HistVar{unit: unit}
		if bounds != nil {
			hv.h = NewHistogram(bounds)
		}
		r.s.hists[k] = hv
	}
	return hv
}

// Metric is one registry entry in a snapshot: its canonical name and
// either a scalar value (counters, gauges) or a histogram.
type Metric struct {
	// Name is the canonical identity: dotted name plus sorted labels.
	Name string
	// Kind is "counter", "gauge", or "histogram".
	Kind string
	// Value holds the scalar reading for counters and gauges.
	Value int64
	// Hist holds the histogram copy for histogram metrics, with Unit
	// describing the sample unit.
	Hist Histogram
	// Unit is "ns" or "count" for histograms, empty otherwise.
	Unit string
}

// Snapshot returns every registered metric sorted by (Kind group:
// counters, gauges, histograms; then Name). The ordering is total, so
// snapshots of identical runs render identically. Nil-safe.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	out := make([]Metric, 0, len(r.s.counters)+len(r.s.gauges)+len(r.s.hists))
	for k, c := range r.s.counters {
		out = append(out, Metric{Name: k, Kind: "counter", Value: c.Value()})
	}
	for k, g := range r.s.gauges {
		out = append(out, Metric{Name: k, Kind: "gauge", Value: g.Value()})
	}
	for k, hv := range r.s.hists {
		out = append(out, Metric{Name: k, Kind: "histogram", Hist: hv.Snapshot(), Unit: hv.unit})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return kindRank(out[i].Kind) < kindRank(out[j].Kind)
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// kindRank orders metric kinds in snapshots and dumps.
func kindRank(k string) int {
	switch k {
	case "counter":
		return 0
	case "gauge":
		return 1
	default:
		return 2
	}
}

// Format renders the full registry as a deterministic, human-readable
// dump: one line per counter/gauge, one summary line per histogram with
// count, mean, p50/p95/p99, and max. This is what `hbench -metrics`
// prints. Nil-safe.
func (r *Registry) Format() string {
	var b strings.Builder
	for _, m := range r.Snapshot() {
		switch m.Kind {
		case "counter", "gauge":
			fmt.Fprintf(&b, "%-10s %-52s %d\n", m.Kind, m.Name, m.Value)
		case "histogram":
			h := m.Hist
			if m.Unit == "count" {
				fmt.Fprintf(&b, "%-10s %-52s n=%d mean=%.1f p50=%d p95=%d p99=%d max=%d\n",
					m.Kind, m.Name, h.Count, histMeanF(h),
					countQ(h, 0.50), countQ(h, 0.95), countQ(h, 0.99), int64(h.Max))
			} else {
				fmt.Fprintf(&b, "%-10s %-52s n=%d mean=%v p50=%v p95=%v p99=%v max=%v\n",
					m.Kind, m.Name, h.Count, h.Mean(),
					h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max)
			}
		}
	}
	return b.String()
}

// histMeanF is the mean as a float for count-unit histograms, where
// integer division would round batch sizes like 2.5 down to 2.
func histMeanF(h Histogram) float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// countQ is a quantile of a count-unit histogram rounded up to the
// integer it represents: the within-bucket interpolation is fractional,
// but observed values are whole counts, so a batch-size histogram made
// entirely of 1s reports p50=1, not the interpolated 0.5 truncated to 0.
func countQ(h Histogram, q float64) int64 {
	return int64(math.Ceil(h.QuantileF(q)))
}

// JSONSnapshot renders the registry as a deterministic JSON-encodable
// map: canonical metric name to scalar (counters, gauges) or to a
// histogram summary object. encoding/json sorts map keys, so the
// serialized form is stable. Nil-safe.
func (r *Registry) JSONSnapshot() map[string]any {
	out := make(map[string]any)
	for _, m := range r.Snapshot() {
		switch m.Kind {
		case "counter", "gauge":
			out[m.Name] = m.Value
		case "histogram":
			h := m.Hist
			p50, p95, p99 := int64(h.Quantile(0.50)), int64(h.Quantile(0.95)), int64(h.Quantile(0.99))
			if m.Unit == "count" {
				p50, p95, p99 = countQ(h, 0.50), countQ(h, 0.95), countQ(h, 0.99)
			}
			out[m.Name] = map[string]any{
				"unit":  m.Unit,
				"count": h.Count,
				"sum":   int64(h.Sum),
				"max":   int64(h.Max),
				"p50":   p50,
				"p95":   p95,
				"p99":   p99,
			}
		}
	}
	return out
}

// Reset clears every registered instrument's value while keeping the
// instruments themselves (cached pointers stay valid). Nil-safe.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	for _, c := range r.s.counters {
		c.v.Store(0)
	}
	for _, g := range r.s.gauges {
		g.v.Store(0)
	}
	for _, hv := range r.s.hists {
		hv.mu.Lock()
		hv.h = Histogram{bounds: hv.h.bounds}
		hv.mu.Unlock()
	}
}
