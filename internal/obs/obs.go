// Package obs is the repository's observability plane: a dependency-free
// (stdlib-only) metrics registry of counters, gauges and fixed-bucket
// histograms with Prometheus text-format exposition, the shared traffic
// accountant both the simulated router and the TCP transport report
// per-party bandwidth through (traffic.go), and an operational HTTP
// server exposing /metrics, /healthz, /readyz and net/http/pprof
// (http.go).
//
// Hot-path discipline: every instrument update is a single atomic
// operation on a pre-resolved handle — no locks, no allocations, no map
// lookups (BenchmarkMetricsHotPath gates 0 allocs/op). Label lookup
// (CounterVec.With and friends) takes a registry lock and may allocate,
// so instances resolve their handles once at start and cache them, the
// same way they cache sessions.
//
// Everything is nil-safe: methods on a nil *Registry return nil
// instruments, and updates on nil instruments are no-ops. Layers
// therefore instrument unconditionally — a run without a registry
// attached pays one nil check per update and nothing else.
//
// Label values are identifiers with small fixed arity (a peer index, a
// session kind, an engine name, an epoch) — never payload-derived or
// fmt.Sprintf-formatted session strings, which would explode cardinality
// and leak the session namespace into the metrics plane (the asyncftvet
// labelfmt taint rule enforces this).
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down (or ratchet up via SetMax —
// the high-water-mark form).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// SetMax raises the gauge to v if v exceeds the current value — the
// lock-free high-water-mark update (mailbox depth, queue peaks).
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

// Value reads the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. Buckets are cumulative-upper-
// bound style (Prometheus `le`); observations above the last bound land
// in the implicit +Inf bucket. Updates are one atomic add plus one CAS
// for the sum — alloc-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last = +Inf
	sum    atomic.Uint64   // float64 bits
}

// DefLatencyBuckets is the default seconds-scale latency bucketing, from
// sub-millisecond loopback commits to multi-second epoch switches.
var DefLatencyBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h != nil {
		h.Observe(time.Since(start).Seconds())
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// metric kinds.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one metric name: either a single unlabeled instrument or a
// set of children keyed by one label's values.
type family struct {
	name, help string
	kind       kind
	label      string // "" = unlabeled
	bounds     []float64

	mu       sync.Mutex
	single   interface{}            // unlabeled instrument
	children map[string]interface{} // label value -> instrument
	byIndex  map[int]interface{}    // integer-label cache (peer ids, epochs)
}

// Registry is a concurrent collection of metric families. The zero value
// is not usable; create one with NewRegistry. A nil *Registry is a valid
// no-op sink.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	traffics []attachedTraffic
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// familyFor returns (creating if needed) the family for name, enforcing
// kind/label consistency: re-registering an existing name with a
// different shape is a programming error and panics loudly.
func (r *Registry) familyFor(name, help string, k kind, label string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, label: label, bounds: bounds,
			children: make(map[string]interface{}), byIndex: make(map[int]interface{})}
		r.families[name] = f
		return f
	}
	if f.kind != k || f.label != label {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s{%s}, was %s{%s}",
			name, k, label, f.kind, f.label))
	}
	return f
}

// newInstrument builds one instrument of the family's kind.
func (f *family) newInstrument() interface{} {
	switch f.kind {
	case kindCounter:
		return &Counter{}
	case kindGauge:
		return &Gauge{}
	default:
		h := &Histogram{bounds: f.bounds}
		h.counts = make([]atomic.Uint64, len(f.bounds)+1)
		return h
	}
}

// instrument returns the family's unlabeled instrument.
func (f *family) instrument() interface{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.single == nil {
		f.single = f.newInstrument()
	}
	return f.single
}

// child returns the instrument for one label value.
func (f *family) child(value string) interface{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.children[value]
	if c == nil {
		c = f.newInstrument()
		f.children[value] = c
	}
	return c
}

// childIndex is child for integer label values, cached so repeated
// lookups by small index skip the strconv.
func (f *family) childIndex(i int) interface{} {
	f.mu.Lock()
	if c := f.byIndex[i]; c != nil {
		f.mu.Unlock()
		return c
	}
	f.mu.Unlock()
	c := f.child(strconv.Itoa(i))
	f.mu.Lock()
	f.byIndex[i] = c
	f.mu.Unlock()
	return c
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.familyFor(name, help, kindCounter, "", nil).instrument().(*Counter)
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.familyFor(name, help, kindGauge, "", nil).instrument().(*Gauge)
}

// Histogram registers (or finds) an unlabeled histogram with the given
// bucket upper bounds (nil = DefLatencyBuckets). Bounds must be sorted
// ascending.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	return r.familyFor(name, help, kindHistogram, "le", bounds).instrument().(*Histogram)
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a counter family with one label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.familyFor(name, help, kindCounter, label, nil)}
}

// With returns the counter for one label value. Resolve once and cache
// the handle on hot paths.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(value).(*Counter)
}

// WithIndex is With for integer label values (peer ids, epochs).
func (v *CounterVec) WithIndex(i int) *Counter {
	if v == nil {
		return nil
	}
	return v.f.childIndex(i).(*Counter)
}

// GaugeVec is a gauge family keyed by one label.
type GaugeVec struct{ f *family }

// GaugeVec registers (or finds) a gauge family with one label.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.familyFor(name, help, kindGauge, label, nil)}
}

// With returns the gauge for one label value.
func (v *GaugeVec) With(value string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.child(value).(*Gauge)
}

// WithIndex is With for integer label values.
func (v *GaugeVec) WithIndex(i int) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.childIndex(i).(*Gauge)
}

// Snapshot returns the current value of the named counter or gauge as a
// float (histograms report their count), plus whether the family exists —
// the test/e2e convenience for asserting on series without scraping.
func (r *Registry) Snapshot(name string) (map[string]float64, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	f := r.families[name]
	r.mu.Unlock()
	if f == nil {
		return nil, false
	}
	out := make(map[string]float64)
	read := func(in interface{}) float64 {
		switch in := in.(type) {
		case *Counter:
			return float64(in.Value())
		case *Gauge:
			return float64(in.Value())
		case *Histogram:
			return float64(in.Count())
		}
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.single != nil {
		out[""] = read(f.single)
	}
	for v, c := range f.children {
		out[v] = read(c)
	}
	return out, true
}

// Total returns the named family's Snapshot summed over its label values —
// a run-wide count such as BA rounds across both engines — or 0 if the
// family does not exist.
func (r *Registry) Total(name string) float64 {
	vals, _ := r.Snapshot(name)
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum
}

// sortedFamilies returns the families in name order (exposition
// determinism).
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
