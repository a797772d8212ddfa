// Package obs is the metrics registry behind smtsimd's /metrics and
// /healthz and the fleet client's exposition: counters and gauges
// sampled at scrape time, fixed-bucket histograms and sum/count
// summaries, rendered as Prometheus text exposition format 0.0.4 with
// no external dependencies.
//
// The component that increments a series declares its family once —
// name, help text and type — by registering the handle it owns. The
// handle is a field resolved when the component is built, so an
// increment is one atomic add: no map lookup, no lock, no allocation.
// Families render in registration order.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
)

// micros is the fixed-point scale of the sums the registry renders:
// they are kept in millionths of their unit, so a sum stays integral
// and adding to it stays an atomic add.
const micros = 1e6

// Histogram is a cumulative histogram over fixed bucket upper bounds.
// Registered as a summary, it renders only its sum and count.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // one per bound, then +Inf
	count   atomic.Int64
	sum     atomic.Int64 // millionths of the observed unit
}

// NewHistogram builds a histogram over ascending bucket upper bounds;
// nil bounds make a summary.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.count.Add(1)
	h.sum.Add(int64(math.Round(v * micros)))
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
}

// family is one registered metric family.
type family struct {
	name, help, typ string
	label           string
	values          []string          // label values; nil when unlabelled
	value           func(i int) int64 // samples the series for values[i] (i is 0 when unlabelled)
	micros          bool              // value is in millionths, rendered as a float
	hist            *Histogram
}

// Registry is an ordered set of metric families. Registration and
// rendering are safe for concurrent use.
type Registry struct {
	mu   sync.Mutex
	fams []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(f *family) {
	r.mu.Lock()
	r.fams = append(r.fams, f)
	r.mu.Unlock()
}

// families snapshots the registered families, so sampling callbacks
// run without the registry lock held. Registration only appends, so
// the snapshot's elements never change.
func (r *Registry) families() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fams
}

func unlabelled(v func() int64) func(int) int64 { return func(int) int64 { return v() } }

// Counter registers a counter family sampled from v, typically the Load
// method of the atomic.Int64 its owner increments.
func (r *Registry) Counter(name, help string, v func() int64) {
	r.add(&family{name: name, help: help, typ: "counter", value: unlabelled(v)})
}

// Gauge registers a gauge family sampled from v at scrape time.
func (r *Registry) Gauge(name, help string, v func() int64) {
	r.add(&family{name: name, help: help, typ: "gauge", value: unlabelled(v)})
}

// CounterVec registers a counter family with one label whose values are
// fixed now; v(i) samples the series labelled values[i].
func (r *Registry) CounterVec(name, help, label string, values []string, v func(i int) int64) {
	r.add(&family{name: name, help: help, typ: "counter", label: label, values: values, value: v})
}

// GaugeVec is CounterVec for a gauge family.
func (r *Registry) GaugeVec(name, help, label string, values []string, v func(i int) int64) {
	r.add(&family{name: name, help: help, typ: "gauge", label: label, values: values, value: v})
}

// MicrosCounterVec is CounterVec for a float total its owner keeps in
// millionths (seconds kept as microseconds); it renders as v(i)/1e6.
func (r *Registry) MicrosCounterVec(name, help, label string, values []string, v func(i int) int64) {
	r.add(&family{name: name, help: help, typ: "counter", label: label, values: values, value: v, micros: true})
}

// Histogram registers a histogram family over h.
func (r *Registry) Histogram(name, help string, h *Histogram) {
	r.add(&family{name: name, help: help, typ: "histogram", hist: h})
}

// Summary registers a summary family over h: its sum and count, no
// quantiles.
func (r *Registry) Summary(name, help string, h *Histogram) {
	r.add(&family{name: name, help: help, typ: "summary", hist: h})
}

// Value samples the unlabelled counter or gauge family name; 0 when no
// such family is registered.
func (r *Registry) Value(name string) int64 {
	for _, f := range r.families() {
		if f.name == name && f.value != nil && f.values == nil {
			return f.value(0)
		}
	}
	return 0
}

// Write renders every family in registration order.
func (r *Registry) Write(w io.Writer) {
	for _, f := range r.families() {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		switch {
		case f.hist != nil:
			f.hist.write(w, f.name, f.typ == "histogram")
		case f.values == nil:
			fmt.Fprintf(w, "%s %d\n", f.name, f.value(0))
		case f.micros:
			for i, lv := range f.values {
				fmt.Fprintf(w, "%s{%s=%q} %g\n", f.name, f.label, lv, float64(f.value(i))/micros)
			}
		default:
			for i, lv := range f.values {
				fmt.Fprintf(w, "%s{%s=%q} %d\n", f.name, f.label, lv, f.value(i))
			}
		}
	}
}

// ServeHTTP serves the registry as a Prometheus scrape.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.Write(w)
}

func (h *Histogram) write(w io.Writer, name string, buckets bool) {
	if buckets {
		var cum int64
		for i, ub := range h.bounds {
			cum += h.buckets[i].Load()
			fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, ub, cum)
		}
		cum += h.buckets[len(h.bounds)].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	}
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sum.Load())/micros)
	fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
}
