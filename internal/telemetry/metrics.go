// Package telemetry is the node's zero-dependency observability layer:
// a metrics registry with Prometheus text exposition, structured leveled
// logging helpers over log/slog, and a bounded block-lifecycle event
// tracer.
//
// The paper's commitment guarantees — txouts spent at most once,
// confirmation depth, longest-chain convergence — are runtime properties
// an operator must watch, not just test. Every subsystem (chain, p2p,
// mempool, store, sigcache, miner) registers its counters here and the
// daemon serves them at GET /metrics.
//
// Design rules:
//
//   - Hot paths are a single atomic op. Counter.Inc, Gauge.Set and
//     Histogram.Observe never take the registry lock.
//   - Every metric type is safe on a nil receiver (a no-op), so
//     subsystems thread optional telemetry without nil checks at each
//     call site — the same convention as the sigcache.
//   - Duplicate registration panics: two subsystems claiming the same
//     series is a programming error, caught at wiring time.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value. Nil-safe.
type Counter struct {
	v atomic.Uint64
}

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

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. Nil-safe.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into cumulative buckets, Prometheus
// style: bucket i counts observations <= Buckets[i], plus an implicit
// +Inf bucket. Nil-safe.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // one per bound, plus trailing +Inf
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket lists here are small (<= ~16) and the scan is
	// branch-predictable, beating a binary search at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// BucketCounts returns the non-cumulative per-bucket counts (the last
// entry is the +Inf bucket).
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// LatencyBuckets are the default bounds for operation latencies in
// seconds, spanning 100µs to ~10s.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// ExpBuckets returns n bounds starting at start, multiplying by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := 0; i < n; i++ {
		out[i] = v
		v *= factor
	}
	return out
}

// CounterVec is a family of counters distinguished by label values.
// Nil-safe: With on a nil vec returns a nil *Counter.
type CounterVec struct {
	mu       sync.Mutex
	labels   []string
	children map[string]*Counter
	order    []string
}

// With returns the child counter for the given label values (one per
// label name, in declaration order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	// The key is rendered into a stack buffer and looked up without being
	// converted to a string, so finding an existing child allocates nothing.
	var scratch [128]byte
	key := appendLabelKey(scratch[:0], v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[string(key)]
	if !ok {
		c = &Counter{}
		v.children[string(key)] = c
		v.order = append(v.order, string(key))
	}
	return c
}

// Snapshot returns every child's current value keyed by its rendered
// label set (e.g. `{peer="n3"}`) — the per-label view Total collapses.
func (v *CounterVec) Snapshot() map[string]uint64 {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]uint64, len(v.children))
	for key, c := range v.children {
		out[key] = c.Value()
	}
	return out
}

// Total returns the sum across all children.
func (v *CounterVec) Total() uint64 {
	if v == nil {
		return 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	var n uint64
	for _, c := range v.children {
		n += c.Value()
	}
	return n
}

// labelKey renders a {k="v",...} suffix. Values are escaped per the
// Prometheus text format.
func labelKey(names, values []string) string {
	return string(appendLabelKey(nil, names, values))
}

// appendLabelKey appends labelKey's rendering to b.
func appendLabelKey(b []byte, names, values []string) []byte {
	if len(names) == 0 {
		return b
	}
	b = append(b, '{')
	for i, name := range names {
		if i > 0 {
			b = append(b, ',')
		}
		val := ""
		if i < len(values) {
			val = values[i]
		}
		b = append(b, name...)
		b = append(b, `="`...)
		for j := 0; j < len(val); j++ {
			switch c := val[j]; c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			default:
				b = append(b, c)
			}
		}
		b = append(b, '"')
	}
	return append(b, '}')
}

// LabeledValue is one sample of a labeled gauge family: the value for
// one label value.
type LabeledValue struct {
	Label string
	Value float64
}

// family is one registered series (or vec of series) with its metadata.
type family struct {
	name string
	help string
	typ  string // "counter", "gauge", "histogram"

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	vec     *CounterVec
	fn      func() float64 // counterFunc / gaugeFunc

	// labeledFn renders a whole labeled gauge family at scrape time
	// (LabeledGaugeFunc); labelName names its single label.
	labeledFn func() []LabeledValue
	labelName string
}

// Registry holds a node's metric families and renders them in the
// Prometheus text exposition format. Nil-safe: registration methods on a
// nil registry return nil collectors, so an uninstrumented subsystem
// costs one nil check at wiring time and atomic no-ops afterwards.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register adds f, panicking on a duplicate name.
func (r *Registry) register(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate registration of %q", f.name))
	}
	r.families[f.name] = f
	r.order = append(r.order, f.name)
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.register(&family{name: name, help: help, typ: "counter", counter: c})
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.register(&family{name: name, help: help, typ: "gauge", gauge: g})
	return g
}

// Histogram registers and returns a histogram with the given bucket
// upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{
		bounds: append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
	r.register(&family{name: name, help: help, typ: "histogram", hist: h})
	return h
}

// CounterVec registers and returns a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	v := &CounterVec{labels: labels, children: make(map[string]*Counter)}
	r.register(&family{name: name, help: help, typ: "counter", vec: v})
	return v
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time. fn must be safe to call concurrently and must not call back into
// the registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&family{name: name, help: help, typ: "gauge", fn: fn})
}

// CounterFunc registers a counter whose (monotone) value is read from fn
// at scrape time — for subsystems that already keep their own counters,
// like the sigcache.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&family{name: name, help: help, typ: "counter", fn: fn})
}

// LabeledGaugeFunc registers a gauge family with one label whose full
// sample set is read from fn at scrape time — for per-partition views
// of a subsystem's own state (e.g. in-flight bodies per peer), where
// materializing N Gauge objects would just mirror state the subsystem
// already holds. fn must be safe to call concurrently and must not call
// back into the registry.
func (r *Registry) LabeledGaugeFunc(name, help, label string, fn func() []LabeledValue) {
	if r == nil {
		return
	}
	r.register(&family{name: name, help: help, typ: "gauge", labeledFn: fn, labelName: label})
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the text exposition format
// (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		switch {
		case f.counter != nil:
			fmt.Fprintf(&b, "%s %d\n", f.name, f.counter.Value())
		case f.gauge != nil:
			fmt.Fprintf(&b, "%s %d\n", f.name, f.gauge.Value())
		case f.fn != nil:
			fmt.Fprintf(&b, "%s %s\n", f.name, formatFloat(f.fn()))
		case f.labeledFn != nil:
			for _, lv := range f.labeledFn() {
				fmt.Fprintf(&b, "%s%s %s\n", f.name,
					labelKey([]string{f.labelName}, []string{lv.Label}), formatFloat(lv.Value))
			}
		case f.vec != nil:
			f.vec.mu.Lock()
			keys := append([]string(nil), f.vec.order...)
			vals := make([]uint64, len(keys))
			for i, k := range keys {
				vals[i] = f.vec.children[k].Value()
			}
			f.vec.mu.Unlock()
			if len(keys) == 0 {
				// An empty vec still emits one zero sample so the series
				// exists from first scrape (and dashboards see 0, not
				// absence).
				fmt.Fprintf(&b, "%s%s 0\n", f.name, labelKey(f.vec.labels,
					make([]string, len(f.vec.labels))))
			}
			for i, k := range keys {
				fmt.Fprintf(&b, "%s%s %d\n", f.name, k, vals[i])
			}
		case f.hist != nil:
			cum := uint64(0)
			counts := f.hist.BucketCounts()
			for i, bound := range f.hist.bounds {
				cum += counts[i]
				fmt.Fprintf(&b, "%s_bucket{le=\"%s\"} %d\n", f.name, formatFloat(bound), cum)
			}
			cum += counts[len(counts)-1]
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", f.name, cum)
			fmt.Fprintf(&b, "%s_sum %s\n", f.name, formatFloat(f.hist.Sum()))
			fmt.Fprintf(&b, "%s_count %d\n", f.name, cum)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Value returns the current value of the named family: counter or gauge
// value, func result, sum over a vec's children, or a histogram's
// observation count. ok is false for unknown names. Intended for tests
// and in-process assertions.
func (r *Registry) Value(name string) (v float64, ok bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	f, ok := r.families[name]
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	switch {
	case f.counter != nil:
		return float64(f.counter.Value()), true
	case f.gauge != nil:
		return float64(f.gauge.Value()), true
	case f.fn != nil:
		return f.fn(), true
	case f.labeledFn != nil:
		var sum float64
		for _, lv := range f.labeledFn() {
			sum += lv.Value
		}
		return sum, true
	case f.vec != nil:
		return float64(f.vec.Total()), true
	case f.hist != nil:
		return float64(f.hist.Count()), true
	}
	return 0, false
}

// VecValues returns the per-label values of a labeled counter family,
// keyed by rendered label set. Nil for unknown or unlabeled families.
func (r *Registry) VecValues(name string) map[string]uint64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	f, ok := r.families[name]
	r.mu.Unlock()
	if !ok || f.vec == nil {
		return nil
	}
	return f.vec.Snapshot()
}

// Names returns the registered family names, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]string(nil), r.order...)
	r.mu.Unlock()
	sort.Strings(out)
	return out
}

// Handler serves the registry in Prometheus text format (GET /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
