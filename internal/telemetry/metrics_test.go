package telemetry

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// parseExposition parses a Prometheus text rendering into sample name ->
// value, failing on any malformed line. It is deliberately strict: the
// smoke target relies on the same shape.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	sample := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	meta := regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$`)
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !meta.MatchString(line) {
				t.Fatalf("malformed metadata line %q", line)
			}
			continue
		}
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("sample %q has bad value: %v", line, err)
		}
		out[m[1]+m[2]] = v
	}
	return out
}

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("write: %v", err)
	}
	return b.String()
}

func TestScrapeParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "operations")
	g := r.Gauge("test_depth", "queue depth")
	r.GaugeFunc("test_height", "tip height", func() float64 { return 42 })
	v := r.CounterVec("test_msgs_total", "messages by peer", "peer")
	h := r.Histogram("test_latency_seconds", "latency", []float64{0.01, 0.1, 1})

	c.Add(7)
	g.Set(-3)
	v.With("n1").Inc()
	v.With("n1").Inc()
	v.With(`we"ird\peer`).Inc()
	h.Observe(0.005)
	h.Observe(0.5)
	h.Observe(99)

	samples := parseExposition(t, render(t, r))
	want := map[string]float64{
		"test_ops_total":                         7,
		"test_depth":                             -3,
		"test_height":                            42,
		`test_msgs_total{peer="n1"}`:             2,
		`test_latency_seconds_bucket{le="0.01"}`: 1,
		`test_latency_seconds_bucket{le="0.1"}`:  1,
		`test_latency_seconds_bucket{le="1"}`:    2,
		`test_latency_seconds_bucket{le="+Inf"}`: 3,
		"test_latency_seconds_count":             3,
	}
	for name, wantV := range want {
		if got, ok := samples[name]; !ok || got != wantV {
			t.Errorf("sample %s = %v (present=%v), want %v", name, got, ok, wantV)
		}
	}
	if got := samples["test_latency_seconds_sum"]; math.Abs(got-99.505) > 1e-9 {
		t.Errorf("histogram sum = %v, want 99.505", got)
	}
	if !strings.Contains(render(t, r), `test_msgs_total{peer="we\"ird\\peer"}`) {
		t.Errorf("label escaping missing:\n%s", render(t, r))
	}
}

func TestHistogramBucketCorrectness(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "x", []float64{1, 2, 4})
	// Boundary values land in the bucket whose bound they equal (le is
	// inclusive); values past the last bound land in +Inf.
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	counts := h.BucketCounts()
	wantCounts := []uint64{2, 2, 2, 2} // (<=1)=2, (1,2]=2, (2,4]=2, +Inf=2
	for i, w := range wantCounts {
		if counts[i] != w {
			t.Errorf("bucket %d count = %d, want %d", i, counts[i], w)
		}
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}
	if math.Abs(h.Sum()-117) > 1e-9 {
		t.Errorf("sum = %v, want 117", h.Sum())
	}
	// Cumulative rendering: each bucket includes everything below it.
	samples := parseExposition(t, render(t, r))
	cum := []struct {
		le   string
		want float64
	}{{"1", 2}, {"2", 4}, {"4", 6}, {"+Inf", 8}}
	for _, c := range cum {
		name := fmt.Sprintf(`h_bucket{le="%s"}`, c.le)
		if samples[name] != c.want {
			t.Errorf("%s = %v, want %v", name, samples[name], c.want)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("second registration of dup_total did not panic")
		}
	}()
	r.Gauge("dup_total", "second")
}

func TestNilSafety(t *testing.T) {
	// Every collector and the registry itself must be usable as nil: an
	// uninstrumented subsystem makes the same calls and they no-op.
	var c *Counter
	var g *Gauge
	var h *Histogram
	var v *CounterVec
	var r *Registry
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(-1)
	h.Observe(3)
	v.With("x").Inc()
	r.GaugeFunc("x", "y", func() float64 { return 0 })
	if r.Counter("x", "y") != nil || r.Histogram("x", "y", nil) != nil {
		t.Fatal("nil registry must hand out nil collectors")
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || v.Total() != 0 {
		t.Fatal("nil collectors must read zero")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil registry write: %v", err)
	}
}

func TestValueAndNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a").Add(3)
	r.CounterVec("b_total", "b", "k").With("x").Add(2)
	r.CounterVec("b_total_unused", "b2", "k")
	h := r.Histogram("c_seconds", "c", []float64{1})
	h.Observe(0.5)
	h.Observe(2)
	for name, want := range map[string]float64{"a_total": 3, "b_total": 2, "c_seconds": 2} {
		if got, ok := r.Value(name); !ok || got != want {
			t.Errorf("Value(%s) = %v,%v want %v", name, got, ok, want)
		}
	}
	if _, ok := r.Value("missing"); ok {
		t.Error("Value(missing) reported ok")
	}
	names := r.Names()
	if len(names) != 4 {
		t.Errorf("Names() = %v, want 4 entries", names)
	}
}

func TestConcurrentHotPath(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	h := r.Histogram("h_seconds", "h", LatencyBuckets)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
	if math.Abs(h.Sum()-8) > 1e-6 {
		t.Errorf("histogram sum = %v, want 8", h.Sum())
	}
}

// TestCounterVecWithExistingLabelsAllocatesNothing pins the hot path of
// every instrumented request: finding the child of a label set seen before
// must not build a key string or a replacer.
func TestCounterVecWithExistingLabelsAllocatesNothing(t *testing.T) {
	v := NewRegistry().CounterVec("test_requests_total", "requests by route and code", "route", "code")
	first := v.With("/address", "200")
	escaped := v.With("a\"b\\c\n", "500")
	allocs := testing.AllocsPerRun(200, func() {
		if v.With("/address", "200") != first || v.With("a\"b\\c\n", "500") != escaped {
			t.Fatal("With returned the wrong child")
		}
	})
	if allocs != 0 {
		t.Errorf("With on an existing label set allocates %v times, want 0", allocs)
	}
	if got := v.Snapshot(); len(got) != 2 {
		t.Errorf("label sets = %v, want 2 children", got)
	}
}
