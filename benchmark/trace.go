package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"typecoin/internal/store"
)

// span is one timed call from the benchmark into a layer's public
// function. Times are nanoseconds since the tracer was created.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 when the span has no cause recorded
	Name   string `json:"name"`   // "<layer>.<call>"
	Round  int32  `json:"round"`  // the workload round the call belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// noSpan is the id of a span that was not recorded.
const noSpan = int32(-1)

// tracer keeps spans in memory until the workload ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	base time.Time
	// on is switched between epochs: the traced run alternates traced and
	// untraced epochs so the tracing overhead is measured in one process.
	on    atomic.Bool
	round atomic.Int32

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its id, or noSpan when tracing is off.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil || !t.on.Load() {
		return noSpan
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Round: t.round.Load(), Start: now})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if id == noSpan {
		return
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durations returns the duration of every closed span called name, in
// microseconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// selfTimes returns, per span name, each span's duration minus the time
// its child spans cover, in microseconds.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for i := range t.spans {
		if s := &t.spans[i]; s.Parent >= 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][]float64)
	for i := range t.spans {
		if s := &t.spans[i]; s.End > 0 {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[i])/1e3)
		}
	}
	return out
}

// layerSelfSeconds sums self time per layer (the span name up to the
// first dot).
func (t *tracer) layerSelfSeconds() map[string]float64 {
	out := make(map[string]float64)
	for name, selfs := range t.selfTimes() {
		layer, _, _ := strings.Cut(name, ".")
		for _, us := range selfs {
			out[layer] += us / 1e6
		}
	}
	return out
}

// writeFile writes every span as one JSON array.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedStore is the timing decorator handed to chain.Open in a traced
// run. Writes (Apply, AppendBlock, Flush) are recorded as spans whose
// parent is the span the writer has open on this node; reads are counted
// and their time summed, because a page query issues dozens of them and
// a reader goroutine shares the store with the writer.
type tracedStore struct {
	inner store.Store
	t     *tracer
	// parent is the span the benchmark has open around a call into this
	// node (ProcessBlock, Accept, Announce); noSpan outside such calls.
	parent atomic.Int32

	gets      atomic.Int64
	iterates  atomic.Int64
	iterateNs atomic.Int64
	failed    atomic.Int64
}

func newTracedStore(inner store.Store, t *tracer) *tracedStore {
	s := &tracedStore{inner: inner, t: t}
	s.parent.Store(noSpan)
	return s
}

func (s *tracedStore) fail(err error) {
	if err != nil && err != store.ErrNotFound {
		s.failed.Add(1)
	}
}

func (s *tracedStore) Get(key []byte) ([]byte, error) {
	s.gets.Add(1)
	v, err := s.inner.Get(key)
	s.fail(err)
	return v, err
}

func (s *tracedStore) Has(key []byte) (bool, error) {
	s.gets.Add(1)
	ok, err := s.inner.Has(key)
	s.fail(err)
	return ok, err
}

func (s *tracedStore) Iterate(prefix []byte, fn func(key, value []byte) error) error {
	start := time.Now()
	err := s.inner.Iterate(prefix, fn)
	s.iterates.Add(1)
	s.iterateNs.Add(int64(time.Since(start)))
	return err
}

// IterateFrom keeps the engines' seek fast path reachable through the
// decorator (store.IterateFrom probes for this method).
func (s *tracedStore) IterateFrom(prefix, from []byte, fn func(key, value []byte) error) error {
	start := time.Now()
	err := store.IterateFrom(s.inner, prefix, from, fn)
	s.iterates.Add(1)
	s.iterateNs.Add(int64(time.Since(start)))
	return err
}

func (s *tracedStore) Apply(b *store.Batch) error {
	id := s.t.begin("store.apply", s.parent.Load())
	err := s.inner.Apply(b)
	s.t.end(id)
	s.fail(err)
	return err
}

func (s *tracedStore) AppendBlock(data []byte) (store.BlockRef, error) {
	id := s.t.begin("store.append_block", s.parent.Load())
	ref, err := s.inner.AppendBlock(data)
	s.t.end(id)
	s.fail(err)
	return ref, err
}

func (s *tracedStore) ReadBlock(ref store.BlockRef) ([]byte, error) {
	s.gets.Add(1)
	v, err := s.inner.ReadBlock(ref)
	s.fail(err)
	return v, err
}

func (s *tracedStore) Flush() error {
	id := s.t.begin("store.flush", s.parent.Load())
	err := s.inner.Flush()
	s.t.end(id)
	s.fail(err)
	return err
}

func (s *tracedStore) Close() error { return s.inner.Close() }

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or 0 for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(float64(len(s))*p/100+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median is the mean of the two middle values for an even count, so the
// epoch median does not jump when the number of epochs changes by one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
