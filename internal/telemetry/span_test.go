package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"typecoin/internal/chainhash"
	"typecoin/internal/clock"
)

func spanRef(i int) chainhash.Hash {
	return chainhash.HashB([]byte(fmt.Sprintf("span-%d", i)))
}

func TestSpanStoreStagesAndPairs(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(1000, 0))
	s := NewSpanStore(8, clk)
	reg := NewRegistry()
	hist := reg.Histogram("pair_seconds", "test", LatencyBuckets)
	s.ObservePair(SpanTx, StageSubmitted, StageAccepted, hist)

	ref := spanRef(1)
	s.Record(SpanTx, ref, StageSubmitted)
	clk.Advance(250 * time.Millisecond)
	s.Record(SpanTx, ref, StageAccepted)

	if hist.Count() != 1 {
		t.Fatalf("pair observations = %d, want 1", hist.Count())
	}
	if got := hist.Sum(); got != 0.25 {
		t.Fatalf("pair sum = %v, want 0.25", got)
	}

	// Duplicate stage records are ignored.
	s.Record(SpanTx, ref, StageAccepted)
	if hist.Count() != 1 {
		t.Fatalf("duplicate stage re-observed the pair")
	}

	snap, ok := s.Snapshot(ref)
	if !ok {
		t.Fatal("snapshot missing")
	}
	if snap.Ref != ref.String() || snap.Kind != "tx" || len(snap.Stages) != 2 {
		t.Fatalf("bad snapshot: %+v", snap)
	}
	if snap.Stages[0].Stage != StageSubmitted || snap.Stages[1].Stage != StageAccepted {
		t.Fatalf("stage order wrong: %+v", snap.Stages)
	}
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("get %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return body
}

func httpCode(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("get %s: %v", url, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestSpanStorePairOutOfOrder(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(1000, 0))
	s := NewSpanStore(8, clk)
	reg := NewRegistry()
	hist := reg.Histogram("pair_ooo_seconds", "test", LatencyBuckets)
	s.ObservePair(SpanTx, StageDurable, StageIndexed, hist)

	// Indexed lands before Durable (two layers stamp them): the pair
	// fires when the earlier stage is finally recorded, clamped at zero.
	ref := spanRef(2)
	s.Record(SpanTx, ref, StageIndexed)
	clk.Advance(time.Second)
	s.Record(SpanTx, ref, StageDurable)
	if hist.Count() != 1 {
		t.Fatalf("out-of-order pair not observed")
	}
	if hist.Sum() != 0 {
		t.Fatalf("negative delta not clamped: sum=%v", hist.Sum())
	}
}

func TestSpanStoreFIFOWraparound(t *testing.T) {
	s := NewSpanStore(4, clock.NewSimulated(time.Unix(1000, 0)))
	for i := 0; i < 10; i++ {
		s.Record(SpanTx, spanRef(i), StageAccepted)
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d, want 4", s.Len())
	}
	snaps := s.Snapshots()
	if len(snaps) != 4 {
		t.Fatalf("snapshots = %d, want 4", len(snaps))
	}
	// Oldest-first creation order: spans 6,7,8,9 survive.
	for i, snap := range snaps {
		want := spanRef(6 + i).String()
		if snap.Ref != want {
			t.Fatalf("snapshot[%d].Ref = %s, want %s", i, snap.Ref, want)
		}
	}
	// Evicted spans are gone; update-only marks on them do nothing.
	if _, ok := s.Snapshot(spanRef(0)); ok {
		t.Fatal("evicted span still present")
	}
	s.Observe(SpanTx, spanRef(0), StageMined)
	if _, ok := s.Snapshot(spanRef(0)); ok {
		t.Fatal("Observe resurrected an evicted span")
	}
}

func TestSpanStoreObserveDoesNotCreate(t *testing.T) {
	s := NewSpanStore(8, nil)
	s.Observe(SpanBlock, spanRef(3), StageConnected)
	if s.Len() != 0 {
		t.Fatal("Observe created a span")
	}
	s.MarkHeight(spanRef(3), 7)
	s.AddHop(spanRef(3), Hop{From: "peer"})
	if s.Len() != 0 {
		t.Fatal("MarkHeight/AddHop created a span")
	}
}

func TestSpanStoreDurableAndConfirmed(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(1000, 0))
	s := NewSpanStore(8, clk)
	s.SetConfirmDepth(3)

	reg := NewRegistry()
	hist := reg.Histogram("mined_durable_seconds", "test", LatencyBuckets)
	s.ObservePair(SpanTx, StageMined, StageDurable, hist)

	ref := spanRef(4)
	s.Record(SpanTx, ref, StageMined)
	s.MarkHeight(ref, 10)
	if snap, _ := s.Snapshot(ref); hasStage(snap, StageDurable) {
		t.Fatal("durable recorded before the connect stamped it")
	}
	clk.Advance(time.Second)
	s.Observe(SpanTx, ref, StageDurable)
	// A second stamp (the same block reconnected after a reorg) keeps the
	// first and observes the pair once.
	clk.Advance(time.Second)
	s.Observe(SpanTx, ref, StageDurable)
	snap, _ := s.Snapshot(ref)
	if !hasStage(snap, StageDurable) {
		t.Fatal("durable not recorded")
	}
	if hist.Count() != 1 || hist.Sum() != 1 {
		t.Fatalf("mined->durable observed %d times, sum %vs; want once, 1s", hist.Count(), hist.Sum())
	}

	s.NotifyHeight(11) // depth 2 < 3
	if snap, _ := s.Snapshot(ref); hasStage(snap, StageConfirmed) {
		t.Fatal("confirmed too early")
	}
	s.NotifyHeight(12) // depth 3
	if snap, _ := s.Snapshot(ref); !hasStage(snap, StageConfirmed) {
		t.Fatal("confirmed not recorded at depth")
	}
}

func hasStage(snap SpanSnapshot, stage string) bool {
	for _, m := range snap.Stages {
		if m.Stage == stage {
			return true
		}
	}
	return false
}

func TestSpanStoreHopAdoption(t *testing.T) {
	s := NewSpanStore(8, nil)
	s.SetOrigin(7)
	ref := spanRef(5)
	s.Record(SpanTx, ref, StageAccepted)

	at := time.Unix(500, 0)
	s.AddHop(ref, Hop{From: "a", Count: 3, Origin: 99, OriginAt: at})
	snap, _ := s.Snapshot(ref)
	if snap.Origin != 99 || snap.HopCount != 3 {
		t.Fatalf("hop identity not adopted: %+v", snap)
	}
	// A shorter path wins; a longer one does not.
	s.AddHop(ref, Hop{From: "b", Count: 2, Origin: 42, OriginAt: at})
	s.AddHop(ref, Hop{From: "c", Count: 5, Origin: 13, OriginAt: at})
	snap, _ = s.Snapshot(ref)
	if snap.Origin != 42 || snap.HopCount != 2 {
		t.Fatalf("shortest-path adoption wrong: %+v", snap)
	}
	if len(snap.Hops) != 3 {
		t.Fatalf("hops = %d, want 3", len(snap.Hops))
	}
}

func TestSpanStoreNilSafety(t *testing.T) {
	var s *SpanStore
	s.SetOrigin(1)
	s.SetConfirmDepth(6)
	s.ObservePair(SpanTx, StageSubmitted, StageAccepted, nil)
	s.Record(SpanTx, spanRef(0), StageSubmitted)
	s.Observe(SpanTx, spanRef(0), StageAccepted)
	s.AddHop(spanRef(0), Hop{})
	s.MarkHeight(spanRef(0), 1)
	s.NotifyHeight(1)
	if s.Len() != 0 || s.Origin() != 0 {
		t.Fatal("nil store not inert")
	}
	if _, ok := s.Snapshot(spanRef(0)); ok {
		t.Fatal("nil store returned a span")
	}
	if s.Snapshots() != nil {
		t.Fatal("nil store returned snapshots")
	}
	if _, _, _, ok := s.WireInfo(spanRef(0)); ok {
		t.Fatal("nil store returned wire info")
	}
}

// TestSpanStoreConcurrent hammers Record/Observe/AddHop against
// Snapshot/Snapshots/NotifyHeight under -race.
func TestSpanStoreConcurrent(t *testing.T) {
	s := NewSpanStore(64, nil)
	reg := NewRegistry()
	s.ObservePair(SpanTx, StageAccepted, StageMined,
		reg.Histogram("conc_pair_seconds", "test", LatencyBuckets))

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ref := spanRef(i % 100)
				s.Record(SpanTx, ref, StageAccepted)
				s.Observe(SpanTx, ref, StageMined)
				s.MarkHeight(ref, i%100+1)
				s.AddHop(ref, Hop{From: "w", Count: 1})
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s.Snapshots()
			s.Snapshot(spanRef(i % 100))
			s.Observe(SpanTx, spanRef(i%100), StageDurable)
			s.NotifyHeight(i)
		}
	}()
	wg.Wait()
	if s.Len() != 64 {
		t.Fatalf("len = %d, want capacity 64", s.Len())
	}
}

func TestSpanHandler(t *testing.T) {
	s := NewSpanStore(8, nil)
	ref := spanRef(6)
	s.Record(SpanTx, ref, StageAccepted)

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var body struct {
		Count int            `json:"count"`
		Spans []SpanSnapshot `json:"spans"`
	}
	resp := httpGet(t, srv.URL+"?ref="+ref.String())
	if err := json.Unmarshal(resp, &body); err != nil {
		t.Fatalf("bad json: %v\n%s", err, resp)
	}
	if body.Count != 1 || len(body.Spans) != 1 || body.Spans[0].Ref != ref.String() {
		t.Fatalf("bad response: %+v", body)
	}

	// Unknown ref is a 404, malformed ref a 400; both exercised through
	// the raw client below.
	if code := httpCode(t, srv.URL+"?ref="+spanRef(7).String()); code != 404 {
		t.Fatalf("unknown ref code = %d, want 404", code)
	}
	if code := httpCode(t, srv.URL+"?ref=zzzz"); code != 400 {
		t.Fatalf("malformed ref code = %d, want 400", code)
	}
}

func TestRegisterSpanMetrics(t *testing.T) {
	reg := NewRegistry()
	clk := clock.NewSimulated(time.Unix(1000, 0))
	s := NewSpanStore(8, clk)
	RegisterSpanMetrics(reg, s)

	ref := spanRef(8)
	s.Record(SpanTx, ref, StageSubmitted)
	clk.Advance(10 * time.Millisecond)
	s.Record(SpanTx, ref, StageAccepted)

	if v, ok := reg.Value("tx_submit_to_accept_seconds"); !ok || v != 1 {
		t.Fatalf("tx_submit_to_accept_seconds = %v/%v, want 1 observation", v, ok)
	}
	for _, name := range []string{
		"tx_accept_to_mined_seconds", "tx_mined_to_durable_seconds",
		"tx_durable_to_indexed_seconds", "block_first_seen_to_connected_seconds",
	} {
		if _, ok := reg.Value(name); !ok {
			t.Fatalf("family %s not registered", name)
		}
	}
	// Nil args are inert.
	RegisterSpanMetrics(nil, s)
	RegisterSpanMetrics(reg, nil)
}
