package telemetry

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"typecoin/internal/chainhash"
	"typecoin/internal/clock"
)

// Commitment lifecycle stages. A transaction span accrues
// submitted -> accepted -> relayed -> mined -> durable -> indexed ->
// confirmed; a block span accrues first_seen -> relayed -> connected ->
// durable -> indexed. Every timestamp is taken on the recording node's
// own clock: stage deltas are meaningful within one node (or across the
// netsim cluster, where all nodes share one virtual clock) but never
// across real machines.
const (
	StageSubmitted = "submitted"
	StageAccepted  = "accepted"
	StageRelayed   = "relayed"
	StageFirstSeen = "first_seen"
	StageMined     = "mined"
	StageConnected = "connected"
	StageDurable   = "durable"
	StageIndexed   = "indexed"
	StageConfirmed = "confirmed"
)

// SpanKind distinguishes transaction spans from block spans. The values
// double as the wire encoding of the trace-context kind byte.
type SpanKind byte

const (
	SpanTx    SpanKind = 1
	SpanBlock SpanKind = 2
)

func (k SpanKind) String() string {
	switch k {
	case SpanTx:
		return "tx"
	case SpanBlock:
		return "block"
	default:
		return "unknown"
	}
}

// StageMark is one stage timestamp inside a span.
type StageMark struct {
	Stage string    `json:"stage"`
	Time  time.Time `json:"time"`
}

// Hop records one relay edge observed by the receiving node: the peer
// that served the subject, the sender's send timestamp (sender's clock)
// and the local receive timestamp (receiver's clock). The two clocks are
// only comparable when they are the same clock — within a node, or
// across the simulator's shared virtual clock.
type Hop struct {
	From     string    `json:"from"`
	Count    int       `json:"count"`
	Origin   uint64    `json:"origin"`
	OriginAt time.Time `json:"originAt"`
	SentAt   time.Time `json:"sentAt"`
	RecvAt   time.Time `json:"recvAt"`
}

// span is the mutable store-internal record.
type span struct {
	kind     SpanKind
	origin   uint64
	originAt time.Time
	hopCount int
	height   int
	stages   []StageMark
	hops     []Hop
}

func (sp *span) stageAt(stage string) (time.Time, bool) {
	for _, m := range sp.stages {
		if m.Stage == stage {
			return m.Time, true
		}
	}
	return time.Time{}, false
}

// SpanSnapshot is the immutable JSON view of one span.
type SpanSnapshot struct {
	Ref      string      `json:"ref"`
	Kind     string      `json:"kind"`
	Origin   uint64      `json:"origin"`
	OriginAt time.Time   `json:"originAt"`
	HopCount int         `json:"hopCount"`
	Height   int         `json:"height,omitempty"`
	Stages   []StageMark `json:"stages"`
	Hops     []Hop       `json:"hops,omitempty"`
}

// spanPair observes the delta between two stages of one span kind into a
// histogram, whichever side of the pair is recorded second.
type spanPair struct {
	kind     SpanKind
	from, to string
	hist     *Histogram
}

// DefaultSpanCapacity bounds the default span store.
const DefaultSpanCapacity = 1024

// MaxSpanHops bounds the per-span hop list and the relay hop counter a
// wire trace context may carry.
const MaxSpanHops = 64

// SpanStore is a bounded, nil-safe store of commitment-latency spans,
// keyed by the block or transaction hash. It lives beside the Tracer:
// the Tracer answers "what happened around time T", the span store
// answers "where did this subject's latency go". Eviction is FIFO by
// span creation, so a store left on in production is a sliding window
// over the most recent subjects. All methods are nil-safe.
type SpanStore struct {
	mu     sync.Mutex
	spans  map[chainhash.Hash]*span
	order  []chainhash.Hash // FIFO creation ring
	start  int
	n      int
	origin uint64
	clk    clock.Clock
	pairs  []spanPair
}

// DefaultConfirmDepth is the k used for the confirmed stage, matching
// Bitcoin's conventional six-block deep-confirmation rule the paper
// assumes in its latency discussion.
const DefaultConfirmDepth = 6

// NewSpanStore creates a span store holding up to capacity spans (<= 0
// selects DefaultSpanCapacity). clk may be nil for the system clock; the
// network simulator passes its shared virtual clock so spans from
// different nodes merge onto one timeline.
func NewSpanStore(capacity int, clk clock.Clock) *SpanStore {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	if clk == nil {
		clk = clock.System{}
	}
	return &SpanStore{
		spans: make(map[chainhash.Hash]*span, capacity),
		order: make([]chainhash.Hash, capacity),
		clk:   clk,
	}
}

// SetOrigin sets the node identity stamped on locally created spans and
// propagated in wire trace contexts. Call before concurrent use.
func (s *SpanStore) SetOrigin(id uint64) {
	if s == nil {
		return
	}
	s.origin = id
}

// Origin returns the node identity set with SetOrigin.
func (s *SpanStore) Origin() uint64 {
	if s == nil {
		return 0
	}
	return s.origin
}

// ObservePair registers a histogram observing, in seconds, the delta
// between two stages of spans of one kind. The delta is observed when
// the later of the two stages is recorded (stages can land out of order
// across layers); negative deltas clamp to zero. Call before concurrent use.
func (s *SpanStore) ObservePair(kind SpanKind, from, to string, h *Histogram) {
	if s == nil || h == nil {
		return
	}
	s.pairs = append(s.pairs, spanPair{kind: kind, from: from, to: to, hist: h})
}

// Record marks a stage on the subject's span, creating the span if it
// does not exist. Use at span-originating sites (local submit, mempool
// acceptance, first sight of a block); bulk pipelines that must not
// create spans for historical subjects use Observe instead.
func (s *SpanStore) Record(kind SpanKind, ref chainhash.Hash, stage string) {
	s.mark(kind, ref, stage, true)
}

// Observe marks a stage on the subject's span only if the span already
// exists. Hot bulk paths (block connect during initial sync, index
// catch-up) use this so untracked subjects cost one map lookup and
// nothing more.
func (s *SpanStore) Observe(kind SpanKind, ref chainhash.Hash, stage string) {
	s.mark(kind, ref, stage, false)
}

func (s *SpanStore) mark(kind SpanKind, ref chainhash.Hash, stage string, create bool) {
	if s == nil {
		return
	}
	now := s.clk.Now()
	s.mu.Lock()
	sp := s.spans[ref]
	if sp == nil {
		if !create {
			s.mu.Unlock()
			return
		}
		sp = s.create(kind, ref, now)
	}
	if _, dup := sp.stageAt(stage); dup {
		s.mu.Unlock()
		return
	}
	sp.stages = append(sp.stages, StageMark{Stage: stage, Time: now})
	s.firePairsLocked(sp, stage, now)
	s.mu.Unlock()
}

// create inserts a new span for ref, evicting the oldest span when the
// store is full. Caller holds s.mu.
func (s *SpanStore) create(kind SpanKind, ref chainhash.Hash, now time.Time) *span {
	if s.n == len(s.order) {
		delete(s.spans, s.order[s.start])
		s.start = (s.start + 1) % len(s.order)
		s.n--
	}
	s.order[(s.start+s.n)%len(s.order)] = ref
	s.n++
	sp := &span{kind: kind, origin: s.origin, originAt: now}
	s.spans[ref] = sp
	return sp
}

// firePairsLocked observes every registered pair completed by recording
// stage at time now on sp. Caller holds s.mu.
func (s *SpanStore) firePairsLocked(sp *span, stage string, now time.Time) {
	for _, p := range s.pairs {
		if p.kind != sp.kind {
			continue
		}
		switch stage {
		case p.to:
			if from, ok := sp.stageAt(p.from); ok {
				p.hist.Observe(maxSeconds(now.Sub(from)))
			}
		case p.from:
			if to, ok := sp.stageAt(p.to); ok {
				p.hist.Observe(maxSeconds(to.Sub(now)))
			}
		}
	}
}

func maxSeconds(d time.Duration) float64 {
	if d < 0 {
		return 0
	}
	return d.Seconds()
}

// AddHop records a relay edge on an existing span and, for spans first
// learned about through relay, adopts the origin identity carried by the
// shortest-path context. Hops beyond MaxSpanHops are dropped.
func (s *SpanStore) AddHop(ref chainhash.Hash, hop Hop) {
	if s == nil {
		return
	}
	if hop.RecvAt.IsZero() {
		hop.RecvAt = s.clk.Now()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := s.spans[ref]
	if sp == nil || len(sp.hops) >= MaxSpanHops {
		return
	}
	sp.hops = append(sp.hops, hop)
	if hop.Count > 0 && (sp.hopCount == 0 || hop.Count < sp.hopCount) {
		sp.hopCount = hop.Count
		if hop.Origin != 0 && hop.Origin != s.origin {
			sp.origin = hop.Origin
			sp.originAt = hop.OriginAt
		}
	}
}

// WireInfo returns the origin identity, origin timestamp and hop count
// to embed in an outgoing trace context for ref. ok is false when the
// subject has no span (nothing to propagate).
func (s *SpanStore) WireInfo(ref chainhash.Hash) (origin uint64, originAt time.Time, hops int, ok bool) {
	if s == nil {
		return 0, time.Time{}, 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := s.spans[ref]
	if sp == nil {
		return 0, time.Time{}, 0, false
	}
	return sp.origin, sp.originAt, sp.hopCount, true
}

// MarkHeight associates an existing span with the main-chain height that
// included it, enabling the confirmed stage.
func (s *SpanStore) MarkHeight(ref chainhash.Hash, height int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if sp := s.spans[ref]; sp != nil && sp.height == 0 {
		sp.height = height
	}
	s.mu.Unlock()
}

// NotifyHeight marks the confirmed stage on every span buried at least
// the configured confirmation depth below tip. Call after every tip
// advance.
func (s *SpanStore) NotifyHeight(tip int) {
	if s == nil {
		return
	}
	now := s.clk.Now()
	s.mu.Lock()
	for _, sp := range s.spans {
		if sp.height == 0 || tip-sp.height+1 < DefaultConfirmDepth {
			continue
		}
		if _, dup := sp.stageAt(StageConfirmed); dup {
			continue
		}
		sp.stages = append(sp.stages, StageMark{Stage: StageConfirmed, Time: now})
		s.firePairsLocked(sp, StageConfirmed, now)
	}
	s.mu.Unlock()
}

// Len returns the number of live spans.
func (s *SpanStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Snapshot returns the span for ref, ok=false when none exists.
func (s *SpanStore) Snapshot(ref chainhash.Hash) (SpanSnapshot, bool) {
	if s == nil {
		return SpanSnapshot{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := s.spans[ref]
	if sp == nil {
		return SpanSnapshot{}, false
	}
	return snapshotOf(ref, sp), true
}

// Snapshots returns every live span in creation order (oldest first).
func (s *SpanStore) Snapshots() []SpanSnapshot {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SpanSnapshot, 0, s.n)
	for i := 0; i < s.n; i++ {
		ref := s.order[(s.start+i)%len(s.order)]
		if sp := s.spans[ref]; sp != nil {
			out = append(out, snapshotOf(ref, sp))
		}
	}
	return out
}

func snapshotOf(ref chainhash.Hash, sp *span) SpanSnapshot {
	snap := SpanSnapshot{
		Ref:      ref.String(),
		Kind:     sp.kind.String(),
		Origin:   sp.origin,
		OriginAt: sp.originAt,
		HopCount: sp.hopCount,
		Height:   sp.height,
		Stages:   make([]StageMark, len(sp.stages)),
		Hops:     append([]Hop(nil), sp.hops...),
	}
	copy(snap.Stages, sp.stages)
	sort.SliceStable(snap.Stages, func(i, j int) bool {
		return snap.Stages[i].Time.Before(snap.Stages[j].Time)
	})
	return snap
}

// Handler serves the store as JSON (GET /debug/spans). Query parameters:
// ref=<hash> selects one subject (404 when untracked), limit=<n> caps an
// unfiltered listing to the n most recent spans.
func (s *SpanStore) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if refStr := r.URL.Query().Get("ref"); refStr != "" {
			ref, err := chainhash.NewHashFromStr(refStr)
			if err != nil {
				http.Error(w, "bad ref: "+err.Error(), http.StatusBadRequest)
				return
			}
			snap, ok := s.Snapshot(ref)
			if !ok {
				http.Error(w, "span not found", http.StatusNotFound)
				return
			}
			_ = json.NewEncoder(w).Encode(map[string]interface{}{
				"count": 1,
				"spans": []SpanSnapshot{snap},
			})
			return
		}
		spans := s.Snapshots()
		if lim := r.URL.Query().Get("limit"); lim != "" {
			if n, err := strconv.Atoi(lim); err == nil && n > 0 && n < len(spans) {
				spans = spans[len(spans)-n:]
			}
		}
		if spans == nil {
			spans = []SpanSnapshot{}
		}
		_ = json.NewEncoder(w).Encode(map[string]interface{}{
			"count": len(spans),
			"spans": spans,
		})
	})
}

// SpanBuckets spans the latency range a commitment stage can occupy:
// sub-millisecond intra-node handoffs up to the multi-hour confirmation
// depths the paper concedes (100us .. ~1.8h, factor-4 steps).
var SpanBuckets = ExpBuckets(0.0001, 4, 13)

// RegisterSpanMetrics registers the per-stage latency histogram families
// on reg and wires them as stage-pair observers on s, so every consumer
// (daemon, simulator) exports the same families:
//
//	tx_submit_to_accept_seconds      local submit -> mempool acceptance
//	tx_accept_to_mined_seconds       acceptance -> block inclusion
//	tx_mined_to_durable_seconds      inclusion -> connect batch applied
//	tx_durable_to_indexed_seconds    durability -> index visibility
//	block_first_seen_to_connected_seconds  first sight -> main-chain connect
func RegisterSpanMetrics(reg *Registry, s *SpanStore) {
	if reg == nil || s == nil {
		return
	}
	pair := func(name, help string, kind SpanKind, from, to string) {
		s.ObservePair(kind, from, to, reg.Histogram(name, help, SpanBuckets))
	}
	pair("tx_submit_to_accept_seconds",
		"Latency from local transaction submission to mempool acceptance.",
		SpanTx, StageSubmitted, StageAccepted)
	pair("tx_accept_to_mined_seconds",
		"Latency from mempool acceptance to inclusion in a connected block.",
		SpanTx, StageAccepted, StageMined)
	pair("tx_mined_to_durable_seconds",
		"Latency from block inclusion to the store applying its connect batch.",
		SpanTx, StageMined, StageDurable)
	pair("tx_durable_to_indexed_seconds",
		"Latency from durability to visibility in the chain index.",
		SpanTx, StageDurable, StageIndexed)
	pair("block_first_seen_to_connected_seconds",
		"Latency from first sight of a block to its main-chain connect.",
		SpanBlock, StageFirstSeen, StageConnected)
}
