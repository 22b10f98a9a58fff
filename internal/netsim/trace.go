package netsim

// Cluster-wide commitment tracing. Every node's span store runs on the
// harness's shared virtual clock, so per-node spans for the same subject
// merge into one causal timeline: the cluster's first sight of a stage
// is simply the minimum timestamp any node recorded for it. On top of
// the merged timelines the harness computes a latency-budget report —
// per-stage p50/p99 across all transactions — which is deterministic for
// a given seed (virtual time only advances when the scenario says so),
// making the budget replayable bit-for-bit with SIM_SEED.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"typecoin/internal/telemetry"
)

// ClusterSpan is the merged cross-node view of one subject: for every
// stage, the earliest and latest virtual time any node recorded it,
// which nodes tracked the subject, and how many relay hop records the
// cluster accumulated.
type ClusterSpan struct {
	Ref   string
	Kind  string
	Nodes []int
	Hops  int
	First map[string]time.Time
	Last  map[string]time.Time
}

// Delta returns the elapsed virtual time between the cluster's first
// sight of two stages, ok=false when either stage was never recorded.
// Negative deltas (stages that can land out of order across pipelines)
// clamp to zero, matching the histogram semantics.
func (cs *ClusterSpan) Delta(from, to string) (time.Duration, bool) {
	a, oka := cs.First[from]
	b, okb := cs.First[to]
	if !oka || !okb {
		return 0, false
	}
	d := b.Sub(a)
	if d < 0 {
		d = 0
	}
	return d, true
}

// Spread returns how long a stage took to sweep the cluster: the gap
// between the first and the last node recording it. A healthy gossip
// mesh keeps spreads at propagation scale; a Byzantine slow relay shows
// up here while first-sight deltas stay honest.
func (cs *ClusterSpan) Spread(stage string) (time.Duration, bool) {
	a, oka := cs.First[stage]
	b, okb := cs.Last[stage]
	if !oka || !okb {
		return 0, false
	}
	return b.Sub(a), true
}

// AssembleTrace merges every node's span store into per-subject cluster
// spans, keyed by the subject hash string.
func (h *Harness) AssembleTrace() map[string]*ClusterSpan {
	out := make(map[string]*ClusterSpan)
	for i, nd := range h.Full {
		for _, snap := range nd.Spans.Snapshots() {
			cs := out[snap.Ref]
			if cs == nil {
				cs = &ClusterSpan{
					Ref:   snap.Ref,
					Kind:  snap.Kind,
					First: make(map[string]time.Time),
					Last:  make(map[string]time.Time),
				}
				out[snap.Ref] = cs
			}
			cs.Nodes = append(cs.Nodes, i)
			cs.Hops += len(snap.Hops)
			for _, m := range snap.Stages {
				if t, ok := cs.First[m.Stage]; !ok || m.Time.Before(t) {
					cs.First[m.Stage] = m.Time
				}
				if t, ok := cs.Last[m.Stage]; !ok || m.Time.After(t) {
					cs.Last[m.Stage] = m.Time
				}
			}
		}
	}
	return out
}

// BudgetRow is one measured stage (or stage spread) of the latency
// budget: how many subjects had the measurement and its p50/p99.
type BudgetRow struct {
	Name string
	N    int
	P50  time.Duration
	P99  time.Duration
}

// BudgetReport is the cluster's commitment-latency budget: where the
// time between submitting a transaction and seeing it indexed (and a
// block's path from first sight to every node's index) actually goes.
type BudgetReport struct {
	Seed       int64
	TxSpans    int
	BlockSpans int
	Rows       []BudgetRow
}

// budgetMeasure extracts one duration from a cluster span.
type budgetMeasure struct {
	name string
	kind string
	get  func(*ClusterSpan) (time.Duration, bool)
}

func delta(from, to string) func(*ClusterSpan) (time.Duration, bool) {
	return func(cs *ClusterSpan) (time.Duration, bool) { return cs.Delta(from, to) }
}

func spread(stage string) func(*ClusterSpan) (time.Duration, bool) {
	return func(cs *ClusterSpan) (time.Duration, bool) { return cs.Spread(stage) }
}

// budgetMeasures is the fixed row schema of the report. First-sight
// deltas decompose the commitment pipeline; the two spread rows separate
// "the cluster reached the stage" from "every node reached the stage",
// which is where relay-path attacks surface.
var budgetMeasures = []budgetMeasure{
	{"tx submit->accept", "tx", delta(telemetry.StageSubmitted, telemetry.StageAccepted)},
	{"tx accept->mined", "tx", delta(telemetry.StageAccepted, telemetry.StageMined)},
	{"tx mined->connected", "tx", delta(telemetry.StageMined, telemetry.StageConnected)},
	{"tx connected->durable", "tx", delta(telemetry.StageConnected, telemetry.StageDurable)},
	{"tx durable->indexed", "tx", delta(telemetry.StageDurable, telemetry.StageIndexed)},
	{"tx submit->indexed", "tx", delta(telemetry.StageSubmitted, telemetry.StageIndexed)},
	{"tx submit->confirmed", "tx", delta(telemetry.StageSubmitted, telemetry.StageConfirmed)},
	{"tx indexed spread", "tx", spread(telemetry.StageIndexed)},
	{"block first_seen->connected", "block", delta(telemetry.StageFirstSeen, telemetry.StageConnected)},
	{"block connected spread", "block", spread(telemetry.StageConnected)},
}

// LatencyBudget assembles the cluster trace and reduces it to the
// per-stage p50/p99 budget. The row set and ordering are fixed, and all
// inputs are virtual-clock timestamps, so the report (and its Render)
// is a pure function of the scenario's seed.
func (h *Harness) LatencyBudget() *BudgetReport {
	spans := h.AssembleTrace()
	rep := &BudgetReport{Seed: h.Seed}
	for _, cs := range spans {
		switch cs.Kind {
		case "tx":
			rep.TxSpans++
		case "block":
			rep.BlockSpans++
		}
	}
	for _, m := range budgetMeasures {
		var ds []time.Duration
		for _, cs := range spans {
			if cs.Kind != m.kind {
				continue
			}
			if d, ok := m.get(cs); ok {
				ds = append(ds, d)
			}
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		rep.Rows = append(rep.Rows, BudgetRow{
			Name: m.name,
			N:    len(ds),
			P50:  percentile(ds, 0.50),
			P99:  percentile(ds, 0.99),
		})
	}
	return rep
}

// percentile is the nearest-rank percentile of a sorted duration slice
// (zero when empty) — deterministic, no interpolation.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Row returns the named row of the report, ok=false when absent.
func (r *BudgetReport) Row(name string) (BudgetRow, bool) {
	for _, row := range r.Rows {
		if row.Name == name {
			return row, true
		}
	}
	return BudgetRow{}, false
}

// Render formats the report as a fixed-width table. Every field is
// derived from virtual time and the fixed row schema, so two runs of the
// same scenario with the same seed render byte-identical reports.
func (r *BudgetReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "latency budget: seed=%d tx_spans=%d block_spans=%d\n", r.Seed, r.TxSpans, r.BlockSpans)
	fmt.Fprintf(&b, "%-30s %6s %14s %14s\n", "stage", "n", "p50", "p99")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-30s %6d %14s %14s\n", row.Name, row.N, row.P50, row.P99)
	}
	return b.String()
}
