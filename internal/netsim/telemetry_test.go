package netsim

// Telemetry integration over the simulator: counters must move with the
// work actually performed and never run backwards across a full
// mine -> relay -> reorg lifecycle, and the block tracer must record the
// lifecycle transitions.

import (
	"strings"
	"testing"
	"time"

	"typecoin/internal/store"
	"typecoin/internal/telemetry"
)

// counterSnapshot reads every *_total series on node i.
func counterSnapshot(h *Harness, i int) map[string]float64 {
	m := make(map[string]float64)
	for _, name := range h.Full[i].Reg.Names() {
		if strings.HasSuffix(name, "_total") {
			m[name] = h.Metric(i, name)
		}
	}
	return m
}

// assertMonotone fails if any counter decreased between two snapshots.
func assertMonotone(t *testing.T, phase string, before, after map[string]float64) {
	t.Helper()
	for name, b := range before {
		if a, ok := after[name]; ok && a < b {
			t.Errorf("%s: counter %s went backwards: %v -> %v", phase, name, b, a)
		}
	}
}

func TestTelemetryCountersAcrossMineRelayReorg(t *testing.T) {
	cfg := LinkConfig{Latency: 2 * time.Millisecond, Jitter: time.Millisecond}
	h := NewHarness(t, 11, 2, cfg)
	h.Connect(0, 1)
	h.Settle(10)
	base := []map[string]float64{counterSnapshot(h, 0), counterSnapshot(h, 1)}

	// Mine on node 0; blocks relay to node 1.
	h.MineN(0, 3)
	h.WaitConverged()
	if got := h.Metric(0, "miner_blocks_found_total"); got != 3 {
		t.Errorf("node 0 miner_blocks_found_total = %v, want 3", got)
	}
	if got := h.Metric(1, "chain_connects_total"); got < 3 {
		t.Errorf("node 1 chain_connects_total = %v after relay of 3 blocks", got)
	}
	if got := h.Metric(1, "p2p_recv_messages_total"); got <= 0 {
		t.Errorf("node 1 p2p_recv_messages_total = %v after relay", got)
	}
	if got := h.Metric(0, "p2p_sent_messages_total"); got <= 0 {
		t.Errorf("node 0 p2p_sent_messages_total = %v after relay", got)
	}
	// The relayed tip shows up in node 1's trace as seen then connected.
	tip := h.Nodes[1].Chain().BestHash().String()
	kinds := make(map[string]bool)
	for _, ev := range h.Full[1].Tracer.Events(tip, 0) {
		kinds[ev.Kind] = true
	}
	if !kinds[telemetry.EvBlockSeen] || !kinds[telemetry.EvBlockConnected] {
		t.Errorf("node 1 trace for tip %s lacks seen+connected: %v", tip, kinds)
	}
	mid := []map[string]float64{counterSnapshot(h, 0), counterSnapshot(h, 1)}
	for i := range mid {
		assertMonotone(t, "after relay", base[i], mid[i])
	}

	// Fork the nodes: node 1 mines the longer branch, so after the heal
	// node 0 must reorganize off its own block.
	h.Partition([]int{0}, []int{1})
	h.Mine(0)
	h.MineN(1, 2)
	h.Heal()
	h.WaitConverged()
	if got := h.Metric(0, "chain_reorgs_total"); got < 1 {
		t.Errorf("node 0 chain_reorgs_total = %v after reorg", got)
	}
	if got := h.Metric(0, "chain_disconnects_total"); got < 1 {
		t.Errorf("node 0 chain_disconnects_total = %v after reorg", got)
	}
	reorged := false
	for _, ev := range h.Full[0].Tracer.Events("", 0) {
		if ev.Kind == telemetry.EvReorg {
			reorged = true
		}
	}
	if !reorged {
		t.Errorf("node 0 trace has no %s event after reorg", telemetry.EvReorg)
	}
	final := []map[string]float64{counterSnapshot(h, 0), counterSnapshot(h, 1)}
	for i := range final {
		assertMonotone(t, "after reorg", mid[i], final[i])
	}
	h.AssertConverged()
}

// A node on a supplied store runs the same verifier and exports the same
// metric families as one on the default in-memory store: the script
// verdict set and its sigcache_* series included. Only the store's own health
// gauge, which a Retry wrapper reports, is extra.
func TestSuppliedStoreNodeExportsTheSameMetrics(t *testing.T) {
	h := NewHarnessWithStores(t, 5, 2, LinkConfig{}, func(i int) store.Store {
		if i == 1 {
			return store.NewRetry(store.NewMem(), store.RetryConfig{})
		}
		return nil
	})
	names := func(i int) map[string]bool {
		set := make(map[string]bool)
		for _, name := range h.Full[i].Reg.Names() {
			set[name] = true
		}
		return set
	}
	mem, supplied := names(0), names(1)
	if !supplied["store_health"] {
		t.Fatal("the Retry-backed node exports no store_health")
	}
	delete(supplied, "store_health")
	for name := range mem {
		if !supplied[name] {
			t.Errorf("the store-backed node lacks %s", name)
		}
	}
	for name := range supplied {
		if !mem[name] {
			t.Errorf("only the store-backed node exports %s", name)
		}
	}
}
