package netsim

// Latency-budget scenarios: a 10-node gossip mesh under sustained
// wallet load, with every node recording commitment spans on the shared
// virtual clock. The harness merges the spans into cluster timelines
// and reduces them to a per-stage p50/p99 budget that must replay
// bit-identically from its seed (SIM_SEED=<n> replays one seed), and a
// Byzantine variant shows a hostile slow relay inflating exactly the
// cluster-sweep stages while the first-sight stages stay honest.

import (
	"fmt"
	"testing"
	"time"

	"typecoin/internal/chainhash"
	"typecoin/internal/script"
	"typecoin/internal/telemetry"
	"typecoin/internal/testutil"
	"typecoin/internal/wallet"
)

const (
	latencyNodes       = 10
	latencyRounds      = 3
	latencyTxsPerRound = 3
	latencyTxCount     = latencyRounds * latencyTxsPerRound

	// slowRelayLatency is the one-way delay the Byzantine variant puts
	// on the attacker's links. The honest mesh sweeps the ring in a few
	// hundred ms of virtual time (each relay hop costs ~3 of the 20ms
	// settle ticks), so a full second separates cleanly from that.
	slowRelayLatency = time.Second
)

// latencySeeds returns the scenario seed list, or the seeds SIM_SEED or
// SIM_SEEDS name.
func latencySeeds(t *testing.T) []int64 {
	return testutil.Seeds(t, 42)
}

// runLatencyBudget drives the cluster under sustained load and returns
// the harness, the budget report and the submitted txids. Topology is a
// 10-node ring plus a 0-5 chord, so transactions submitted on node 0
// traverse multi-hop relay paths. With attack set, node 9's two ring
// links are degraded to slowRelayLatency — a Byzantine relay that lags
// everything through it without dropping anything.
func runLatencyBudget(t *testing.T, seed int64, attack bool) (*Harness, *BudgetReport, []chainhash.Hash) {
	t.Helper()
	cfg := LinkConfig{Latency: 2 * time.Millisecond}
	h := NewHarness(t, seed, latencyNodes, cfg)
	for i := 0; i < latencyNodes; i++ {
		h.Connect(i, (i+1)%latencyNodes)
	}
	h.Connect(0, 5)
	h.Settle(10)

	// settle must cover the full relay cascade of a round: in the attack
	// variant one inv/getdata/body exchange across the slow links costs
	// 3 crossings of slowRelayLatency (45 virtual ticks), so the drain
	// window scales up with it.
	settle := 40
	if attack {
		slow := LinkConfig{Latency: slowRelayLatency}
		h.Net.SetLinkBoth(h.Host(9), h.Host(8), slow)
		h.Net.SetLinkBoth(h.Host(9), h.Host(0), slow)
		settle = 170
	}

	// Fund node 0's wallet past coinbase maturity.
	for b := 0; b < h.Params.CoinbaseMaturity+3; b++ {
		h.Mine(0)
		h.Settle(settle)
	}

	// Sustained load: each round submits a batch on node 0, lets it
	// sweep the cluster, and mines it on a rotating miner.
	var txids []chainhash.Hash
	for round := 0; round < latencyRounds; round++ {
		for k := 0; k < latencyTxsPerRound; k++ {
			dest, err := h.Full[1+(round*latencyTxsPerRound+k)%(latencyNodes-1)].Wallet.NewKey()
			if err != nil {
				t.Fatalf("round %d destination key: %v", round, err)
			}
			tx, err := h.Full[0].Wallet.Build(
				[]wallet.Output{{Value: 1_000_000, PkScript: script.PayToPubKeyHash(dest)}},
				wallet.BuildOptions{})
			if err != nil {
				t.Fatalf("round %d build tx %d: %v", round, k, err)
			}
			if err := h.Nodes[0].BroadcastTx(tx); err != nil {
				t.Fatalf("round %d broadcast tx %d: %v", round, k, err)
			}
			txids = append(txids, tx.TxHash())
		}
		h.Settle(settle)
		for _, txid := range txids[len(txids)-latencyTxsPerRound:] {
			for i, node := range h.Nodes {
				if !node.Pool().Have(txid) {
					t.Fatalf("round %d: node %d never pooled tx %s", round, i, txid)
				}
			}
		}
		h.Mine((round * 3) % latencyNodes)
		h.Settle(settle)
	}

	// Bury the last batch to the confirmation depth so every span closes
	// with the confirmed stage.
	for b := 0; b < telemetry.DefaultConfirmDepth; b++ {
		h.Mine((b + 1) % latencyNodes)
		h.Settle(settle)
	}

	// The five system invariants hold before any latency claims are
	// made.
	h.AssertConverged()
	return h, h.LatencyBudget(), txids
}

func mustRow(t *testing.T, rep *BudgetReport, name string) BudgetRow {
	t.Helper()
	row, ok := rep.Row(name)
	if !ok {
		t.Fatalf("report has no row %q:\n%s", name, rep.Render())
	}
	return row
}

func TestLatencyBudget(t *testing.T) {
	for _, seed := range latencySeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			h, rep, txids := runLatencyBudget(t, seed, false)
			t.Logf("\n%s", rep.Render())

			if rep.TxSpans != latencyTxCount {
				t.Errorf("TxSpans = %d, want %d", rep.TxSpans, latencyTxCount)
			}
			minedBlocks := h.Params.CoinbaseMaturity + 3 + latencyRounds + telemetry.DefaultConfirmDepth
			if rep.BlockSpans != minedBlocks {
				t.Errorf("BlockSpans = %d, want %d", rep.BlockSpans, minedBlocks)
			}

			// Every transaction completes the full pipeline on the
			// cluster timeline.
			for _, name := range []string{
				"tx submit->accept", "tx accept->mined", "tx mined->connected",
				"tx connected->durable", "tx durable->indexed",
				"tx submit->indexed", "tx submit->confirmed", "tx indexed spread",
			} {
				if row := mustRow(t, rep, name); row.N != latencyTxCount {
					t.Errorf("row %q has n=%d, want %d", name, row.N, latencyTxCount)
				}
			}
			// Submission and acceptance happen in the same call on the
			// submitting node: zero-cost stage.
			if row := mustRow(t, rep, "tx submit->accept"); row.P50 != 0 || row.P99 != 0 {
				t.Errorf("submit->accept = %v/%v, want 0/0", row.P50, row.P99)
			}
			// Mining waits for the block schedule, so acceptance->mined
			// dominates the budget at minutes scale.
			if row := mustRow(t, rep, "tx accept->mined"); row.P50 < 30*time.Second {
				t.Errorf("accept->mined p50 = %v, want block-schedule scale", row.P50)
			}
			if row := mustRow(t, rep, "tx submit->confirmed"); row.P50 < 5*time.Minute {
				t.Errorf("submit->confirmed p50 = %v, want >= 5m at depth %d",
					row.P50, telemetry.DefaultConfirmDepth)
			}
			// A healthy mesh sweeps the index in propagation time.
			if row := mustRow(t, rep, "tx indexed spread"); row.P99 >= 600*time.Millisecond {
				t.Errorf("indexed spread p99 = %v on a healthy mesh", row.P99)
			}
			if row := mustRow(t, rep, "block first_seen->connected"); row.N != minedBlocks {
				t.Errorf("block row n=%d, want %d", row.N, minedBlocks)
			}

			// The wire-propagated context reached a node several hops
			// from the submitter: its span adopted node 0's origin
			// identity and a multi-hop count.
			snap, ok := h.Full[3].Spans.Snapshot(txids[0])
			if !ok {
				t.Fatalf("node 3 has no span for tx %s", txids[0])
			}
			if len(snap.Hops) == 0 {
				t.Fatalf("node 3 span for %s has no relay hops", txids[0])
			}
			if snap.HopCount < 2 {
				t.Errorf("node 3 hop count = %d, want >= 2 (multi-hop relay)", snap.HopCount)
			}
			if snap.Origin != 1 {
				t.Errorf("node 3 span origin = %d, want 1 (node 0's identity)", snap.Origin)
			}

			// Replay determinism: the same seed renders a byte-identical
			// budget report.
			_, rep2, _ := runLatencyBudget(t, seed, false)
			if a, b := rep.Render(), rep2.Render(); a != b {
				t.Fatalf("replay of seed %d diverged:\n--- run 1:\n%s--- run 2:\n%s", seed, a, b)
			}
		})
	}
}

// TestLatencyBudgetByzantineSlowRelay shows the budget report localizing
// a Byzantine slow relay: the cluster-sweep rows (how long until every
// node holds the stage) inflate to the attacker's latency scale, while
// the first-sight rows the attacker cannot touch stay at honest cost.
func TestLatencyBudgetByzantineSlowRelay(t *testing.T) {
	for _, seed := range latencySeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			_, rep, _ := runLatencyBudget(t, seed, true)
			t.Logf("\n%s", rep.Render())

			// Inflated: the attacker lags every sweep.
			if row := mustRow(t, rep, "tx indexed spread"); row.P50 < slowRelayLatency {
				t.Errorf("indexed spread p50 = %v under slow relay, want >= %v",
					row.P50, slowRelayLatency)
			}
			if row := mustRow(t, rep, "block connected spread"); row.P50 < slowRelayLatency {
				t.Errorf("block connected spread p50 = %v under slow relay, want >= %v",
					row.P50, slowRelayLatency)
			}
			// Untouched: local submission and the miner-local connect
			// path cost what they cost on the honest mesh.
			if row := mustRow(t, rep, "tx submit->accept"); row.P50 != 0 || row.P99 != 0 {
				t.Errorf("submit->accept = %v/%v under slow relay, want 0/0", row.P50, row.P99)
			}
			if row := mustRow(t, rep, "block first_seen->connected"); row.P50 >= slowRelayLatency {
				t.Errorf("block first_seen->connected p50 = %v, should not inflate", row.P50)
			}
		})
	}
}
