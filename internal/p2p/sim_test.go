package p2p_test

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"typecoin/internal/chainhash"
	"typecoin/internal/lf"
	"typecoin/internal/logic"
	"typecoin/internal/netsim"
	"typecoin/internal/p2p"
	"typecoin/internal/proof"
	"typecoin/internal/typecoin"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

// Adversarial scenario tests: full nodes gossiping over the netsim
// fault-injection transport. The headline scenario partitions the
// network mid-gossip, lets an owner double-spend a typed output on both
// sides, heals, and asserts the system converges on the blockchain-order
// winner — on every layer: chain, UTXO set, typecoin ledger, mempool.
//
// Determinism: blocks are mined on a fixed virtual-timestamp schedule
// and every mine sits behind an explicit wait-point, so the end state
// depends only on the scenario script and the netsim seed. Override the
// seed list with SIM_SEED=<n> to replay a single failing seed.

// simFaults is the lossy link profile used by the scenario: latency and
// jitter, plus drop, duplication, reordering and (rare) corruption on
// every link for the whole run.
func simFaults() netsim.LinkConfig {
	return netsim.LinkConfig{
		Latency:     2 * time.Millisecond,
		Jitter:      time.Millisecond,
		DropRate:    0.02,
		DupRate:     0.05,
		ReorderRate: 0.10,
		CorruptRate: 0.005,
	}
}

// simFingerprint is the end state a scenario run is reduced to for
// replay comparison, with the ticks best-hash convergence took after the
// heal.
type simFingerprint struct {
	best      chainhash.Hash
	height    int
	applied   int
	pools     string
	chain     string // per-height block hashes and txids
	healTicks int
}

func fingerprint(h *netsim.Harness) simFingerprint {
	var pools []string
	for i, node := range h.Nodes {
		ids := node.Pool().TxIDs()
		strs := make([]string, len(ids))
		for j, id := range ids {
			strs[j] = id.String()
		}
		sort.Strings(strs)
		pools = append(pools, fmt.Sprintf("n%d:[%s]", i, strings.Join(strs, ",")))
	}
	var chainDesc []string
	c := h.Nodes[0].Chain()
	for height := 0; height <= c.BestHeight(); height++ {
		blk, ok := c.BlockAtHeight(height)
		if !ok {
			continue
		}
		var txids []string
		for _, tx := range blk.Transactions {
			txids = append(txids, tx.TxHash().String()[:12])
		}
		chainDesc = append(chainDesc, fmt.Sprintf("h%d:%s(%s)",
			height, blk.BlockHash().String()[:12], strings.Join(txids, "+")))
	}
	return simFingerprint{
		best:    h.Nodes[0].Chain().BestHash(),
		height:  h.Nodes[0].Chain().BestHeight(),
		applied: h.Full[0].Ledger.AppliedCount(),
		pools:   strings.Join(pools, " "),
		chain:   strings.Join(chainDesc, "\n"),
	}
}

// buildCarrier builds and signs the carrier Bitcoin transaction for tc
// on w, spending the typecoin inputs' outpoints as required by the
// embedding rules.
func buildCarrier(t *testing.T, w *wallet.Wallet, tc *typecoin.Tx) *wire.MsgTx {
	t.Helper()
	outs, err := typecoin.CarrierOutputs(tc)
	if err != nil {
		t.Fatalf("carrier outputs: %v", err)
	}
	wOuts := make([]wallet.Output, len(outs))
	for i, o := range outs {
		wOuts[i] = wallet.Output{Value: o.Value, PkScript: o.PkScript}
	}
	extra := make([]wire.OutPoint, len(tc.Inputs))
	for i, in := range tc.Inputs {
		extra[i] = in.Source
	}
	carrier, err := w.Build(wOuts, wallet.BuildOptions{ExtraInputs: extra})
	if err != nil {
		t.Fatalf("build carrier: %v", err)
	}
	if err := typecoin.VerifyEmbedding(tc, carrier); err != nil {
		t.Fatalf("carrier embedding: %v", err)
	}
	return carrier
}

// broadcastTypecoin announces tc on n's overlay.
func broadcastTypecoin(t *testing.T, n *p2p.Node, tc *typecoin.Tx) {
	t.Helper()
	if err := n.BroadcastTypecoin(&typecoin.FallbackList{Txs: []*typecoin.Tx{tc}}); err != nil {
		t.Fatalf("broadcast typecoin %s: %v", tc.Hash(), err)
	}
}

// spendProof is the standard proof term for a single-input, single-output
// spend: project the resource component A out of the domain C ⊗ A ⊗ R.
func spendProof(tc *typecoin.Tx) proof.Term {
	return proof.Lam{Name: "d", Ty: tc.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("a")}}}
}

// runPartitionScenario runs the full adversarial script on a 4-node ring
// (0-1, 1-2, 2-3, 3-0) and returns the converged end state:
//
//  1. fund node 0's wallet and create a typed token via a grant
//     transaction, with a one-way stall injected mid-gossip;
//  2. partition {0,1} | {2,3};
//  3. the owner double-spends the token: conflicting carriers cA
//     (confirmed on side A) and cB (confirmed on side B, which mines
//     more blocks and wins the chain race);
//  4. heal; every node must reorg to side B's chain, roll back tcA,
//     fetch tcB's object with a getdata (a side-A node asks its peers
//     for it once carrier cB is on its main chain), apply it, and pass
//     all four convergence invariants.
func runPartitionScenario(t *testing.T, seed int64) simFingerprint {
	t.Helper()
	h := netsim.NewHarness(t, seed, 4, simFaults())
	h.Connect(0, 1)
	h.Connect(1, 2)
	h.Connect(2, 3)
	h.Connect(3, 0)
	h.Settle(20)

	// Fund wallet 0: maturity + a couple of blocks so a coinbase is
	// spendable.
	h.MineN(0, h.Params.CoinbaseMaturity+1)
	h.WaitConverged()

	w0 := h.Full[0].Wallet
	ownerKey, err := w0.Key(h.Payouts[0])
	if err != nil {
		t.Fatal(err)
	}

	// Grant a fresh token type to the owner.
	grant := typecoin.NewTx()
	if err := grant.Basis.DeclareFam(lf.This("tok"), lf.KProp{}); err != nil {
		t.Fatal(err)
	}
	tok := logic.Atom(lf.This("tok"))
	grant.Grant = tok
	grant.Outputs = []typecoin.Output{{Type: tok, Amount: 5_000, Owner: ownerKey.PubKey()}}
	grant.Proof = proof.Lam{Name: "d", Ty: grant.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("c")}}}
	grantCarrier := buildCarrier(t, w0, grant)

	// Mid-gossip fault: stall the 0->1 direction while the grant is
	// announced, so node 1 hears about it only after release.
	h.Net.StallOneWay(h.Host(0), h.Host(1))
	if err := h.Nodes[0].BroadcastTx(grantCarrier); err != nil {
		t.Fatalf("broadcast grant carrier: %v", err)
	}
	broadcastTypecoin(t, h.Nodes[0], grant)
	h.Settle(10)
	h.Net.Unstall(h.Host(0), h.Host(1))

	h.Mine(0)
	op0 := wire.OutPoint{Hash: grantCarrier.TxHash(), Index: 0}
	tokG := logic.Atom(lf.TxRef(grantCarrier.TxHash(), "tok"))
	for i := range h.Full {
		i := i
		h.WaitFor(fmt.Sprintf("ledger %d applies grant", i), func() bool {
			return h.Full[i].Ledger.Applied(grantCarrier.TxHash())
		})
	}
	h.WaitConverged()

	// Split the ring down the middle. Sides only talk within themselves;
	// cross-side traffic is blackholed.
	h.Partition([]int{0, 1}, []int{2, 3})

	// The owner builds two conflicting spends of the same typed output.
	// Both carriers spend op0 (the embedding demands it), so this is a
	// Bitcoin-level double spend — affinity is enforced by commitment.
	recvA, err := w0.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	recvAKey, err := w0.Key(recvA)
	if err != nil {
		t.Fatal(err)
	}
	recvB, err := w0.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	recvBKey, err := w0.Key(recvB)
	if err != nil {
		t.Fatal(err)
	}

	tcA := typecoin.NewTx()
	tcA.Inputs = []typecoin.Input{{Source: op0, Type: tokG, Amount: 5_000}}
	tcA.Outputs = []typecoin.Output{{Type: tokG, Amount: 5_000, Owner: recvAKey.PubKey()}}
	tcA.Proof = spendProof(tcA)
	carrierA := buildCarrier(t, w0, tcA)
	// Release carrierA's inputs so the wallet will sign the conflicting
	// double-spend too (an honest wallet refuses; the adversary insists).
	w0.Unlock(carrierA)

	tcB := typecoin.NewTx()
	tcB.Inputs = []typecoin.Input{{Source: op0, Type: tokG, Amount: 5_000}}
	tcB.Outputs = []typecoin.Output{{Type: tokG, Amount: 5_000, Owner: recvBKey.PubKey()}}
	tcB.Proof = spendProof(tcB)
	carrierB := buildCarrier(t, w0, tcB)

	// Side A sees only the tcA spend and confirms it.
	if err := h.Nodes[0].BroadcastTx(carrierA); err != nil {
		t.Fatalf("broadcast carrier A: %v", err)
	}
	broadcastTypecoin(t, h.Nodes[0], tcA)
	h.MineN(0, 2)
	for _, i := range []int{0, 1} {
		i := i
		h.WaitFor(fmt.Sprintf("side A node %d applies tcA", i), func() bool {
			return h.Full[i].Ledger.Applied(carrierA.TxHash())
		})
	}

	// Side B sees only the tcB spend — and mines a longer chain.
	if err := h.Nodes[2].BroadcastTx(carrierB); err != nil {
		t.Fatalf("broadcast carrier B: %v", err)
	}
	broadcastTypecoin(t, h.Nodes[2], tcB)
	h.MineN(2, 3)
	for _, i := range []int{2, 3} {
		i := i
		h.WaitFor(fmt.Sprintf("side B node %d applies tcB", i), func() bool {
			return h.Full[i].Ledger.Applied(carrierB.TxHash())
		})
	}

	// Divergence check: the sides committed to conflicting spends.
	if h.Full[0].Ledger.Applied(carrierB.TxHash()) {
		t.Fatal("side A applied tcB across the partition")
	}
	if h.Full[2].Ledger.Applied(carrierA.TxHash()) {
		t.Fatal("side B applied tcA across the partition")
	}

	// Heal. Side B's chain is longer, so every node must reorg onto it,
	// roll tcA back, and adopt tcB: the partition swallowed node 2's inv
	// of it, so a side-A node asks every peer for it by getdata once cB
	// is on its main chain, and a peer that lacks it answers notfound.
	h.Heal()
	healTicks := h.WaitConverged()
	for i := range h.Full {
		i := i
		h.WaitFor(fmt.Sprintf("node %d adopts tcB after heal", i), func() bool {
			return h.Full[i].Ledger.Applied(carrierB.TxHash())
		})
	}
	for i := range h.Full {
		if h.Full[i].Ledger.Applied(carrierA.TxHash()) {
			t.Fatalf("node %d still has the losing spend tcA applied after heal", i)
		}
		if _, ok := h.Full[i].Ledger.ResolveOutput(op0); ok {
			t.Fatalf("node %d still resolves the consumed token output", i)
		}
		got, ok := h.Full[i].Ledger.ResolveOutput(wire.OutPoint{Hash: carrierB.TxHash(), Index: 0})
		if !ok {
			t.Fatalf("node %d cannot resolve the winning spend's output", i)
		}
		if eq, _ := logic.PropEqual(got, tokG); !eq {
			t.Fatalf("node %d resolves winner output to %v, want %v", i, got, tokG)
		}
	}

	h.AssertConverged()
	if want := h.Params.CoinbaseMaturity + 1 + 1 + 3; h.Nodes[0].Chain().BestHeight() != want {
		t.Fatalf("converged height %d, want %d (side B's chain)",
			h.Nodes[0].Chain().BestHeight(), want)
	}
	fp := fingerprint(h)
	fp.healTicks = healTicks
	return fp
}

// scenarioSeeds returns the seed list: the fixed seeds, the single seed
// from SIM_SEED (for replaying a failure), or every seed of the range
// lo-hi in SIM_SEEDS (for a sweep; see make sim-sweep). Seed 170
// corrupts a frame's length field, which leaves a reader waiting for
// bytes that never come on a connection that stays up until the node's
// silence deadline closes it.
func scenarioSeeds(t *testing.T) []int64 {
	if env := os.Getenv("SIM_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("SIM_SEED=%q: %v", env, err)
		}
		return []int64{seed}
	}
	if env := os.Getenv("SIM_SEEDS"); env != "" {
		from, to, _ := strings.Cut(env, "-")
		lo, err1 := strconv.ParseInt(from, 10, 64)
		hi, err2 := strconv.ParseInt(to, 10, 64)
		if err1 != nil || err2 != nil || lo > hi {
			t.Fatalf("SIM_SEEDS=%q: want a range lo-hi", env)
		}
		var seeds []int64
		for s := lo; s <= hi; s++ {
			seeds = append(seeds, s)
		}
		return seeds
	}
	return []int64{1, 7, 23, 42, 170, 191, 1337}
}

// TestSimPartitionHealDoubleSpend runs the adversarial partition
// scenario across several seeds; each seed drives a different fault
// pattern (drops, duplicates, reorders, corruption kills) through the
// same script, and all must converge to the same invariant-clean state.
// It logs the distribution of the ticks best-hash convergence took after
// the heal, over the seeds that passed.
func TestSimPartitionHealDoubleSpend(t *testing.T) {
	var ticks []int
	for _, seed := range scenarioSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ticks = append(ticks, runPartitionScenario(t, seed).healTicks)
		})
	}
	if len(ticks) == 0 {
		return
	}
	sort.Ints(ticks)
	// Nearest rank: the smallest value at or above a share q of them.
	rank := func(q float64) int { return ticks[int(math.Ceil(q*float64(len(ticks))))-1] }
	t.Logf("heal convergence over %d passing seeds: p50 %d, p90 %d, max %d ticks",
		len(ticks), rank(0.5), rank(0.9), ticks[len(ticks)-1])
}

// TestSimSameSeedReplaysExactly reruns one seed and demands a bit-equal
// end state: same best hash, height, ledger count, and mempools. This is
// the replay guarantee that makes seed-stamped failures debuggable.
func TestSimSameSeedReplaysExactly(t *testing.T) {
	first := runPartitionScenario(t, 99)
	second := runPartitionScenario(t, 99)
	if first != second {
		t.Fatalf("same seed diverged:\n first: %+v\nsecond: %+v", first, second)
	}
}

// TestSimTransportSmoke: nodes over the simulated transport on a clean
// link behave like nodes over pipes — handshake, block gossip, sync.
func TestSimTransportSmoke(t *testing.T) {
	h := netsim.NewHarness(t, 5, 2, netsim.LinkConfig{Latency: time.Millisecond})
	h.Connect(0, 1)
	h.Settle(10)
	if h.Nodes[0].PeerCount() != 1 || h.Nodes[1].PeerCount() != 1 {
		t.Fatalf("handshake failed: peer counts %d/%d",
			h.Nodes[0].PeerCount(), h.Nodes[1].PeerCount())
	}
	h.MineN(0, 3)
	h.WaitConverged()
	if got := h.Nodes[1].Chain().BestHeight(); got != 3 {
		t.Fatalf("node 1 height %d, want 3", got)
	}
}

// TestSimRedialAfterCorruptionKill: byte corruption fails the wire
// checksum, which kills the connection; the dialing node must redial
// with backoff and resync so gossip keeps flowing, with no help from the
// harness.
func TestSimRedialAfterCorruptionKill(t *testing.T) {
	h := netsim.NewHarness(t, 11, 2, netsim.LinkConfig{Latency: time.Millisecond})
	h.Connect(0, 1)
	h.Settle(10)

	// Corrupt everything node 0 sends: the next message tears the
	// connection down.
	h.Net.SetLink(h.Host(0), h.Host(1), netsim.LinkConfig{
		Latency: time.Millisecond, CorruptRate: 1.0,
	})
	h.Mine(0)
	h.WaitFor("connection killed by corruption", func() bool {
		return h.Nodes[1].PeerCount() == 0 || h.Nodes[0].PeerCount() == 0
	})

	// Clean the link; the redial loop should restore the peer and the
	// periodic resync should deliver the missed block.
	h.Net.SetLink(h.Host(0), h.Host(1), netsim.LinkConfig{Latency: time.Millisecond})
	h.WaitFor("peer restored and chain synced", func() bool {
		return h.Nodes[0].HasPeerAddr(h.Host(1)) &&
			h.Nodes[1].Chain().BestHeight() == h.Nodes[0].Chain().BestHeight()
	})
}
