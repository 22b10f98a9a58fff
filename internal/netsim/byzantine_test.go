package netsim

// Byzantine scenarios: six hostile actor classes attack a 3-node honest
// ring simultaneously. The harness asserts the adversarial-defense
// invariants end to end:
//
//  1. every adversary is banned by its victim within bounded virtual
//     time, but the overlay flooder, whose unsolicited objects are
//     dropped uncharged: no node keeps one, so each holds exactly one
//     ka row per carrier whose object it holds;
//  2. resource bounds (mempool, peer counts) are never exceeded,
//     sampled continuously while waiting;
//  3. wallet traffic keeps flowing mid-attack: a payment and a Typecoin
//     grant's carrier broadcast during the flood relay to every mempool
//     and confirm, and every ledger fetches the grant and applies it;
//  4. no honest node is banned as collateral damage;
//  5. banned actors keep redialing and are refused at accept, never
//     re-entering the peer set;
//  6. after the attack the honest ring converges to one best hash with
//     all system invariants intact (AssertConverged).
//
// Scenarios run across a fixed seed list; replay one failing seed with
// SIM_SEED=<n>, or sweep a range with SIM_SEEDS=<lo>-<hi>.

import (
	"fmt"
	"testing"
	"time"

	"typecoin/internal/lf"
	"typecoin/internal/logic"
	"typecoin/internal/node"
	"typecoin/internal/p2p"
	"typecoin/internal/proof"
	"typecoin/internal/script"
	"typecoin/internal/telemetry"
	"typecoin/internal/testutil"
	"typecoin/internal/typecoin"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

// byzantineSeeds returns the scenario seed list, the single seed from
// SIM_SEED for replaying a failure, or the range in SIM_SEEDS.
func byzantineSeeds(t *testing.T) []int64 {
	return testutil.Seeds(t, 1, 7, 23, 42, 1337)
}

// byzantinePolicy pins the ban threshold the assertions read (the
// default), a ban that outlasts the scenario and an inbound cap the
// redialing actors press against; every other value is the shipped one.
func byzantinePolicy() p2p.Policy {
	return p2p.Policy{
		BanThreshold: 100,
		BanDuration:  2 * time.Hour,
		MaxInbound:   8,
	}
}

func byzantineBounds() Bounds {
	return Bounds{
		MaxPoolTxs:   200,
		MaxPoolBytes: 1 << 20,
		MaxPeers:     16,
	}
}

// banBound is the virtual-time budget for banning every adversary,
// measured from attack launch. It dominates the withholder (whose
// penalties accrue one stall sweep per virtual second after the 30s
// StallTimeout) plus the one-minute block schedule jump for the
// mid-attack confirmation.
const banBound = 30 * time.Minute

func runByzantineScenario(t *testing.T, seed int64) {
	cfg := LinkConfig{Latency: 2 * time.Millisecond, Jitter: time.Millisecond}
	h := NewHarness(t, seed, 3, cfg)
	h.SetDefense(byzantinePolicy(), byzantineBounds())
	h.Connect(0, 1)
	h.Connect(1, 2)
	h.Connect(2, 0)
	h.Settle(10)

	// Fund node 0's wallet past coinbase maturity.
	h.MineN(0, h.Params.CoinbaseMaturity+2)
	h.WaitConverged()

	attackStart := h.Clk.Now()

	// One actor of every class, victims spread across the ring. The
	// actor name is the host it attacks from — and the address its
	// victim bans.
	victims := map[string]int{
		"flooder":    0,
		"garbage":    1,
		"invspam":    2,
		"withhold":   0,
		"equivocate": 1,
	}
	actors := map[string]*Actor{
		"flooder":    StartFlooder(h, "flooder", victims["flooder"], 300),
		"garbage":    StartGarbageSender(h, "garbage", victims["garbage"], 2),
		"invspam":    StartInvSpammer(h, "invspam", victims["invspam"], 1500),
		"withhold":   StartWithholder(h, "withhold", victims["withhold"]),
		"equivocate": StartEquivocator(h, "equivocate", victims["equivocate"]),
	}
	// Two frames a 20 ms tick, a fifth of the message rate: never
	// rate-limited.
	overlay := StartOverlayFlooder(h, "overlay", 1, 2)
	h.Settle(5)

	// Wallet traffic must keep flowing mid-attack: broadcast a payment
	// and a Typecoin grant from node 0 while all six attacks are running.
	dest, err := h.Full[1].Wallet.NewKey()
	if err != nil {
		t.Fatalf("destination key: %v", err)
	}
	tx, err := h.Full[0].Wallet.Build(
		[]wallet.Output{{Value: 2_000_000, PkScript: script.PayToPubKeyHash(dest)}},
		wallet.BuildOptions{})
	if err != nil {
		t.Fatalf("build payment: %v", err)
	}
	if err := h.Nodes[0].BroadcastTx(tx); err != nil {
		t.Fatalf("broadcast payment: %v", err)
	}
	txid := tx.TxHash()
	grant, carrier := grantWithCarrier(t, h.Full[0])
	if err := h.Nodes[0].BroadcastTx(carrier); err != nil {
		t.Fatalf("broadcast grant carrier: %v", err)
	}
	if err := h.Nodes[0].BroadcastTypecoin(grant); err != nil {
		t.Fatalf("broadcast grant: %v", err)
	}
	h.WaitFor("payment and carrier in every mempool during attack", func() bool {
		h.AssertBounds()
		for _, node := range h.Nodes {
			if !node.Pool().Have(txid) || !node.Pool().Have(carrier.TxHash()) {
				return false
			}
		}
		return true
	})
	// Confirm them from the far side of the ring, still under attack:
	// node 2 then asks its peers for the grant.
	h.Mine(2)
	h.WaitFor("payment confirmed and grant applied on every node during attack", func() bool {
		h.AssertBounds()
		for i, node := range h.Nodes {
			if _, onChain := node.Chain().TxByID(txid); !onChain || !h.Full[i].Ledger.Applied(carrier.TxHash()) {
				return false
			}
		}
		return true
	})

	// Every adversary is banned by its victim within bounded virtual
	// time, with resource bounds holding throughout.
	h.WaitFor("every adversary banned", func() bool {
		h.AssertBounds()
		for name, vi := range victims {
			if !h.Nodes[vi].IsBanned(name) {
				return false
			}
		}
		return true
	})
	if elapsed := h.Clk.Now().Sub(attackStart); elapsed > banBound {
		t.Fatalf("banning all adversaries took %v of virtual time, bound %v", elapsed, banBound)
	}

	// The same facts at the metric level: every victim's ban counter and
	// banned-address gauge moved, misbehavior points accumulated, and the
	// ban landed in the victim's event trace under the adversary's name.
	for name, vi := range victims {
		if got := h.Metric(vi, "p2p_bans_total"); got < 1 {
			t.Fatalf("node %d banned %s but p2p_bans_total = %v", vi, name, got)
		}
		if got := h.Metric(vi, "p2p_misbehavior_points_total"); got <= 0 {
			t.Fatalf("node %d: p2p_misbehavior_points_total = %v after attack", vi, got)
		}
		if got := h.Metric(vi, "p2p_banned_addrs"); got < 1 {
			t.Fatalf("node %d: p2p_banned_addrs = %v after banning %s", vi, got, name)
		}
		if events := h.Full[vi].Tracer.Events(name, 0); len(events) == 0 {
			t.Fatalf("node %d has no trace events for banned adversary %s", vi, name)
		}
	}
	// Honest counters stay clean: no node's trace records a ban of an
	// honest ring member.
	for i := range h.Nodes {
		for j := range h.Nodes {
			for _, ev := range h.Full[i].Tracer.Events(h.Host(j), 0) {
				if ev.Kind == telemetry.EvPeerBanned {
					t.Fatalf("node %d trace records a ban of honest node %d: %+v", i, j, ev)
				}
			}
		}
	}

	// The overlay flooder pushed on throughout, was never charged and
	// still holds its first connection; no node kept what it sent.
	if got := h.Nodes[1].BanScore(overlay.Name); got != 0 {
		t.Fatalf("node 1 charged the overlay flooder %d points, want 0", got)
	}
	if overlay.Dials() != 1 || overlay.Sent() < 1000 {
		t.Fatalf("overlay flooder dialed %d times and sent %d frames, want one connection and at least 1000",
			overlay.Dials(), overlay.Sent())
	}
	for i, nd := range h.Full {
		if rows := kaRows(t, nd); rows != 1 {
			t.Fatalf("node %d holds %d ka rows, want 1: the grant's, the one carrier", i, rows)
		}
	}
	overlay.Stop()

	// Banned actors keep redialing; the accept path must refuse them.
	before := make(map[string]int64)
	for name, a := range actors {
		before[name] = a.Dials()
	}
	h.Settle(50)
	for name, a := range actors {
		if a.Dials() <= before[name] {
			t.Fatalf("banned actor %s stopped redialing; refusal path not exercised", name)
		}
	}
	// No actor is in any peer set: each node holds exactly its two
	// honest ring neighbors.
	for i, node := range h.Nodes {
		if got := node.PeerCount(); got != 2 {
			t.Fatalf("node %d has %d peers after bans, want 2 honest ring neighbors", i, got)
		}
	}
	// No honest node was banned as collateral damage.
	for i, node := range h.Nodes {
		for j := range h.Nodes {
			if i != j && node.IsBanned(h.Host(j)) {
				t.Fatalf("node %d banned honest node %d (score %d)", i, j, node.BanScore(h.Host(j)))
			}
		}
	}

	for _, a := range actors {
		a.Stop()
	}
	h.Settle(10)

	// The honest ring converges with all system invariants intact.
	h.MineN(1, 2)
	h.WaitConverged()
	h.AssertConverged()
	h.AssertBounds()
}

// grantWithCarrier builds, on nd's wallet, a Typecoin grant of a fresh
// token to the wallet's first key, and its carrier.
func grantWithCarrier(t *testing.T, nd *node.Node) (*typecoin.FallbackList, *wire.MsgTx) {
	t.Helper()
	owner, err := nd.Wallet.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	ownerKey, err := nd.Wallet.Key(owner)
	if err != nil {
		t.Fatal(err)
	}
	grant := typecoin.NewTx()
	if err := grant.Basis.DeclareFam(lf.This("tok"), lf.KProp{}); err != nil {
		t.Fatal(err)
	}
	grant.Grant = logic.Atom(lf.This("tok"))
	grant.Outputs = []typecoin.Output{{Type: grant.Grant, Amount: 5_000, Owner: ownerKey.PubKey()}}
	grant.Proof = proof.Lam{Name: "d", Ty: grant.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("c")}}}
	outs, err := typecoin.CarrierOutputs(grant)
	if err != nil {
		t.Fatal(err)
	}
	wOuts := make([]wallet.Output, len(outs))
	for i, o := range outs {
		wOuts[i] = wallet.Output{Value: o.Value, PkScript: o.PkScript}
	}
	carrier, err := nd.Wallet.Build(wOuts, wallet.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return &typecoin.FallbackList{Txs: []*typecoin.Tx{grant}}, carrier
}

// kaRows counts the overlay objects nd's ledger has persisted.
func kaRows(t *testing.T, nd *node.Node) int {
	t.Helper()
	rows := 0
	if err := nd.Chain.Store().Iterate([]byte("ka"), func(_, _ []byte) error {
		rows++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestByzantineScenarios(t *testing.T) {
	for _, seed := range byzantineSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runByzantineScenario(t, seed)
		})
	}
}

// runHeaderSkeletonScenario attacks the headers-first download manager
// itself: an actor serves a valid header skeleton heavier than the
// honest chain and then withholds (or corrupts) every body. The victim
// must adopt the skeleton, charge the only peer claiming that chain,
// ban it, leave the honest ring untouched, and converge once the honest
// chain outruns the dead fork.
func runHeaderSkeletonScenario(t *testing.T, seed int64, corrupt bool) {
	cfg := LinkConfig{Latency: 2 * time.Millisecond, Jitter: time.Millisecond}
	h := NewHarness(t, seed, 3, cfg)
	h.SetDefense(byzantinePolicy(), byzantineBounds())
	h.Connect(0, 1)
	h.Connect(1, 2)
	h.Connect(2, 0)
	h.Settle(10)

	const honestHeight = 8
	const forkDepth = 20 // heavier than the honest chain at attack time
	h.MineN(0, honestHeight)
	h.WaitConverged()

	attackStart := h.Clk.Now()
	victim := 0
	var a *Actor
	if corrupt {
		a = StartSkeletonCorrupter(h, "skelcorrupt", victim, forkDepth)
	} else {
		a = StartSkeletonWithholder(h, "skelwithhold", victim, forkDepth)
	}

	// The skeleton is valid and heavier, so the victim must adopt it —
	// headers-first cannot tell it apart from an honest better chain.
	h.WaitFor("victim adopts the hostile skeleton", func() bool {
		h.AssertBounds()
		return h.Nodes[victim].Chain().HeaderHeight() == forkDepth
	})

	// Bodies never materialize (or never validate), so the ban must land
	// within the virtual-time bound, with the connected chain unmoved.
	h.WaitFor("skeleton actor banned", func() bool {
		h.AssertBounds()
		return h.Nodes[victim].IsBanned(a.Name)
	})
	if elapsed := h.Clk.Now().Sub(attackStart); elapsed > banBound {
		t.Fatalf("banning the skeleton actor took %v of virtual time, bound %v", elapsed, banBound)
	}
	if got := h.Nodes[victim].Chain().BestHeight(); got != honestHeight {
		t.Fatalf("victim's connected chain moved to %d on a bodyless skeleton, want %d",
			got, honestHeight)
	}
	if corrupt {
		// Each tampered body is charged as an invalid block.
		if got := h.Metric(victim, "p2p_misbehavior_points_total"); got < 100 {
			t.Fatalf("p2p_misbehavior_points_total = %v after corrupt bodies, want >= 100", got)
		}
	} else {
		// The withheld bodies are charged through the stall sweep.
		if got := h.Metric(victim, "p2p_stalls_total"); got < 1 {
			t.Fatalf("p2p_stalls_total = %v after withheld bodies, want >= 1", got)
		}
	}
	// The fork's bodies were only ever scheduled on the actor: no honest
	// node is banned or even meaningfully scored as collateral.
	for i, node := range h.Nodes {
		for j := range h.Nodes {
			if i != j && node.IsBanned(h.Host(j)) {
				t.Fatalf("node %d banned honest node %d (score %d)", i, j, node.BanScore(h.Host(j)))
			}
		}
	}
	for j := range h.Nodes {
		if j != victim {
			if score := h.Nodes[victim].BanScore(h.Host(j)); score > 0 {
				t.Fatalf("victim charged honest node %d with %d points for the hostile skeleton",
					j, score)
			}
		}
	}

	a.Stop()
	h.Settle(10)

	// Once the honest chain outruns the dead fork, the victim's header
	// tip returns to the honest skeleton and everything converges.
	h.MineN(1, forkDepth-honestHeight+2)
	h.WaitConverged()
	h.AssertConverged()
	if hh, bh := h.Nodes[victim].Chain().HeaderHeight(), h.Nodes[victim].Chain().BestHeight(); hh != bh {
		t.Fatalf("victim header tip %d still off the connected chain %d after recovery", hh, bh)
	}
	h.AssertBounds()
}

func TestByzantineScenariosHeaderSkeleton(t *testing.T) {
	for _, seed := range byzantineSeeds(t) {
		t.Run(fmt.Sprintf("withhold/seed=%d", seed), func(t *testing.T) {
			runHeaderSkeletonScenario(t, seed, false)
		})
		t.Run(fmt.Sprintf("corrupt/seed=%d", seed), func(t *testing.T) {
			runHeaderSkeletonScenario(t, seed, true)
		})
	}
}
