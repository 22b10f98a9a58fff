package node

import (
	"runtime"
	"testing"
	"time"

	"typecoin/internal/bkey"
	"typecoin/internal/chain"
	"typecoin/internal/client"
	"typecoin/internal/clock"
	"typecoin/internal/lf"
	"typecoin/internal/logic"
	"typecoin/internal/p2p"
	"typecoin/internal/proof"
	"typecoin/internal/store"
	"typecoin/internal/testutil"
	"typecoin/internal/typecoin"
)

func openT(t *testing.T, cfg Config) *Node {
	t.Helper()
	nd, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return nd
}

func mine(t *testing.T, nd *Node, clk *clock.Simulated, payout bkey.Principal, blocks int) {
	t.Helper()
	for i := 0; i < blocks; i++ {
		clk.Advance(nd.Chain.Params().TargetSpacing)
		if _, _, err := nd.Miner.Mine(payout); err != nil {
			t.Fatalf("mine: %v", err)
		}
	}
}

// grant is a Typecoin transaction that creates one token of a fresh
// atomic type, owned by payout's key.
func grant(t *testing.T, nd *Node, payout bkey.Principal) *typecoin.Tx {
	t.Helper()
	key, err := nd.Wallet.Key(payout)
	if err != nil {
		t.Fatal(err)
	}
	tx := typecoin.NewTx()
	if err := tx.Basis.DeclareFam(lf.This("tok"), lf.KProp{}); err != nil {
		t.Fatal(err)
	}
	tok := logic.Atom(lf.This("tok"))
	tx.Grant = tok
	tx.Outputs = []typecoin.Output{{Type: tok, Amount: 5_000, Owner: key.PubKey()}}
	tx.Proof = proof.Lam{Name: "d", Ty: tx.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("c")}}}
	return tx
}

// A node on a File store reopens with its wallet's keys, the ledger's
// announcement and the ledger's applied carrier.
func TestReopenOnFileStore(t *testing.T) {
	dir := t.TempDir()
	clk := SimClock()
	open := func() *Node {
		st, err := store.OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		return openT(t, Config{Clock: clk, Store: st, Entropy: testutil.NewEntropy(t.Name())})
	}

	nd := open()
	payout, err := nd.Wallet.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	mine(t, nd, clk, payout, nd.Chain.Params().CoinbaseMaturity+1)
	tx := grant(t, nd, payout)
	carrier, err := client.New(nd.Chain, nd.Pool, nd.Wallet, nd.Ledger).Submit(tx)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	mine(t, nd, clk, payout, 1)
	if !nd.Ledger.Applied(carrier.TxHash()) {
		t.Fatal("carrier not applied before the reopen")
	}
	applied := nd.Ledger.AppliedCount()
	if err := nd.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	nd = open()
	defer nd.Close()
	if ps := nd.Wallet.Principals(); len(ps) != 1 || ps[0] != payout {
		t.Fatalf("reopened wallet holds %v, want [%s]", ps, payout)
	}
	if _, ok := nd.Ledger.KnownObject(tx.Hash()); !ok {
		t.Fatal("reopened ledger lost the announcement")
	}
	if got := nd.Ledger.AppliedCount(); got != applied || !nd.Ledger.Applied(carrier.TxHash()) {
		t.Fatalf("reopened ledger applied %d carriers (carrier applied: %v), want %d",
			got, nd.Ledger.Applied(carrier.TxHash()), applied)
	}
}

// layerState is what the index, mempool, wallet and ledger show of the
// blocks they have handled: the index's tip height, the mempool's size,
// the wallet's output count and the ledger's applied carriers.
type layerState [4]int

func stateOf(nd *Node) layerState {
	return layerState{nd.Index.TipHeight(), nd.Pool.Size(), nd.Wallet.UtxoCount(), nd.Ledger.AppliedCount()}
}

// When the p2p layer hears of a connected block, the index, mempool,
// wallet and ledger have all handled it already: what they show at that
// moment is what they show once the block is processed. A coinbase-only
// block moves the index and the wallet, a block carrying a typed
// transaction the index, mempool and ledger.
func TestP2PHearsOfABlockLast(t *testing.T) {
	var nd *Node
	var atP2P []layerState
	beforeP2P = func(ev chain.Notification) {
		if ev.Connected {
			atP2P = append(atP2P, stateOf(nd))
		}
	}
	t.Cleanup(func() { beforeP2P = nil })
	clk := SimClock()
	nd = openT(t, Config{Clock: clk, Entropy: testutil.NewEntropy(t.Name())})
	defer nd.Close()
	payout, err := nd.Wallet.NewKey()
	if err != nil {
		t.Fatal(err)
	}

	var moved [4]bool
	mineChecked := func() {
		t.Helper()
		before := stateOf(nd)
		mine(t, nd, clk, payout, 1)
		after := stateOf(nd)
		if got := atP2P[len(atP2P)-1]; got != after {
			t.Fatalf("block %d: the p2p layer heard of it at %v; once processed the layers show %v",
				nd.Chain.BestHeight(), got, after)
		}
		for i := range moved {
			moved[i] = moved[i] || after[i] != before[i]
		}
	}
	for i := 0; i <= nd.Chain.Params().CoinbaseMaturity; i++ {
		mineChecked()
	}
	carrier, err := client.New(nd.Chain, nd.Pool, nd.Wallet, nd.Ledger).Submit(grant(t, nd, payout))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	mineChecked()
	if !nd.Ledger.Applied(carrier.TxHash()) {
		t.Fatal("carrier not applied")
	}
	if moved != [4]bool{true, true, true, true} {
		t.Fatalf("some layer never moved (index, mempool, wallet, ledger): %v", moved)
	}
}

// Close stops every goroutine the node started: two nodes gossip blocks
// over a pipe, and after Close the goroutine count returns to what it
// was before Open.
func TestCloseStopsGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	clk := SimClock()
	a := openT(t, Config{Clock: clk, Entropy: testutil.NewEntropy(t.Name())})
	b := openT(t, Config{Clock: clk, Store: store.NewRetry(store.NewMem(), store.RetryConfig{})})
	p2p.ConnectPipe(a.P2P, b.P2P)
	payout, err := a.Wallet.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		clk.Advance(time.Minute)
		blk, _, err := a.Miner.Mine(payout)
		if err != nil {
			t.Fatal(err)
		}
		a.P2P.BroadcastBlock(blk)
	}
	waitFor(t, "b to sync", func() bool { return b.Chain.BestHash() == a.Chain.BestHash() })
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "goroutines to exit", func() bool { return runtime.NumGoroutine() <= baseline })
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("timed out waiting for %s\n%s", what, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
