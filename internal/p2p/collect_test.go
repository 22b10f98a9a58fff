//go:build go1.24

package p2p_test

import (
	"runtime"
	"testing"
	"time"
	"weak"

	"typecoin/internal/chain"
	"typecoin/internal/clock"
	"typecoin/internal/mempool"
	"typecoin/internal/miner"
	"typecoin/internal/p2p"
	"typecoin/internal/script"
	"typecoin/internal/testutil"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

// TestStoppedMeshIsCollectable builds a three-node mesh as the relay
// benchmark does (join 0–1 and 0–2, sync, then 1–2), relays 200
// transactions, stops the nodes, and requires that the garbage collector
// reclaims every node's chain. It does so for two meshes in turn, as the
// benchmark builds one world after another: a stopped node must leave
// nothing behind that keeps it reachable, such as timers still pending
// from its sends, which would carry each world into the next. A chain
// sits in reference cycles, where a finalizer never runs, so the test
// watches it through a weak pointer, which needs Go 1.24.
func TestStoppedMeshIsCollectable(t *testing.T) {
	for mesh := 0; mesh < 2; mesh++ {
		chains := relayAndStop(t)
		for i := 0; i < 3; i++ {
			runtime.GC()
		}
		for i, c := range chains {
			if c.Value() != nil {
				t.Errorf("mesh %d: node %d's chain is still reachable after Stop", mesh, i)
			}
		}
	}
}

// relayAndStop runs one mesh, stops it, and returns weak pointers to its
// chains.
func relayAndStop(t *testing.T) []weak.Pointer[chain.Chain] {
	const txs = 200
	params := chain.RegTestParams()
	clk := clock.NewSimulated(params.GenesisBlock.Header.Timestamp.Add(time.Minute))
	var nodes []*p2p.Node
	for i := 0; i < 3; i++ {
		c := chain.New(params, clk)
		nodes = append(nodes, p2p.NewNode(c, mempool.New(c, -1), nil))
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()

	// Fund one confirmed output per transaction.
	w := wallet.New(nodes[0].Chain(), testutil.NewEntropy(t.Name()))
	key, err := w.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	m := miner.New(nodes[0].Chain(), nodes[0].Pool(), clk)
	mine := func() {
		t.Helper()
		clk.Advance(time.Minute)
		if _, _, err := m.Mine(key); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < params.CoinbaseMaturity+1; i++ {
		mine()
	}
	const value = 10_000_000
	outs := make([]wallet.Output, txs)
	for i := range outs {
		outs[i] = wallet.Output{Value: value, PkScript: script.PayToPubKeyHash(key)}
	}
	fund, err := w.Build(outs, wallet.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].BroadcastTx(fund); err != nil {
		t.Fatal(err)
	}
	mine()

	p2p.ConnectPipe(nodes[0], nodes[1])
	p2p.ConnectPipe(nodes[0], nodes[2])
	waitFor(t, "nodes 1 and 2 sync", func() bool {
		tip := nodes[0].Chain().BestHash()
		return nodes[1].Chain().BestHash() == tip && nodes[2].Chain().BestHash() == tip
	})
	p2p.ConnectPipe(nodes[1], nodes[2])

	var sent []*wire.MsgTx
	for i := 0; i < txs; i++ {
		tx, err := w.Build([]wallet.Output{{Value: value - wallet.DefaultFee, PkScript: script.PayToPubKeyHash(key)}},
			wallet.BuildOptions{ExtraInputs: []wire.OutPoint{{Hash: fund.TxHash(), Index: uint32(i)}}})
		if err != nil {
			t.Fatal(err)
		}
		if err := nodes[0].BroadcastTx(tx); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, tx)
	}
	waitFor(t, "the transactions reach nodes 1 and 2", func() bool {
		for _, tx := range sent {
			if !nodes[1].Pool().Have(tx.TxHash()) || !nodes[2].Pool().Have(tx.TxHash()) {
				return false
			}
		}
		return true
	})

	var chains []weak.Pointer[chain.Chain]
	for _, n := range nodes {
		chains = append(chains, weak.Make(n.Chain()))
	}
	return chains
}
