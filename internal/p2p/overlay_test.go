package p2p_test

// Tests of the overlay's one relay path and of notfound: an overlay
// object moves as a transaction does, by inv and a recorded getdata,
// and is kept only when this node asked for it; a getdata entry the
// peer cannot serve is answered at once with notfound.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"typecoin/internal/chainhash"
	"typecoin/internal/lf"
	"typecoin/internal/logic"
	"typecoin/internal/miner"
	"typecoin/internal/netsim"
	"typecoin/internal/p2p"
	"typecoin/internal/proof"
	"typecoin/internal/script"
	"typecoin/internal/telemetry"
	"typecoin/internal/testutil"
	"typecoin/internal/typecoin"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

// TestOverlayFloodNotKept: a hand-spoken peer pushes 2 000 distinct,
// well-formed overlay objects that no carrier names and no one asked
// for. The node keeps, persists and relays none of them (it sends its
// other peer nothing), charges the peer nothing and keeps the
// connection.
func TestOverlayFloodNotKept(t *testing.T) {
	checkGoroutines(t)
	h, ledgers := newLedgerHarness(t, 2)
	node := h.nodes[0]
	reg := telemetry.NewRegistry()
	node.SetTelemetry(reg, nil)
	p2p.ConnectPipe(node, h.nodes[1])
	addr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flooder := dialRawPeer(t, addr, h.params.Magic)
	// The pipe peer is sent version, verack, getheaders and the headers
	// that answer its own getheaders, and then nothing while no block or
	// transaction moves.
	sentToPipe := func() uint64 { return reg.VecValues("p2p_sent_messages_total")[`{peer="pipe"}`] }
	waitFor(t, "the handshake with the pipe peer", func() bool { return sentToPipe() == 4 })

	const objects = 2000
	hashes := make([]chainhash.Hash, objects)
	for i := range hashes {
		tx := typecoin.NewTx()
		tx.Proof = proof.V(fmt.Sprintf("flood%d", i))
		obj := &typecoin.FallbackList{Txs: []*typecoin.Tx{tx}}
		payload, err := typecoin.EncodeObject(obj)
		if err != nil {
			t.Fatal(err)
		}
		flooder.send(wire.CmdOverlay, payload)
		hashes[i] = obj.Hash()
	}
	// The node has handled every object once it answers the flooder's
	// ping; what it relayed meanwhile is sent once its backlog drains.
	flooder.roundTrip()
	waitFor(t, "the send backlog drains", func() bool { return node.SendBacklog() == 0 })
	if got := sentToPipe(); got != 4 {
		t.Fatalf("the node sent its other peer %d messages during the flood, want 0", got-4)
	}

	for _, h := range hashes {
		if _, ok := ledgers[0].KnownObject(h); ok {
			t.Fatalf("the node kept unsolicited object %s", h)
		}
	}
	rows := 0
	if err := node.Chain().Store().Iterate([]byte("ka"), func(_, _ []byte) error {
		rows++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rows != 0 {
		t.Fatalf("the node persisted %d ka rows, want 0", rows)
	}
	if got := node.BanScore("127.0.0.1"); got != 0 {
		t.Fatalf("the flooder was charged %d, want 0", got)
	}
	if got := node.PeerCount(); got != 2 {
		t.Fatalf("the node has %d peers, want the flooder and the pipe peer", got)
	}
}

// TestNotFoundEndsRequestsForMinedTxs: node 0 announces three
// transactions to node 1, and each is mined, on both nodes, before node
// 1's getdata reaches node 0 (node 1's frames to node 0 are held until
// then). Node 0 answers each getdata with notfound, so node 1 settles
// the request at once: over the stall time-out that follows, neither
// node collects stall points and p2p_stalls_total stays 0.
func TestNotFoundEndsRequestsForMinedTxs(t *testing.T) {
	h := netsim.NewHarness(t, 1, 2, netsim.LinkConfig{Latency: 2 * time.Millisecond})
	h.Connect(1, 0)
	h.Settle(5)
	h.MineN(0, h.Params.CoinbaseMaturity+3)
	h.WaitConverged()

	dest, err := h.Full[0].Wallet.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		tx, err := h.Full[0].Wallet.Build(
			[]wallet.Output{{Value: 1_000_000, PkScript: script.PayToPubKeyHash(dest)}},
			wallet.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		h.Net.StallOneWay(h.Host(1), h.Host(0))
		if err := h.Nodes[0].BroadcastTx(tx); err != nil {
			t.Fatal(err)
		}
		h.Settle(5) // node 1 hears the inv; its getdata is held

		h.Clk.Advance(time.Minute)
		blk, _, err := h.Full[0].Miner.Mine(h.Payouts[0])
		if err != nil {
			t.Fatal(err)
		}
		if len(blk.Transactions) != 2 || blk.Transactions[1].TxHash() != tx.TxHash() {
			t.Fatalf("block %d does not carry the announced transaction", i)
		}
		// Node 1 connects the block before node 0's inv of it arrives, so
		// it asks node 0 for nothing else.
		if _, err := h.Nodes[1].Chain().ProcessBlock(blk); err != nil {
			t.Fatal(err)
		}
		h.Net.Unstall(h.Host(1), h.Host(0))
		h.Settle(5)
	}

	start, stall := h.Live.Now(), p2p.DefaultPolicy().StallTimeout
	h.WaitFor("the stall time-out passes", func() bool {
		return h.Live.Now().Sub(start) > stall+2*time.Second
	})
	for i := range h.Nodes {
		if got := h.Metric(i, "p2p_stalls_total"); got != 0 {
			t.Errorf("node %d: p2p_stalls_total = %v, want 0", i, got)
		}
		if got := h.Nodes[i].BanScore(h.Host(1 - i)); got != 0 {
			t.Errorf("node %d charged node %d %d points, want 0", i, 1-i, got)
		}
	}
}

// TestOverlayFetchForCarrierTwin: node 0 announces a grant, and a third
// party's twin of its carrier, not the carrier, is mined on node 1. The
// twin keeps the carrier's outputs, and with them the metadata key and
// the commitment hash, so node 1 asks for the same object, and both
// ledgers apply the grant under the twin's txid.
func TestOverlayFetchForCarrierTwin(t *testing.T) {
	h, ledgers := newLedgerHarness(t, 2)
	p2p.ConnectPipe(h.nodes[0], h.nodes[1])
	w := wallet.New(h.nodes[0].Chain(), testutil.NewEntropy(t.Name()))
	payout, err := w.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	m := miner.New(h.nodes[0].Chain(), nil, h.clk)
	for i := 0; i <= h.params.CoinbaseMaturity; i++ {
		h.clk.Advance(time.Minute)
		if _, _, err := m.Mine(payout); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "initial sync", func() bool {
		return h.nodes[1].Chain().BestHash() == h.nodes[0].Chain().BestHash()
	})

	ownerKey, err := w.Key(payout)
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
	twin := paddedTwin(t, buildCarrier(t, w, grant))
	if err := h.nodes[0].BroadcastTypecoin(&typecoin.FallbackList{Txs: []*typecoin.Tx{grant}}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.nodes[1].Pool().Accept(twin); err != nil {
		t.Fatalf("node 1 refuses the twin: %v", err)
	}
	h.clk.Advance(time.Minute)
	if _, _, err := miner.New(h.nodes[1].Chain(), h.nodes[1].Pool(), h.clk).Mine(payout); err != nil {
		t.Fatal(err)
	}
	for i, l := range ledgers {
		waitFor(t, fmt.Sprintf("ledger %d applies the grant under the twin", i), func() bool {
			return l.Applied(twin.TxHash())
		})
	}
}

// paddedTwin returns a twin of tx as a third party can make it in
// flight: the DER signature of its first input gains a byte inside the
// SEQUENCE, after S, which the signature parser ignores. The twin
// verifies, spends and pays what tx does, under another txid.
func paddedTwin(t *testing.T, tx *wire.MsgTx) *wire.MsgTx {
	t.Helper()
	var twin wire.MsgTx
	if err := twin.Deserialize(bytes.NewReader(tx.Bytes())); err != nil {
		t.Fatal(err)
	}
	// A P2PKH signature script: a push of DER || hash type, then one of
	// the key.
	ss := twin.TxIn[0].SignatureScript
	n := int(ss[0])
	if n >= 0x4c || ss[1] != 0x30 || int(ss[2]) != n-3 {
		t.Fatalf("unexpected signature script %x", ss)
	}
	padded := append([]byte{byte(n + 1), 0x30, byte(n - 2)}, ss[3:n]...) // R and S
	padded = append(padded, 0x00, ss[n])                                 // the pad, the hash type
	twin.TxIn[0].SignatureScript = append(padded, ss[n+1:]...)
	twin.InvalidateCache()
	if twin.TxHash() == tx.TxHash() {
		t.Fatal("the twin has its original's txid")
	}
	return &twin
}
