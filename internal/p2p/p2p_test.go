package p2p_test

import (
	"bytes"
	"net"
	"testing"
	"time"

	"typecoin/internal/bkey"
	"typecoin/internal/chain"
	"typecoin/internal/chainhash"
	"typecoin/internal/clock"
	"typecoin/internal/lf"
	"typecoin/internal/logic"
	"typecoin/internal/mempool"
	"typecoin/internal/miner"
	"typecoin/internal/p2p"
	"typecoin/internal/proof"
	"typecoin/internal/script"
	"typecoin/internal/testutil"
	"typecoin/internal/typecoin"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

// netHarness is a set of in-process nodes sharing one simulated clock.
type netHarness struct {
	params *chain.Params
	clk    *clock.Simulated
	nodes  []*p2p.Node
}

func newNetHarness(t *testing.T, n int) *netHarness {
	t.Helper()
	h, _ := newHarness(t, n, false)
	return h
}

// newLedgerHarness is newNetHarness with a ledger on every node,
// persisted in the node's chain store and opened before its p2p node,
// as node.Open orders them: a ledger has seen a block's carriers by the
// time its p2p node hears of the block.
func newLedgerHarness(t *testing.T, n int) (*netHarness, []*typecoin.Ledger) {
	t.Helper()
	return newHarness(t, n, true)
}

func newHarness(t *testing.T, n int, withLedgers bool) (*netHarness, []*typecoin.Ledger) {
	t.Helper()
	params := chain.RegTestParams()
	clk := clock.NewSimulated(params.GenesisBlock.Header.Timestamp.Add(time.Minute))
	h := &netHarness{params: params, clk: clk}
	var ledgers []*typecoin.Ledger
	for i := 0; i < n; i++ {
		c := chain.New(params, clk)
		var ledger *typecoin.Ledger
		if withLedgers {
			var err error
			if ledger, err = typecoin.OpenLedger(c, 1); err != nil {
				t.Fatal(err)
			}
			ledgers = append(ledgers, ledger)
		}
		node := p2p.NewNode(c, mempool.New(c, -1), nil)
		if ledger != nil {
			node.SetLedger(ledger)
		}
		h.nodes = append(h.nodes, node)
	}
	t.Cleanup(func() {
		for _, node := range h.nodes {
			node.Stop()
		}
	})
	return h, ledgers
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestBlockPropagationPipe(t *testing.T) {
	h := newNetHarness(t, 3)
	// Line topology: 0 - 1 - 2.
	p2p.ConnectPipe(h.nodes[0], h.nodes[1])
	p2p.ConnectPipe(h.nodes[1], h.nodes[2])

	w := wallet.New(h.nodes[0].Chain(), testutil.NewEntropy(t.Name()))
	payout, err := w.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	m := miner.New(h.nodes[0].Chain(), h.nodes[0].Pool(), h.clk)
	for i := 0; i < 3; i++ {
		h.clk.Advance(time.Minute)
		blk, _, err := m.Mine(payout)
		if err != nil {
			t.Fatal(err)
		}
		_ = blk
	}
	waitFor(t, "node 2 at height 3", func() bool {
		return h.nodes[2].Chain().BestHeight() == 3
	})
	if h.nodes[2].Chain().BestHash() != h.nodes[0].Chain().BestHash() {
		t.Error("tips differ after propagation")
	}
}

func TestInitialBlockDownload(t *testing.T) {
	h := newNetHarness(t, 2)
	// Node 0 mines alone, then node 1 connects and must catch up.
	w := wallet.New(h.nodes[0].Chain(), testutil.NewEntropy(t.Name()))
	payout, err := w.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	m := miner.New(h.nodes[0].Chain(), h.nodes[0].Pool(), h.clk)
	for i := 0; i < 20; i++ {
		h.clk.Advance(time.Minute)
		if _, _, err := m.Mine(payout); err != nil {
			t.Fatal(err)
		}
	}
	p2p.ConnectPipe(h.nodes[0], h.nodes[1])
	waitFor(t, "node 1 sync to height 20", func() bool {
		return h.nodes[1].Chain().BestHeight() == 20
	})
}

func TestTxPropagationAndMining(t *testing.T) {
	h := newNetHarness(t, 2)
	p2p.ConnectPipe(h.nodes[0], h.nodes[1])

	w := wallet.New(h.nodes[0].Chain(), testutil.NewEntropy(t.Name()))
	payout, err := w.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	m := miner.New(h.nodes[0].Chain(), h.nodes[0].Pool(), h.clk)
	for i := 0; i < h.params.CoinbaseMaturity+1; i++ {
		h.clk.Advance(time.Minute)
		if _, _, err := m.Mine(payout); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "node 1 sync", func() bool {
		return h.nodes[1].Chain().BestHeight() == h.nodes[0].Chain().BestHeight()
	})

	dest, err := w.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	tx, err := w.Build([]wallet.Output{
		{Value: 1_0000_0000, PkScript: script.PayToPubKeyHash(dest)},
	}, wallet.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.nodes[0].BroadcastTx(tx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "tx reaches node 1", func() bool {
		return h.nodes[1].Pool().Have(tx.TxHash())
	})

	// Node 1 mines the transaction; node 0 learns the block and clears
	// its pool.
	w1 := wallet.New(h.nodes[1].Chain(), testutil.NewEntropy("other"))
	payout1, err := w1.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	m1 := miner.New(h.nodes[1].Chain(), h.nodes[1].Pool(), h.clk)
	h.clk.Advance(time.Minute)
	if _, _, err := m1.Mine(payout1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "node 0 sees the block", func() bool {
		return h.nodes[0].Chain().Confirmations(tx.TxHash()) == 1
	})
	waitFor(t, "node 0 pool drains", func() bool {
		return h.nodes[0].Pool().Size() == 0
	})
}

func TestForkResolutionAcrossNetwork(t *testing.T) {
	h := newNetHarness(t, 2)
	// Mine divergent chains while partitioned.
	w0 := wallet.New(h.nodes[0].Chain(), testutil.NewEntropy("w0"))
	p0, err := w0.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	w1 := wallet.New(h.nodes[1].Chain(), testutil.NewEntropy("w1"))
	p1, err := w1.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	m0 := miner.New(h.nodes[0].Chain(), h.nodes[0].Pool(), h.clk)
	m1 := miner.New(h.nodes[1].Chain(), h.nodes[1].Pool(), h.clk)
	// Node 0 mines 3 blocks, node 1 mines 5: node 1's branch carries more
	// work and must win after the partition heals.
	for i := 0; i < 3; i++ {
		h.clk.Advance(time.Minute)
		if _, _, err := m0.Mine(p0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		h.clk.Advance(time.Minute)
		if _, _, err := m1.Mine(p1); err != nil {
			t.Fatal(err)
		}
	}
	p2p.ConnectPipe(h.nodes[0], h.nodes[1])
	waitFor(t, "convergence", func() bool {
		return h.nodes[0].Chain().BestHash() == h.nodes[1].Chain().BestHash()
	})
	if h.nodes[0].Chain().BestHeight() != 5 {
		t.Errorf("converged height = %d, want 5", h.nodes[0].Chain().BestHeight())
	}
}

// TestTCPTransport: a node that dials over TCP syncs the block its peer
// already has, then receives the next one as it is mined. The clock
// moves only after the first sync, which proves the handshake done: a
// jump while it is in flight would age it on the nodes' liveness clock.
func TestTCPTransport(t *testing.T) {
	h := newNetHarness(t, 2)
	w := wallet.New(h.nodes[0].Chain(), testutil.NewEntropy(t.Name()))
	payout, err := w.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	m := miner.New(h.nodes[0].Chain(), h.nodes[0].Pool(), h.clk)
	mine := func() {
		t.Helper()
		h.clk.Advance(time.Minute)
		if _, _, err := m.Mine(payout); err != nil {
			t.Fatal(err)
		}
	}
	mine()

	addr, err := h.nodes[0].Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.nodes[1].Dial(addr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "sync over TCP", func() bool {
		return h.nodes[1].Chain().BestHeight() == 1
	})
	mine()
	waitFor(t, "block over TCP", func() bool {
		return h.nodes[1].Chain().BestHeight() == 2
	})
}

func TestStopIsIdempotent(t *testing.T) {
	h := newNetHarness(t, 2)
	p2p.ConnectPipe(h.nodes[0], h.nodes[1])
	h.nodes[0].Stop()
	h.nodes[0].Stop()
	waitFor(t, "peer drop", func() bool { return h.nodes[1].PeerCount() == 0 })
}

// TestGarbageResilience: a peer that speaks garbage is dropped without
// harming the node, and honest peers keep working.
func TestGarbageResilience(t *testing.T) {
	h := newNetHarness(t, 2)
	p2p.ConnectPipe(h.nodes[0], h.nodes[1])

	addr, err := h.nodes[0].Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Raw garbage: bad magic, then junk bytes.
	if _, err := conn.Write([]byte("this is not the bitcoin protocol at all......")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "garbage peer dropped", func() bool {
		// Only the honest pipe peer remains.
		return h.nodes[0].PeerCount() == 1
	})
	conn.Close()

	// A peer with the right magic but a corrupt checksum is also dropped.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wire.WriteMessage(&buf, wire.RegTestMagic, &wire.Message{
		Command: wire.CmdTx, Payload: []byte("junk")}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[20] ^= 0xff
	if _, err := conn2.Write(raw); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "corrupt peer dropped", func() bool {
		return h.nodes[0].PeerCount() == 1
	})
	conn2.Close()

	// The node still functions: mine a block, the honest peer gets it.
	w := wallet.New(h.nodes[0].Chain(), testutil.NewEntropy(t.Name()))
	payout, err := w.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	m := miner.New(h.nodes[0].Chain(), h.nodes[0].Pool(), h.clk)
	h.clk.Advance(time.Minute)
	if _, _, err := m.Mine(payout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "honest peer synced", func() bool {
		return h.nodes[1].Chain().BestHeight() == 1
	})
}

// TestInvalidBlockDoesNotKillPeer: a structurally valid but consensus-
// invalid block is rejected locally without disconnecting the peer.
func TestInvalidBlockDoesNotKillPeer(t *testing.T) {
	h := newNetHarness(t, 2)
	p2p.ConnectPipe(h.nodes[0], h.nodes[1])
	waitFor(t, "handshake", func() bool {
		return h.nodes[0].PeerCount() == 1 && h.nodes[1].PeerCount() == 1
	})
	// Build a block with a broken merkle root on node 1 and push it as a
	// raw message by mining locally on an isolated chain.
	w := wallet.New(h.nodes[1].Chain(), testutil.NewEntropy(t.Name()))
	payout, err := w.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	m := miner.New(h.nodes[1].Chain(), nil, h.clk)
	h.clk.Advance(time.Minute)
	blk, _, err := m.Mine(payout)
	if err != nil {
		t.Fatal(err)
	}
	_ = blk
	waitFor(t, "block propagates", func() bool {
		return h.nodes[0].Chain().BestHeight() == 1
	})
	// Peers still connected after normal traffic.
	if h.nodes[0].PeerCount() != 1 {
		t.Error("peer lost after valid traffic")
	}
}

// TestTypecoinOverlayGossip: typecoin announcements relay across the
// network; every node's ledger converges without manual announcement.
func TestTypecoinOverlayGossip(t *testing.T) {
	h, ledgers := newLedgerHarness(t, 3)
	p2p.ConnectPipe(h.nodes[0], h.nodes[1])
	p2p.ConnectPipe(h.nodes[1], h.nodes[2])

	w := wallet.New(h.nodes[0].Chain(), testutil.NewEntropy(t.Name()))
	payout, err := w.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	payoutKey, err := w.Key(payout)
	if err != nil {
		t.Fatal(err)
	}
	m := miner.New(h.nodes[0].Chain(), h.nodes[0].Pool(), h.clk)
	for i := 0; i < h.params.CoinbaseMaturity+1; i++ {
		h.clk.Advance(time.Minute)
		if _, _, err := m.Mine(payout); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "initial sync", func() bool {
		return h.nodes[2].Chain().BestHeight() == h.nodes[0].Chain().BestHeight()
	})

	// Build a typecoin tx + carrier on node 0; gossip BOTH through the
	// network (carrier via tx inv, typecoin tx via the overlay).
	tcTx := typecoin.NewTx()
	if err := tcTx.Basis.DeclareFam(lf.This("tok"), lf.KProp{}); err != nil {
		t.Fatal(err)
	}
	tok := logic.Atom(lf.This("tok"))
	tcTx.Grant = tok
	tcTx.Outputs = []typecoin.Output{{Type: tok, Amount: 5_000, Owner: payoutKey.PubKey()}}
	tcTx.Proof = proof.Lam{Name: "d", Ty: tcTx.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("c")}}}
	outs, err := typecoin.CarrierOutputs(tcTx)
	if err != nil {
		t.Fatal(err)
	}
	wOuts := make([]wallet.Output, len(outs))
	for i, o := range outs {
		wOuts[i] = wallet.Output{Value: o.Value, PkScript: o.PkScript}
	}
	carrier, err := w.Build(wOuts, wallet.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.nodes[0].BroadcastTx(carrier); err != nil {
		t.Fatal(err)
	}
	if err := h.nodes[0].BroadcastTypecoin(&typecoin.FallbackList{Txs: []*typecoin.Tx{tcTx}}); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "carrier reaches node 2", func() bool {
		return h.nodes[2].Pool().Have(carrier.TxHash())
	})
	// Mine on node 0; every other node asks for the object once the
	// carrier confirms, and every ledger applies its own copy.
	h.clk.Advance(time.Minute)
	if _, _, err := m.Mine(payout); err != nil {
		t.Fatal(err)
	}
	op := wire.OutPoint{Hash: carrier.TxHash(), Index: 0}
	tokG := logic.SubstRefProp(tok, lf.TxRef(carrier.TxHash(), ""))
	for i := range ledgers {
		i := i
		waitFor(t, "ledger applies", func() bool {
			got, ok := ledgers[i].ResolveOutput(op)
			if !ok {
				return false
			}
			eq, _ := logic.PropEqual(got, tokG)
			return eq
		})
	}
}

// dialRaw opens a raw TCP connection to addr for speaking the protocol
// by hand (or violating it).
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// stopWithin fails the test if node.Stop does not return within d: a
// misbehaving peer must never wedge shutdown.
func stopWithin(t *testing.T, node *p2p.Node, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		node.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("Stop wedged by misbehaving peer")
	}
}

// TestHandshakeHangReaped: a peer that connects and then says nothing is
// reaped by the handshake timer once the node's clock passes the
// handshake time-out, and Stop is never blocked by it.
func TestHandshakeHangReaped(t *testing.T) {
	h := newNetHarness(t, 1)
	addr, err := h.nodes[0].Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn := dialRaw(t, addr)
	waitFor(t, "silent peer registered", func() bool {
		return h.nodes[0].PeerCount() == 1
	})
	h.clk.Advance(10 * time.Second)
	waitFor(t, "silent peer reaped", func() bool {
		return h.nodes[0].PeerCount() == 0
	})
	_ = conn // still open on our side; the node must have dropped it anyway
	stopWithin(t, h.nodes[0], 5*time.Second)
}

// TestWrongMagicDropped: a peer framing messages with a foreign network
// magic is dropped without disturbing honest peers.
func TestWrongMagicDropped(t *testing.T) {
	h := newNetHarness(t, 2)
	p2p.ConnectPipe(h.nodes[0], h.nodes[1])
	addr, err := h.nodes[0].Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn := dialRaw(t, addr)
	var buf bytes.Buffer
	if err := wire.WriteMessage(&buf, wire.MainNetMagic, &wire.Message{
		Command: wire.CmdVersion}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "wrong-magic peer dropped", func() bool {
		return h.nodes[0].PeerCount() == 1 // only the honest pipe peer
	})
	stopWithin(t, h.nodes[0], 5*time.Second)
}

// TestCloseMidMessageReaped: a peer that completes the handshake, then
// sends half a frame and disappears, is reaped cleanly.
func TestCloseMidMessageReaped(t *testing.T) {
	h := newNetHarness(t, 1)
	addr, err := h.nodes[0].Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn := dialRaw(t, addr)
	var hello bytes.Buffer
	if err := wire.WriteMessage(&hello, wire.RegTestMagic, &wire.Message{
		Command: wire.CmdVersion}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(hello.Bytes()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "handshake", func() bool {
		return h.nodes[0].PeerCount() == 1
	})
	// Half a frame: a valid message truncated mid-payload, then EOF.
	var frame bytes.Buffer
	if err := wire.WriteMessage(&frame, wire.RegTestMagic, &wire.Message{
		Command: wire.CmdTx, Payload: bytes.Repeat([]byte{0x55}, 64)}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame.Bytes()[:frame.Len()/2]); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitFor(t, "truncated peer reaped", func() bool {
		return h.nodes[0].PeerCount() == 0
	})
	stopWithin(t, h.nodes[0], 5*time.Second)
}

// TestSetLedgerConcurrentWithGossip: attaching/detaching the ledger
// while typecoin gossip arrives must be race-free (regression test for
// the unsynchronized Node.ledger field; run under -race).
func TestSetLedgerConcurrentWithGossip(t *testing.T) {
	h := newNetHarness(t, 1)
	// Every undecodable overlay object is charged PenaltyMalformed, so
	// under the default threshold the sender is banned after a handful
	// and whether it is still connected at the end would depend on how
	// far the node got before the loop below finished. Lift the
	// threshold out of reach: the peer count then checks only that the
	// churn itself never drops the connection.
	pol := p2p.DefaultPolicy()
	pol.BanThreshold = 1 << 30
	h.nodes[0].SetPolicy(pol)
	addr, err := h.nodes[0].Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn := dialRaw(t, addr)
	var hello bytes.Buffer
	if err := wire.WriteMessage(&hello, wire.RegTestMagic, &wire.Message{
		Command: wire.CmdVersion}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(hello.Bytes()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "handshake", func() bool {
		return h.nodes[0].PeerCount() == 1
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		// Hammer the typecoin receive path; the payloads fail to decode,
		// but the handler reads n.ledger on every message.
		for i := 0; i < 400; i++ {
			var buf bytes.Buffer
			if err := wire.WriteMessage(&buf, wire.RegTestMagic, &wire.Message{
				Command: wire.CmdOverlay, Payload: []byte{0xde, 0xad}}); err != nil {
				return
			}
			if _, err := conn.Write(buf.Bytes()); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 400; i++ {
		h.nodes[0].SetLedger(typecoin.NewLedger(h.nodes[0].Chain(), 1))
		_ = h.nodes[0].Ledger()
	}
	<-done
	if h.nodes[0].PeerCount() != 1 {
		t.Error("peer lost during ledger churn")
	}
}

// TestMissingOverlayRequestsStayUnderInvCap: a node that has seen
// MaxInvEntries+1 carriers confirm without their overlay objects asks
// its peers for them in getdatas of at most MaxInvEntries entries, so
// an honest peer neither charges it as oversized nor ignores the
// request: the one object the peer holds arrives, the peer answers the
// other 1 000 entries with notfound, and neither node charges the other
// anything, for the getdatas or for the notfounds.
func TestMissingOverlayRequestsStayUnderInvCap(t *testing.T) {
	h, ledgers := newLedgerHarness(t, 2)
	w := wallet.New(h.nodes[0].Chain(), testutil.NewEntropy(t.Name()))
	payout, err := w.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	payoutKey, err := w.Key(payout)
	if err != nil {
		t.Fatal(err)
	}
	held := typecoin.NewTx()
	if err := held.Basis.DeclareFam(lf.This("tok"), lf.KProp{}); err != nil {
		t.Fatal(err)
	}
	held.Grant = logic.Atom(lf.This("tok"))
	held.Outputs = []typecoin.Output{{Type: held.Grant, Amount: 5_000, Owner: payoutKey.PubKey()}}
	held.Proof = proof.Lam{Name: "d", Ty: held.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("c")}}}
	ledgers[1].Announce(held)

	// Each block's coinbase commits, in the 1-of-2 form, to one object:
	// the first to the one node 1 holds, the rest to unknown ones.
	realSlot := make([]byte, bkey.SerializedPubKeySize)
	realSlot[0] = 0x04
	m := miner.New(h.nodes[0].Chain(), nil, h.clk)
	for i := 0; i <= p2p.DefaultPolicy().MaxInvEntries; i++ {
		committed := chainhash.Hash{0xcc, byte(i), byte(i >> 8)}
		if i == 0 {
			committed = held.Hash()
		}
		blk, err := m.BuildBlock(payout)
		if err != nil {
			t.Fatal(err)
		}
		coinbase := blk.Transactions[0]
		if coinbase.TxOut[0].PkScript, err = script.MultiSigScript(1, realSlot, script.MetadataKeySlot(committed)); err != nil {
			t.Fatal(err)
		}
		coinbase.InvalidateCache()
		blk.Header.MerkleRoot = wire.ComputeMerkleRoot(blk.Transactions)
		if err := miner.SolveBlock(blk); err != nil {
			t.Fatal(err)
		}
		for _, n := range h.nodes {
			if _, err := n.Chain().ProcessBlock(blk); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := len(ledgers[0].MissingAnnouncements()); got != p2p.DefaultPolicy().MaxInvEntries+1 {
		t.Fatalf("node 0 misses %d announcements, want %d", got, p2p.DefaultPolicy().MaxInvEntries+1)
	}

	// A block node 0 accepts from node 1 makes it ask for what it
	// misses, and node 1, which mined it, asks node 0 for the 1 000
	// objects it misses.
	p2p.ConnectPipe(h.nodes[0], h.nodes[1])
	if _, _, err := miner.New(h.nodes[1].Chain(), nil, h.clk).Mine(payout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "node 0 receives the object node 1 holds", func() bool {
		_, ok := ledgers[0].KnownObject(held.Hash())
		return ok
	})
	if got := len(ledgers[0].MissingAnnouncements()); got != p2p.DefaultPolicy().MaxInvEntries {
		t.Fatalf("node 0 misses %d announcements, want %d", got, p2p.DefaultPolicy().MaxInvEntries)
	}
	// Each node handles its peer's frames in order, so once node 0 holds
	// a second block of node 1's, each has handled the other's notfounds.
	if _, _, err := miner.New(h.nodes[1].Chain(), nil, h.clk).Mine(payout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "node 0 connects node 1's second block", func() bool {
		return h.nodes[0].Chain().BestHash() == h.nodes[1].Chain().BestHash()
	})
	for i, n := range h.nodes {
		if got := n.BanScore("pipe"); got != 0 {
			t.Fatalf("node %d charged its peer %d for overlay getdatas and notfounds, want 0", i, got)
		}
	}
}
