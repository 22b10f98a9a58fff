package p2p_test

// Hostile-input tests for the adversarial-defense layer: raw TCP
// attackers feeding oversized, unknown, unsolicited and malformed input
// to a live node. Every test checks the node neither wedges on Stop nor
// leaks goroutines afterwards.

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"typecoin/internal/miner"
	"typecoin/internal/p2p"
	"typecoin/internal/script"
	"typecoin/internal/telemetry"
	"typecoin/internal/testutil"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

// checkGoroutines registers a leak check that runs after all other
// cleanups (registered first, so it runs last): the goroutine count must
// return to its pre-test level, modulo a small slack for runtime
// background goroutines.
func checkGoroutines(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= base+2 {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d before, %d after\n%s",
			base, runtime.NumGoroutine(), buf[:n])
	})
}

// dialAttacker opens a raw TCP connection to addr, discards everything
// the victim sends, and introduces itself with a version message so the
// victim completes its handshake.
func dialAttacker(t *testing.T, addr string, magic uint32) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("attacker dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	go io.Copy(io.Discard, conn)
	sendRawMsg(t, conn, magic, wire.CmdVersion, nil)
	return conn
}

func sendRawMsg(t *testing.T, conn net.Conn, magic uint32, cmd string, payload []byte) {
	t.Helper()
	// Write errors are expected once the victim disconnects us.
	_ = wire.WriteMessage(conn, magic, &wire.Message{Command: cmd, Payload: payload})
}

// expectRefused dials addr and verifies the node closes the connection
// without speaking: a banned address must be cut at accept, before any
// handshake traffic.
func expectRefused(t *testing.T, addr string, magic uint32) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("reconnect dial: %v", err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if msg, err := wire.ReadMessage(conn, magic); err == nil {
		t.Fatalf("banned reconnect got %q frame, want connection refused", msg.Command)
	}
}

func TestOversizedInvBansPeer(t *testing.T) {
	checkGoroutines(t)
	h := newNetHarness(t, 1)
	node := h.nodes[0]
	addr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	conn := dialAttacker(t, addr, h.params.Magic)
	waitFor(t, "attacker connected", func() bool { return node.PeerCount() == 1 })

	// Default policy caps inventory batches at 1000 entries and scores
	// 20 per violation: five oversized batches cross the ban threshold.
	invs := make([]wire.InvVect, 1001)
	for i := range invs {
		invs[i] = wire.InvVect{Type: wire.InvTypeBlock, Hash: [32]byte{byte(i), byte(i >> 8)}}
	}
	payload := wire.EncodeInv(invs)
	for i := 0; i < 5; i++ {
		sendRawMsg(t, conn, h.params.Magic, wire.CmdInv, payload)
	}
	waitFor(t, "attacker banned", func() bool { return node.IsBanned("127.0.0.1") })
	waitFor(t, "attacker disconnected", func() bool { return node.PeerCount() == 0 })

	// The ban holds at accept: reconnects are cut before the handshake.
	expectRefused(t, addr, h.params.Magic)
	if got := node.PeerCount(); got != 0 {
		t.Fatalf("peer count %d after refused reconnect, want 0", got)
	}
}

func TestUnknownCommandsTolerated(t *testing.T) {
	checkGoroutines(t)
	h := newNetHarness(t, 1)
	node := h.nodes[0]
	addr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	conn := dialAttacker(t, addr, h.params.Magic)
	waitFor(t, "attacker connected", func() bool { return node.PeerCount() == 1 })

	// Unknown commands are tolerated for protocol extensibility but not
	// free: each costs one point.
	for i := 0; i < 10; i++ {
		sendRawMsg(t, conn, h.params.Magic, "future-cmd", []byte("x"))
	}
	waitFor(t, "unknown commands scored", func() bool {
		return node.BanScore("127.0.0.1") >= 10
	})
	if node.IsBanned("127.0.0.1") {
		t.Fatal("unknown commands alone banned the peer")
	}
	if got := node.PeerCount(); got != 1 {
		t.Fatalf("peer count %d, want 1: unknown commands must not disconnect", got)
	}
}

func TestUnsolicitedBlocksPenalized(t *testing.T) {
	checkGoroutines(t)
	h := newNetHarness(t, 1)
	node := h.nodes[0]
	addr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// A valid block mined out-of-band (same params and clock, so the
	// node accepts it).
	w := wallet.New(node.Chain(), testutil.NewEntropy(t.Name()))
	payout, err := w.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	h.clk.Advance(time.Minute)
	blk, err := miner.New(node.Chain(), nil, h.clk).BuildBlock(payout)
	if err != nil {
		t.Fatal(err)
	}
	if err := miner.SolveBlock(blk); err != nil {
		t.Fatal(err)
	}

	conn := dialAttacker(t, addr, h.params.Magic)
	waitFor(t, "attacker connected", func() bool { return node.PeerCount() == 1 })

	// An unsolicited push that advances the chain is how mining
	// announcements work: no penalty.
	sendRawMsg(t, conn, h.params.Magic, wire.CmdBlock, blk.Bytes())
	waitFor(t, "block accepted", func() bool { return node.Chain().BestHeight() == 1 })
	if got := node.BanScore("127.0.0.1"); got != 0 {
		t.Fatalf("score %d after a useful unsolicited block, want 0", got)
	}

	// Replaying the same block is pure waste: ten duplicates cross the
	// threshold and ban the replayer.
	for i := 0; i < 10; i++ {
		sendRawMsg(t, conn, h.params.Magic, wire.CmdBlock, blk.Bytes())
	}
	waitFor(t, "replayer banned", func() bool { return node.IsBanned("127.0.0.1") })
	waitFor(t, "replayer disconnected", func() bool { return node.PeerCount() == 0 })
}

func TestUnsolicitedDuplicateTxPenalized(t *testing.T) {
	checkGoroutines(t)
	h := newNetHarness(t, 1)
	node := h.nodes[0]
	reg := telemetry.NewRegistry()
	node.Pool().SetTelemetry(reg, nil)
	duplicates := func() uint64 { return reg.VecValues("mempool_rejected_total")[`{reason="duplicate"}`] }
	addr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Fund a wallet on the node's own chain and build a valid spend.
	w := wallet.New(node.Chain(), testutil.NewEntropy(t.Name()))
	payout, err := w.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	m := miner.New(node.Chain(), node.Pool(), h.clk)
	for i := 0; i < h.params.CoinbaseMaturity+1; i++ {
		h.clk.Advance(time.Minute)
		if _, _, err := m.Mine(payout); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := w.Build([]wallet.Output{
		{Value: 1_000_000, PkScript: script.PayToPubKeyHash(payout)},
	}, wallet.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}

	conn := dialAttacker(t, addr, h.params.Magic)
	waitFor(t, "attacker connected", func() bool { return node.PeerCount() == 1 })

	// First push: a fresh valid tx, accepted, no penalty.
	sendRawMsg(t, conn, h.params.Magic, wire.CmdTx, tx.Bytes())
	waitFor(t, "tx accepted", func() bool { return node.Pool().Have(tx.TxHash()) })
	if got := node.BanScore("127.0.0.1"); got != 0 {
		t.Fatalf("score %d after fresh tx, want 0", got)
	}

	// Unsolicited duplicate: penalized but tolerated.
	sendRawMsg(t, conn, h.params.Magic, wire.CmdTx, tx.Bytes())
	waitFor(t, "duplicate scored", func() bool { return node.BanScore("127.0.0.1") >= 10 })
	if got := node.PeerCount(); got != 1 {
		t.Fatalf("peer count %d after duplicate tx, want 1", got)
	}
	// The duplicate was settled on the payload's hash: it never reached
	// the pool.
	if got := duplicates(); got != 0 {
		t.Fatalf("pool refused %d duplicates, want 0", got)
	}

	// The same transaction with a trailing byte hashes to no txid the
	// node holds: it is decoded, refused by the pool as a duplicate, and
	// penalized the same.
	sendRawMsg(t, conn, h.params.Magic, wire.CmdTx, append(tx.Bytes(), 0))
	waitFor(t, "padded duplicate scored", func() bool { return node.BanScore("127.0.0.1") >= 20 })
	if got := duplicates(); got != 1 {
		t.Fatalf("pool refused %d duplicates after the padded copy, want 1", got)
	}

	// A malformed tx payload inside a valid frame is sender-made:
	// penalized and the connection dropped.
	sendRawMsg(t, conn, h.params.Magic, wire.CmdTx, []byte{0xff, 0x01, 0x02})
	waitFor(t, "malformed sender dropped", func() bool { return node.PeerCount() == 0 })
	if got := node.BanScore("127.0.0.1"); got < 40 {
		t.Fatalf("score %d after malformed tx, want >= 40", got)
	}
}

func TestBanPersistsAndExpires(t *testing.T) {
	checkGoroutines(t)
	h := newNetHarness(t, 1)
	node := h.nodes[0]
	addr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	node.Ban("127.0.0.1", 0) // policy default duration
	expectRefused(t, addr, h.params.Magic)

	// The ban is persisted through the chain's store: a policy swap
	// rebuilds the score keeper from scratch and reloads it.
	node.SetPolicy(p2p.DefaultPolicy())
	if !node.IsBanned("127.0.0.1") {
		t.Fatal("ban lost across keeper rebuild")
	}
	expectRefused(t, addr, h.params.Magic)

	// Bans are timed: past the duration the address connects again.
	h.clk.Advance(2 * time.Hour)
	if node.IsBanned("127.0.0.1") {
		t.Fatal("ban outlived its duration")
	}
	dialAttacker(t, addr, h.params.Magic)
	waitFor(t, "reconnect after expiry", func() bool { return node.PeerCount() == 1 })
}

func TestDialRefusesBannedAddress(t *testing.T) {
	checkGoroutines(t)
	h := newNetHarness(t, 2)
	addr, err := h.nodes[0].Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h.nodes[1].Ban(addr, time.Hour)
	if err := h.nodes[1].Dial(addr); err == nil {
		t.Fatal("dial to banned address succeeded, want refusal")
	}
	if got := h.nodes[1].PeerCount(); got != 0 {
		t.Fatalf("peer count %d after refused dial, want 0", got)
	}
}

func TestDuplicateOutboundRefused(t *testing.T) {
	checkGoroutines(t)
	h := newNetHarness(t, 2)
	addr, err := h.nodes[0].Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.nodes[1].Dial(addr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first dial connected", func() bool { return h.nodes[1].PeerCount() == 1 })
	// A second dial to the same address is refused silently.
	if err := h.nodes[1].Dial(addr); err != nil {
		t.Fatalf("duplicate dial errored: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if got := h.nodes[1].PeerCount(); got != 1 {
		t.Fatalf("peer count %d after duplicate dial, want 1", got)
	}
}

func TestInboundCapEnforced(t *testing.T) {
	checkGoroutines(t)
	h := newNetHarness(t, 4)
	node := h.nodes[0]
	pol := p2p.DefaultPolicy()
	pol.MaxInbound = 2
	node.SetPolicy(pol)

	// Three pipe connections arrive; the third is refused at the cap.
	p2p.ConnectPipe(node, h.nodes[1])
	p2p.ConnectPipe(node, h.nodes[2])
	p2p.ConnectPipe(node, h.nodes[3])

	inbound, _ := node.PeerCounts()
	if inbound != 2 {
		t.Fatalf("inbound count %d, want cap 2", inbound)
	}
	// The refused third node sees its pipe die.
	waitFor(t, "refused node drops its conn", func() bool {
		return h.nodes[3].PeerCount() == 0
	})
}

// TestDuplicateInboundBothKept: two inbound connections from one host
// are two peers. Neither closes the other, and the node serves both.
func TestDuplicateInboundBothKept(t *testing.T) {
	checkGoroutines(t)
	h := newNetHarness(t, 1)
	node := h.nodes[0]
	addr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var conns []net.Conn
	var dead []chan struct{}
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		closed := make(chan struct{})
		go func() {
			io.Copy(io.Discard, conn)
			close(closed)
		}()
		sendRawMsg(t, conn, h.params.Magic, wire.CmdVersion, nil)
		conns, dead = append(conns, conn), append(dead, closed)
	}
	waitFor(t, "both inbound connected", func() bool { return node.PeerCount() == 2 })
	// Traffic on either connection is still read and scored.
	for i, conn := range conns {
		sendRawMsg(t, conn, h.params.Magic, "zzz-unknown", nil)
		waitFor(t, fmt.Sprintf("connection %d served", i), func() bool {
			return node.BanScore("127.0.0.1") >= int32(i+1)
		})
	}
	for i, closed := range dead {
		select {
		case <-closed:
			t.Fatalf("inbound connection %d was closed", i)
		default:
		}
	}
	if got := node.PeerCount(); got != 2 {
		t.Fatalf("peer count %d, want 2", got)
	}
}
