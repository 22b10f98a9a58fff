package p2p_test

// Tests of the request table and its sweep: every getdata a node sends
// has one record in the peer's table, and one liveness-clock timer
// expires it. Each test drives a node over TCP from a hand-spoken peer
// and moves the node's simulated clock itself (see watch).

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"typecoin/internal/chain"
	"typecoin/internal/chainhash"
	"typecoin/internal/miner"
	"typecoin/internal/p2p"
	"typecoin/internal/script"
	"typecoin/internal/telemetry"
	"typecoin/internal/testutil"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

// rawPeer speaks the wire protocol by hand over one TCP connection and
// keeps every message the node sends it.
type rawPeer struct {
	t     *testing.T
	conn  net.Conn
	magic uint32
	msgs  chan *wire.Message
	pings uint64
}

// dialRawPeer connects to addr and completes the handshake.
func dialRawPeer(t *testing.T, addr string, magic uint32) *rawPeer {
	t.Helper()
	// The buffer holds far more than any test here is sent, so the
	// reader never has to drop a message or block on an idle test.
	rp := &rawPeer{t: t, conn: dialRaw(t, addr), magic: magic, msgs: make(chan *wire.Message, 4096)}
	go func() {
		defer close(rp.msgs)
		for {
			msg, err := wire.ReadMessage(rp.conn, magic)
			if err != nil {
				return
			}
			select {
			case rp.msgs <- msg:
			default:
			}
		}
	}()
	rp.send(wire.CmdVersion, nil)
	rp.expect("verack", func(m *wire.Message) bool { return m.Command == wire.CmdVerAck })
	return rp
}

func (rp *rawPeer) send(cmd string, payload []byte) {
	rp.t.Helper()
	if err := wire.WriteMessage(rp.conn, rp.magic, &wire.Message{Command: cmd, Payload: payload}); err != nil {
		rp.t.Fatalf("send %s: %v", cmd, err)
	}
}

// expect reads messages until one satisfies match, and returns it.
func (rp *rawPeer) expect(what string, match func(*wire.Message) bool) *wire.Message {
	rp.t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		select {
		case m, ok := <-rp.msgs:
			if !ok {
				rp.t.Fatalf("connection closed waiting for %s", what)
			}
			if match(m) {
				return m
			}
		case <-timeout:
			rp.t.Fatalf("timeout waiting for %s", what)
		}
	}
}

// roundTrip pings the node and returns what it sent before the pong: the
// node handles one peer's messages in order, so this is all it answered
// to what was sent before the ping.
func (rp *rawPeer) roundTrip() []*wire.Message {
	rp.t.Helper()
	rp.pings++
	nonce := binary.LittleEndian.AppendUint64(nil, rp.pings)
	rp.send(wire.CmdPing, nonce)
	var seen []*wire.Message
	rp.expect("pong", func(m *wire.Message) bool {
		if m.Command == wire.CmdPong && bytes.Equal(m.Payload, nonce) {
			return true
		}
		seen = append(seen, m)
		return false
	})
	return seen
}

func inv(typ uint32, hashes ...chainhash.Hash) []byte {
	invs := make([]wire.InvVect, len(hashes))
	for i, h := range hashes {
		invs[i] = wire.InvVect{Type: typ, Hash: h}
	}
	return wire.EncodeInv(invs)
}

// isGetData matches a getdata that asks for hash.
func isGetData(hash chainhash.Hash) func(*wire.Message) bool {
	return func(m *wire.Message) bool {
		if m.Command != wire.CmdGetData {
			return false
		}
		invs, err := wire.DecodeInv(m.Payload)
		if err != nil {
			return false
		}
		for _, iv := range invs {
			if iv.Hash == hash {
				return true
			}
		}
		return false
	}
}

// watch moves h's clock d forward a second at a time. The sweep fires
// every second of liveness time and ages a request at most two seconds
// per jump, so a larger jump would not count as time the node watched.
func watch(h *netHarness, d time.Duration) {
	for ; d > 0; d -= time.Second {
		h.clk.Advance(min(d, time.Second))
	}
}

// listenNode starts one node listening on loopback.
func listenNode(t *testing.T) (*netHarness, *p2p.Node, string) {
	t.Helper()
	h := newNetHarness(t, 1)
	addr, err := h.nodes[0].Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return h, h.nodes[0], addr
}

// orphanTx returns a well-formed transaction spending an output no chain
// holds: a node accepts its delivery as an answer and rejects it, for
// free, as an orphan.
func orphanTx(t *testing.T, c *chain.Chain, n byte) *wire.MsgTx {
	t.Helper()
	key, err := wallet.New(c, testutil.NewEntropy(t.Name())).NewKey()
	if err != nil {
		t.Fatal(err)
	}
	tx := wire.NewMsgTx(wire.TxVersion)
	tx.AddTxIn(&wire.TxIn{PreviousOutPoint: wire.OutPoint{Hash: chainhash.Hash{0xee, n}}, Sequence: 0xffffffff})
	tx.AddTxOut(&wire.TxOut{Value: 1_000_000, PkScript: script.PayToPubKeyHash(key)})
	return tx
}

// privateBlocks mines n blocks on a chain of h's parameters and clock
// that no node shares.
func privateBlocks(t *testing.T, h *netHarness, n int) []*wire.MsgBlock {
	t.Helper()
	c := chain.New(h.params, h.clk)
	payout, err := wallet.New(c, testutil.NewEntropy(t.Name())).NewKey()
	if err != nil {
		t.Fatal(err)
	}
	var out []*wire.MsgBlock
	for i := 0; i < n; i++ {
		h.clk.Advance(time.Minute)
		blk, err := miner.New(c, nil, h.clk).BuildBlock(payout)
		if err != nil {
			t.Fatal(err)
		}
		if err := miner.SolveBlock(blk); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ProcessBlock(blk); err != nil {
			t.Fatal(err)
		}
		out = append(out, blk)
	}
	return out
}

// TestStallChargedOnSilentPeerByTimer: a peer announces a block, is
// asked for it and then says nothing. The request sweep runs on the
// node's own timer, so once the liveness clock passes StallTimeout plus
// one sweep the peer is charged a stall and the body is no longer in
// flight, with no message from the peer.
func TestStallChargedOnSilentPeerByTimer(t *testing.T) {
	checkGoroutines(t)
	h, node, addr := listenNode(t)
	rp := dialRawPeer(t, addr, h.params.Magic)
	fake := chainhash.Hash{0xb1}
	rp.send(wire.CmdInv, inv(wire.InvTypeBlock, fake))
	rp.expect("getdata for the announced block", isGetData(fake))
	if got := node.SyncStatus().InflightBodies; got != 1 {
		t.Fatalf("%d bodies in flight after the getdata, want 1", got)
	}

	watch(h, p2p.StallTimeout+time.Second)
	waitFor(t, "stall charged and body released", func() bool {
		return node.BanScore("127.0.0.1") == p2p.PenaltyStall && node.SyncStatus().InflightBodies == 0
	})
}

// TestStallTimeoutReissuesLostBodyRequest: a body getdata to a peer is
// lost while the peer keeps answering other requests. The peer is not
// silent, so it is not charged, but the request still expires at
// StallTimeout and the body is asked for again at the next sweep.
func TestStallTimeoutReissuesLostBodyRequest(t *testing.T) {
	checkGoroutines(t)
	h, node, addr := listenNode(t)
	blk := privateBlocks(t, h, 1)[0]
	hash := blk.BlockHash()
	tx := orphanTx(t, node.Chain(), 1)

	rp := dialRawPeer(t, addr, h.params.Magic)
	rp.send(wire.CmdHeaders, wire.EncodeHeaders([]wire.BlockHeader{blk.Header}))
	rp.expect("getdata for the body", isGetData(hash)) // and lost

	watch(h, p2p.StallTimeout*2/3)
	rp.send(wire.CmdInv, inv(wire.InvTypeTx, tx.TxHash()))
	rp.expect("getdata for the transaction", isGetData(tx.TxHash()))
	rp.send(wire.CmdTx, tx.Bytes())
	for _, m := range rp.roundTrip() {
		if isGetData(hash)(m) {
			t.Fatal("body asked for again before its request expired")
		}
	}

	watch(h, p2p.StallTimeout/3+time.Second)
	rp.expect("the body asked for again", isGetData(hash))
	if got := node.BanScore("127.0.0.1"); got != 0 {
		t.Fatalf("delivering peer scored %d, want 0", got)
	}
}

// TestInflightCapFreedOnDeliveringPeer: MaxInflight unanswered
// transaction requests on a peer that keeps answering others fill its
// table. They expire at StallTimeout, so the node asks the peer for a
// new announcement again, without charging it. The announcements go in
// inv batches of at most MaxInvEntries, the most a node accepts.
func TestInflightCapFreedOnDeliveringPeer(t *testing.T) {
	checkGoroutines(t)
	h, node, addr := listenNode(t)
	answered := orphanTx(t, node.Chain(), 1)
	unanswered := make([]chainhash.Hash, p2p.MaxInflight)
	for i := range unanswered {
		binary.LittleEndian.PutUint32(unanswered[i][:], uint32(i))
		unanswered[i][31] = 0xa1
	}
	first := p2p.MaxInvEntries - 1

	rp := dialRawPeer(t, addr, h.params.Magic)
	rp.send(wire.CmdInv, inv(wire.InvTypeTx, append([]chainhash.Hash{answered.TxHash()}, unanswered[:first]...)...))
	rp.expect("getdata for the first batch", isGetData(unanswered[first-1]))
	watch(h, p2p.StallTimeout*2/3)
	rp.send(wire.CmdTx, answered.Bytes())
	rp.send(wire.CmdInv, inv(wire.InvTypeTx, unanswered[first:]...))
	rp.expect("getdata for the last unanswered", isGetData(unanswered[len(unanswered)-1]))

	// The table is full: MaxInflight requests are unanswered.
	late := chainhash.Hash{0xc1}
	rp.send(wire.CmdInv, inv(wire.InvTypeTx, late))
	for _, m := range rp.roundTrip() {
		if isGetData(late)(m) {
			t.Fatal("asked for an announcement beyond MaxInflight")
		}
	}

	watch(h, p2p.StallTimeout/3+time.Second)
	next := chainhash.Hash{0xc2}
	rp.send(wire.CmdInv, inv(wire.InvTypeTx, next))
	rp.expect("getdata for an announcement after the expiry", isGetData(next))
	if got := node.BanScore("127.0.0.1"); got != 0 {
		t.Fatalf("delivering peer scored %d, want 0", got)
	}
}

// TestOrphanPenalty: a peer that answers a block getdata with a body
// whose header and parent are unknown owes the node that block's
// ancestry, and is charged PenaltyOrphan once if it never arrives. The
// charge is read from the node's misbehavior-points counter, which,
// unlike the ban score, does not decay.
func TestOrphanPenalty(t *testing.T) {
	// orphanVictim starts a listening node and mines two blocks it does
	// not know; points reads the node's charged misbehavior points.
	orphanVictim := func(t *testing.T) (h *netHarness, addr string, blocks []*wire.MsgBlock, points func() int32) {
		t.Helper()
		checkGoroutines(t)
		h = newNetHarness(t, 1)
		reg := telemetry.NewRegistry()
		h.nodes[0].SetTelemetry(reg, nil)
		addr, err := h.nodes[0].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		points = func() int32 {
			v, _ := reg.Value("p2p_misbehavior_points_total")
			return int32(v)
		}
		return h, addr, privateBlocks(t, h, 2), points
	}
	// deliverOrphan announces the second block and answers the node's
	// getdata with its body, which the node cannot place.
	deliverOrphan := func(t *testing.T, blocks []*wire.MsgBlock, rp *rawPeer) {
		t.Helper()
		child := blocks[1].BlockHash()
		rp.send(wire.CmdInv, inv(wire.InvTypeBlock, child))
		rp.expect("getdata for the announced block", isGetData(child))
		rp.send(wire.CmdBlock, blocks[1].Bytes())
		rp.roundTrip()
	}
	// idle moves h's clock past the request's expiry, a minute more than
	// any time-out that could decide the charge. rp pings the node every
	// 30 s of it, as a live peer's traffic would: the node closes a peer
	// it has heard nothing from for 2×StallTimeout.
	idle := func(h *netHarness, rp *rawPeer) {
		for d := 2*time.Minute + time.Second; d > 0; d -= 30 * time.Second {
			watch(h, min(d, 30*time.Second))
			rp.roundTrip()
		}
	}
	penalty := p2p.PenaltyOrphan

	t.Run("unserved ancestry is charged once", func(t *testing.T) {
		h, addr, blocks, points := orphanVictim(t)
		rp := dialRawPeer(t, addr, h.params.Magic)
		deliverOrphan(t, blocks, rp)
		if got := points(); got != 0 {
			t.Fatalf("charged %d on delivery, want 0: the body was asked for", got)
		}
		for i := 0; i < 2; i++ {
			idle(h, rp)
			waitFor(t, "orphan charged", func() bool { return points() != 0 })
			if got := points(); got != penalty {
				t.Fatalf("charged %d after %d expiries, want %d once", got, i+1, penalty)
			}
		}
	})

	t.Run("ancestry served is not charged", func(t *testing.T) {
		h, addr, blocks, points := orphanVictim(t)
		rp := dialRawPeer(t, addr, h.params.Magic)
		deliverOrphan(t, blocks, rp)
		rp.send(wire.CmdHeaders, wire.EncodeHeaders([]wire.BlockHeader{blocks[0].Header, blocks[1].Header}))
		rp.expect("getdata for the parent", isGetData(blocks[0].BlockHash()))
		rp.send(wire.CmdBlock, blocks[0].Bytes())
		rp.send(wire.CmdBlock, blocks[1].Bytes())
		waitFor(t, "both blocks connected", func() bool { return h.nodes[0].Chain().BestHeight() == 2 })
		idle(h, rp)
		if got := points(); got != 0 {
			t.Fatalf("charged %d, want 0: the peer served the ancestry", got)
		}
	})

	t.Run("reconnect keeps the charge", func(t *testing.T) {
		h, addr, blocks, points := orphanVictim(t)
		rp := dialRawPeer(t, addr, h.params.Magic)
		deliverOrphan(t, blocks, rp)
		rp.conn.Close()
		waitFor(t, "peer dropped", func() bool { return h.nodes[0].PeerCount() == 0 })
		again := dialRawPeer(t, addr, h.params.Magic)
		for i := 0; i < 2; i++ {
			idle(h, again)
			waitFor(t, "orphan charged", func() bool { return points() != 0 })
			if got := points(); got != penalty {
				t.Fatalf("charged %d after %d expiries, want %d once", got, i+1, penalty)
			}
		}
	})
}

// TestSilentPeerClosedAndRedialed: a dialed peer completes the
// handshake, sends a frame header whose length field promises a long
// payload, and then goes quiet, as a link that corrupted a length field
// leaves a reader. The node's reader waits for bytes that never come;
// the sweep closes the connection, uncharged, within 2×StallTimeout plus
// one sweep of liveness time, and the node redials the address.
func TestSilentPeerClosedAndRedialed(t *testing.T) {
	checkGoroutines(t)
	h := newNetHarness(t, 1)
	node := h.nodes[0]
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Room for every connection the node could dial here, so the
	// accept loop never blocks on a test that stopped receiving.
	accepted := make(chan net.Conn, 16)
	t.Cleanup(func() {
		ln.Close()
		for len(accepted) > 0 {
			(<-accepted).Close()
		}
	})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- conn
		}
	}()
	if err := node.Dial(ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	conn := <-accepted
	defer conn.Close()
	send := func(m *wire.Message) {
		t.Helper()
		if err := wire.WriteMessage(conn, h.params.Magic, m); err != nil {
			t.Fatal(err)
		}
	}
	send(&wire.Message{Command: wire.CmdVersion})
	for {
		m, err := wire.ReadMessage(conn, h.params.Magic)
		if err != nil {
			t.Fatalf("waiting for verack: %v", err)
		}
		if m.Command == wire.CmdVerAck {
			break
		}
	}
	closed := make(chan struct{})
	go func() {
		io.Copy(io.Discard, conn)
		close(closed)
	}()
	// A tx frame header promising 1 MiB, and nothing after it.
	var frame bytes.Buffer
	if err := wire.WriteMessage(&frame, h.params.Magic, &wire.Message{Command: wire.CmdTx}); err != nil {
		t.Fatal(err)
	}
	header := frame.Bytes()[:24]
	binary.LittleEndian.PutUint32(header[16:20], 1<<20)
	if _, err := conn.Write(header); err != nil {
		t.Fatal(err)
	}

	deadline := 2 * p2p.StallTimeout
	watch(h, deadline)
	if node.PeerCount() != 1 {
		t.Fatalf("peer closed after %v of silence, want after more than %v", deadline, deadline)
	}
	watch(h, time.Second)
	if node.PeerCount() != 0 {
		t.Fatalf("silent peer still connected after %v", deadline+time.Second)
	}
	<-closed
	if got := node.BanScore("127.0.0.1"); got != 0 {
		t.Fatalf("silent peer charged %d, want 0", got)
	}
	watch(h, time.Second)
	select {
	case again := <-accepted:
		again.Close()
	case <-time.After(10 * time.Second):
		t.Fatal("the address was not redialed")
	}
}

// TestVersionAdvertisesConnectedTip: a node holding headers above its
// connected tip puts the connected tip in its version, the one chain
// whose every body it can serve, and a hand-spoken peer that reads it
// completes the handshake.
func TestVersionAdvertisesConnectedTip(t *testing.T) {
	checkGoroutines(t)
	h, node, addr := listenNode(t)
	blocks := privateBlocks(t, h, 3)
	if _, err := node.Chain().ProcessBlock(blocks[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := node.Chain().ProcessHeaders([]wire.BlockHeader{blocks[1].Header, blocks[2].Header}); err != nil {
		t.Fatal(err)
	}
	c := node.Chain()
	if c.HeaderHeight() != 3 || c.BestHeight() != 1 {
		t.Fatalf("header height %d, connected height %d; want 3 and 1", c.HeaderHeight(), c.BestHeight())
	}

	conn := dialRaw(t, addr)
	// The node queues its version before it reads anything.
	msg, err := wire.ReadMessage(conn, h.params.Magic)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Command != wire.CmdVersion {
		t.Fatalf("first message %q, want version", msg.Command)
	}
	tip, height, err := wire.DecodeVersion(msg.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if tip != c.BestHash() || height != 1 {
		t.Errorf("version advertises %s at height %d, want the connected tip %s at 1", tip, height, c.BestHash())
	}
	if err := wire.WriteMessage(conn, h.params.Magic, &wire.Message{Command: wire.CmdVersion}); err != nil {
		t.Fatal(err)
	}
	if msg, err = wire.ReadMessage(conn, h.params.Magic); err != nil || msg.Command != wire.CmdVerAck {
		t.Fatalf("after our version: %v, %v; want verack", msg, err)
	}
}
