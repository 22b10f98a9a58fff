package netsim

// Byzantine actors: hostile peers that speak the raw wire protocol over
// the simulated network, with no p2p.Node behind them. Each actor is a
// tick-driven state machine subscribed to the network's virtual clock,
// so its attack schedule is as deterministic as the rest of a scenario:
// the same seed replays the same flood, the same garbage bytes, the same
// equivocation order.
//
// The library covers the attacker classes the defense policy is designed
// against:
//
//   - Flooder: bursts of valid frames that overrun the per-peer rate
//     buckets.
//   - GarbageSender: well-framed, checksummed messages whose payloads do
//     not decode — garbage only the sender can have produced.
//   - InvSpammer: inventory batches far beyond what the protocol itself
//     ever sends, advertising objects it will never serve.
//   - Withholder: advertises blocks and ignores every getdata, stalling
//     the victim's sync until stall detection rotates and charges it.
//   - Equivocator: pre-mines two conflicting low-work forks and pushes
//     their blocks unsolicited, replaying them forever.
//   - OverlayFlooder: pushes well-formed overlay objects that no carrier
//     names and no one asked for. The victim drops each uncharged, so
//     this actor is never banned: what it must not win is space, since
//     a dropped object is neither kept, persisted nor relayed.
//   - SkeletonWithholder: serves a valid, heavier header skeleton on
//     getheaders and then ignores every body request — the headers-first
//     attack surface. The victim adopts the skeleton, schedules its
//     bodies on the actor (and only the actor: no other peer claims that
//     chain), and stall detection charges and eventually bans it.
//   - SkeletonCorrupter: same skeleton, but serves bodies whose payload
//     bytes are tampered. The merkle commitment fails, each delivery is
//     charged as an invalid block, and the ban lands immediately.
//
// A banned actor keeps redialing; the victim's accept path refuses the
// connection outright, which the scenarios assert.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sync"
	"time"

	"typecoin/internal/chainhash"
	"typecoin/internal/node"
	"typecoin/internal/proof"
	"typecoin/internal/testutil"
	"typecoin/internal/typecoin"
	"typecoin/internal/wire"
)

// actorRedialEvery paces reconnect attempts: one dial per this many
// ticks while disconnected, so a banned actor probes the accept path
// without saturating the listener backlog.
const actorRedialEvery = 5

// Actor is one Byzantine peer on the simulated network. Its Name is the
// host it dials from — and therefore the address the victim's ban list
// keys on.
type Actor struct {
	Name   string
	h      *Harness
	target string
	magic  uint32
	behave func(a *Actor)
	// onMsg, when set, turns the read side from a bit bucket into a
	// protocol server: every decoded frame from the victim is dispatched
	// to it (skeleton-serving actors answer getheaders/getdata there).
	onMsg func(a *Actor, msg *wire.Message)
	// hello is the version payload sent on every (re)dial; skeleton
	// actors use it to announce their private fork tip as claimed chain
	// knowledge.
	hello []byte

	mu      sync.Mutex
	conn    net.Conn
	dead    bool
	stopped bool
	tick    int
	sent    int64
	dials   int64
	rng     *rand.Rand
}

// startActor wires an actor to the harness clock and attempts the first
// connection immediately. Stop is registered on test cleanup, which runs
// before the harness stops its nodes (LIFO), so actor goroutines are
// gone before the network is torn down.
func startActor(h *Harness, name string, target int, behave func(*Actor)) *Actor {
	return startServingActor(h, name, target, behave, nil, nil)
}

// startServingActor is startActor for actors that also answer the
// victim's requests: onMsg receives every decoded inbound frame, and
// hello is the version payload announced on each dial.
func startServingActor(h *Harness, name string, target int, behave func(*Actor),
	onMsg func(*Actor, *wire.Message), hello []byte) *Actor {
	seedHash := fnv.New64a()
	seedHash.Write([]byte(name))
	a := &Actor{
		Name:   name,
		h:      h,
		target: h.Host(target),
		magic:  h.Params.Magic,
		behave: behave,
		onMsg:  onMsg,
		hello:  hello,
		rng:    rand.New(rand.NewSource(h.Seed ^ int64(seedHash.Sum64()))),
	}
	h.T.Cleanup(a.Stop)
	a.mu.Lock()
	a.dialLocked()
	a.mu.Unlock()
	h.Net.Clock().Subscribe(a.onTick)
	return a
}

// onTick advances the actor one step of its behavior. Clock
// subscriptions cannot be removed, so a stopped actor simply goes inert.
func (a *Actor) onTick(now time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.stopped {
		return
	}
	a.tick++
	if a.dead && a.conn != nil {
		a.conn.Close()
		a.conn = nil
	}
	if a.conn == nil {
		if a.tick%actorRedialEvery != 0 {
			return
		}
		a.dialLocked()
		if a.conn == nil {
			return
		}
	}
	a.behave(a)
}

// dialLocked attempts one connection to the target and, on success,
// opens with a version message so the victim completes its handshake.
// The read side is discarded unless the actor serves requests (onMsg).
func (a *Actor) dialLocked() {
	c, err := a.h.Net.Dial(a.Name, a.target)
	if err != nil {
		return
	}
	a.conn = c
	a.dead = false
	a.dials++
	if a.onMsg != nil {
		go a.serve(c)
	} else {
		go a.discard(c)
	}
	a.writeLocked(wire.CmdVersion, a.hello)
}

// serve decodes the victim's frames and dispatches them to onMsg until
// the connection dies.
func (a *Actor) serve(c net.Conn) {
	for {
		msg, err := wire.ReadMessage(c, a.magic)
		if err != nil {
			a.hangUp(c)
			return
		}
		a.onMsg(a, msg)
	}
}

// write frames and sends one message, for callers (the serve goroutine)
// that do not hold a.mu.
func (a *Actor) write(cmd string, payload []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.writeLocked(cmd, payload)
}

// discard drains everything the victim sends until the connection dies
// (EOF when the victim — or its ban logic — closes it).
func (a *Actor) discard(c net.Conn) {
	buf := make([]byte, 4096)
	for {
		if _, err := c.Read(buf); err != nil {
			a.hangUp(c)
			return
		}
	}
}

// hangUp closes a connection whose read side has ended and marks it
// dead, so the next tick redials. Closing here, not on that tick, ends
// the connection for the network's Barrier at once.
func (a *Actor) hangUp(c net.Conn) {
	c.Close()
	a.mu.Lock()
	if a.conn == c {
		a.dead = true
	}
	a.mu.Unlock()
}

// writeLocked frames and sends one message on the current connection,
// marking it dead on write failure. Callers hold a.mu.
func (a *Actor) writeLocked(cmd string, payload []byte) {
	if a.conn == nil || a.dead {
		return
	}
	if err := wire.WriteMessage(a.conn, a.magic, &wire.Message{Command: cmd, Payload: payload}); err != nil {
		a.dead = true
		return
	}
	a.sent++
}

// Stop permanently disables the actor and closes its connection.
func (a *Actor) Stop() {
	a.mu.Lock()
	a.stopped = true
	c := a.conn
	a.conn = nil
	a.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// Sent reports how many frames the actor has pushed.
func (a *Actor) Sent() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sent
}

// Dials reports how many connections the actor has opened, including
// redials after being disconnected or refused.
func (a *Actor) Dials() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dials
}

// StartFlooder launches an actor that sends perTick valid ping frames
// every clock tick — far beyond any honest rate — until the victim's
// token buckets run dry and the rate-limit penalty bans it.
func StartFlooder(h *Harness, name string, target, perTick int) *Actor {
	return startActor(h, name, target, func(a *Actor) {
		var nonce [8]byte
		for i := 0; i < perTick && !a.dead; i++ {
			a.rng.Read(nonce[:])
			a.writeLocked(wire.CmdPing, nonce[:])
		}
	})
}

// StartGarbageSender launches an actor that sends correctly framed,
// correctly checksummed inv messages whose payloads cannot decode: the
// length prefix promises more entries than the payload carries. Link
// corruption cannot produce this (the checksum would fail first), so the
// victim attributes it fully to the sender.
func StartGarbageSender(h *Harness, name string, target, perTick int) *Actor {
	return startActor(h, name, target, func(a *Actor) {
		for i := 0; i < perTick && !a.dead; i++ {
			junk := make([]byte, 1+a.rng.Intn(8))
			a.rng.Read(junk)
			junk[0] = 0x20 // declare 32 inventory entries, deliver almost none
			a.writeLocked(wire.CmdInv, junk)
		}
	})
}

// StartInvSpammer launches an actor that advertises huge batches of
// nonexistent blocks — inventory messages beyond the policy's
// MaxInvEntries cap — and never serves any of them.
func StartInvSpammer(h *Harness, name string, target, batch int) *Actor {
	return startActor(h, name, target, func(a *Actor) {
		invs := make([]wire.InvVect, batch)
		for i := range invs {
			invs[i].Type = wire.InvTypeBlock
			a.rng.Read(invs[i].Hash[:])
		}
		a.writeLocked(wire.CmdInv, wire.EncodeInv(invs))
	})
}

// StartWithholder launches an actor that advertises one fresh fake block
// per tick and ignores the resulting getdata forever: the classic
// block-withholding stall. The victim's stall sweep charges it and
// rotates sync to other peers.
func StartWithholder(h *Harness, name string, target int) *Actor {
	return startActor(h, name, target, func(a *Actor) {
		var fake chainhash.Hash
		a.rng.Read(fake[:])
		inv := []wire.InvVect{{Type: wire.InvTypeBlock, Hash: fake}}
		a.writeLocked(wire.CmdInv, wire.EncodeInv(inv))
	})
}

// StartEquivocator pre-mines two conflicting low-work forks from genesis
// on private chains and launches an actor that pushes their blocks
// unsolicited, cycling through them forever. The victim sees valid
// proof-of-work blocks that never advance its chain: first stale side
// forks, then pure replays.
func StartEquivocator(h *Harness, name string, target int) *Actor {
	blocks := EquivocationBlocks(h, name, 2)
	// Push order A1, A2, B2, B1: fork B's child arrives before its
	// parent, so the victim drops it unheld (its header and parent are
	// both unknown) and charges the pusher for an unsolicited orphan.
	order := []int{0, 1, 3, 2}
	next := 0
	return startActor(h, name, target, func(a *Actor) {
		a.writeLocked(wire.CmdBlock, blocks[order[next%len(order)]])
		next++
	})
}

// StartOverlayFlooder launches an actor that pushes perTick distinct,
// well-formed overlay objects every tick: Typecoin transactions that no
// carrier commits to, unasked for. It answers every getdata with
// notfound, as a peer that lacks what it is asked for does, so kept
// below the policy's message rate it is never charged; the victim must
// keep none of its objects.
func StartOverlayFlooder(h *Harness, name string, target, perTick int) *Actor {
	onMsg := func(a *Actor, msg *wire.Message) {
		if msg.Command == wire.CmdGetData {
			a.write(wire.CmdNotFound, msg.Payload)
		}
	}
	return startServingActor(h, name, target, func(a *Actor) {
		for i := 0; i < perTick && !a.dead; i++ {
			tx := typecoin.NewTx()
			tx.Proof = proof.V(fmt.Sprintf("x%d", a.rng.Int63()))
			payload, err := typecoin.EncodeObject(&typecoin.FallbackList{Txs: []*typecoin.Tx{tx}})
			if err != nil {
				h.T.Errorf("overlay flooder: %v", err)
				return
			}
			a.writeLocked(wire.CmdOverlay, payload)
		}
	}, onMsg, nil)
}

// skeletonFork is a pre-mined private fork a skeleton actor serves
// headers (and possibly corrupted bodies) from.
type skeletonFork struct {
	tip     chainhash.Hash
	headers []wire.BlockHeader        // heights 1..depth
	heights map[chainhash.Hash]int    // genesis and every fork block
	bodies  map[chainhash.Hash][]byte // serialized fork blocks
}

// mineSkeletonFork mines a private fork of the given depth from genesis.
// Its coinbases pay a fork-private principal, so its blocks are disjoint
// from the honest chain at every height.
func mineSkeletonFork(h *Harness, name string, depth int) *skeletonFork {
	h.T.Helper()
	nd := h.openPrivate(fmt.Sprintf("netsim/skeleton/%d/%s", h.Seed, name))
	payout, err := nd.Wallet.NewKey()
	if err != nil {
		h.T.Fatalf("skeleton payout key: %v", err)
	}
	f := &skeletonFork{
		heights: map[chainhash.Hash]int{h.Params.GenesisBlock.BlockHash(): 0},
		bodies:  make(map[chainhash.Hash][]byte),
	}
	for k := 0; k < depth; k++ {
		blk, _, err := nd.Miner.Mine(payout)
		if err != nil {
			h.T.Fatalf("skeleton pre-mine block %d: %v", k, err)
		}
		hash := blk.BlockHash()
		f.headers = append(f.headers, blk.Header)
		f.heights[hash] = k + 1
		f.bodies[hash] = blk.Bytes()
		f.tip = hash
	}
	return f
}

// serveHeaders answers one getheaders request from the fork skeleton:
// headers above the highest locator entry on the fork (genesis when the
// victim's chain shares nothing else), capped at the protocol batch
// size. A caught-up locator gets an empty batch, like an honest peer.
func (f *skeletonFork) serveHeaders(a *Actor, payload []byte) {
	locator, _, err := wire.DecodeLocator(payload)
	if err != nil {
		return
	}
	start := 0
	for _, hsh := range locator {
		if ht, ok := f.heights[hsh]; ok {
			start = ht
			break
		}
	}
	batch := f.headers[start:]
	if len(batch) > wire.MaxHeadersPerMsg {
		batch = batch[:wire.MaxHeadersPerMsg]
	}
	a.write(wire.CmdHeaders, wire.EncodeHeaders(batch))
}

// StartSkeletonWithholder launches an actor that serves a valid private
// header skeleton of the given depth (mine it heavier than the honest
// chain) and withholds every body. The victim adopts the skeleton,
// schedules its bodies on the actor — no honest peer claims that chain,
// so none is asked, and none is charged — and the stall sweep penalizes
// the actor until it is banned. The victim's connected chain never
// moves: headers alone carry no state.
func StartSkeletonWithholder(h *Harness, name string, target, depth int) *Actor {
	fork := mineSkeletonFork(h, name, depth)
	onMsg := func(a *Actor, msg *wire.Message) {
		if msg.Command == wire.CmdGetHeaders {
			fork.serveHeaders(a, msg.Payload)
		}
		// Every getdata is ignored: the skeleton's bodies never come.
	}
	hello := wire.EncodeVersion(fork.tip, uint64(depth))
	return startServingActor(h, name, target, func(*Actor) {}, onMsg, hello)
}

// StartSkeletonCorrupter launches an actor that serves the same valid
// header skeleton but answers body requests with tampered payloads: the
// header (and thus the requested hash) is intact while the transaction
// bytes are flipped, so the delivery is solicited but its merkle
// commitment fails. Each corrupt body is charged as an invalid block.
func StartSkeletonCorrupter(h *Harness, name string, target, depth int) *Actor {
	fork := mineSkeletonFork(h, name, depth)
	corrupt := make(map[chainhash.Hash][]byte, len(fork.bodies))
	for hash, body := range fork.bodies {
		bad := append([]byte(nil), body...)
		bad[len(bad)-1] ^= 0xff // last byte of the last tx: body, not header
		corrupt[hash] = bad
	}
	onMsg := func(a *Actor, msg *wire.Message) {
		switch msg.Command {
		case wire.CmdGetHeaders:
			fork.serveHeaders(a, msg.Payload)
		case wire.CmdGetData:
			invs, err := wire.DecodeInv(msg.Payload)
			if err != nil {
				return
			}
			for _, iv := range invs {
				if body, ok := corrupt[iv.Hash]; ok && iv.Type == wire.InvTypeBlock {
					a.write(wire.CmdBlock, body)
				}
			}
		}
	}
	hello := wire.EncodeVersion(fork.tip, uint64(depth))
	return startServingActor(h, name, target, func(*Actor) {}, onMsg, hello)
}

// EquivocationBlocks mines two conflicting private forks of the given
// depth from genesis and returns their serialized blocks in push order
// (fork A ascending, then fork B ascending). The forks pay different
// principals, so their blocks are distinct even at the same heights.
func EquivocationBlocks(h *Harness, name string, depth int) [][]byte {
	h.T.Helper()
	var out [][]byte
	for f := 0; f < 2; f++ {
		nd := h.openPrivate(fmt.Sprintf("netsim/equivocator/%d/%s/%d", h.Seed, name, f))
		payout, err := nd.Wallet.NewKey()
		if err != nil {
			h.T.Fatalf("equivocator payout key: %v", err)
		}
		for k := 0; k < depth; k++ {
			blk, _, err := nd.Miner.Mine(payout)
			if err != nil {
				h.T.Fatalf("equivocator pre-mine fork %d block %d: %v", f, k, err)
			}
			out = append(out, blk.Bytes())
		}
	}
	return out
}

// openPrivate opens a node outside the network, on the harness clock
// with its wallet seeded from seed, for an actor to pre-mine a private
// fork on.
func (h *Harness) openPrivate(seed string) *node.Node {
	h.T.Helper()
	nd, err := node.Open(node.Config{Clock: h.Clk, Entropy: testutil.NewEntropy(seed)})
	if err != nil {
		h.T.Fatalf("private node %s: %v", seed, err)
	}
	return nd
}
