// Package p2p implements the peer-to-peer network layer: nodes exchange
// inventory announcements, transactions, blocks and Typecoin overlay
// objects over duplex byte streams (net.Pipe in-process for
// deterministic tests and simulations, TCP between real processes),
// using the framed message envelope from the wire package.
//
// This supplies the "peer-to-peer" half of the paper's title: Typecoin
// inherits commitment from a network of mutually untrusting nodes that
// all enforce the chain rules locally.
package p2p

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"typecoin/internal/banscore"
	"typecoin/internal/chainhash"
	"typecoin/internal/wire"
)

// Peer is one connected neighbor. Writes are serialized through a queue;
// the read loop runs in its own goroutine.
type Peer struct {
	node *Node
	conn io.ReadWriteCloser
	id   int

	// dialAddr is the address this peer was dialed at; empty for
	// inbound/pipe peers. Non-empty enables redial after a drop.
	dialAddr string
	// addrKey is the host this peer's misbehavior is scored under (both
	// directions of a connection and successive reconnects share it);
	// empty disables scoring.
	addrKey string
	// inbound records which side initiated the connection, for the
	// peer-count caps.
	inbound bool
	// stopReaper cancels the timer that reaps the peer if no
	// version/verack arrives.
	stopReaper func() bool

	sendCh chan *queuedMsg
	done   chan struct{}
	// shaken closes when the handshake completes.
	shaken chan struct{}
	// unsent counts messages send has queued and the write loop has not
	// finished writing yet.
	unsent atomic.Int32

	mu         sync.Mutex
	handshaken bool
	closed     bool
	// syncStarted latches the one-time onPeerReady work (sync-peer
	// election, initial getheaders) — the handshake delivers both a
	// version and a verack, and only the first may trigger it.
	syncStarted bool
	// bestKnown is the best header this peer is known (or, from its
	// version announce, claims) to have. The download scheduler resolves
	// it against the header index at assignment time: bodies are only
	// scheduled on peers whose announced chain covers them.
	bestKnown [32]byte

	// known tracks inventory we have seen from or announced to this
	// peer, to damp gossip echo.
	known map[invKey]bool

	// Per-peer resource accounting (all guarded by mu). The buckets
	// bound message and byte rates; requested is the node's one record
	// of each getdata sent to this peer (see reqInfo).
	msgBucket  *banscore.Bucket
	byteBucket *banscore.Bucket
	requested  map[invKey]*reqInfo
	// inflight counts the records of requested in state reqPending.
	inflight int
	// lastDelivery is the last time this peer satisfied any request; a
	// stall is only charged when the peer is silent on all of them.
	lastDelivery time.Time
	// lastHeard is the last time a frame from this peer was handled.
	lastHeard time.Time
}

// reqState is where one getdata stands.
type reqState uint8

const (
	// reqPending: sent and not yet answered. A pending block is in
	// flight to this peer and holds one of its SyncWindow slots.
	reqPending reqState = iota
	// reqDelivered: answered. Remembered for requestMemory so a
	// link-duplicated re-delivery is still recognized as solicited.
	reqDelivered
	// reqOwed: a block answered with a body the chain dropped (neither
	// its header nor its parent known). Unless the header becomes known,
	// the peer's address is charged PenaltyOrphan when the record
	// expires or the peer drops.
	reqOwed
)

// reqInfo is one tracked getdata request: it answers whether an object
// is in flight and to whom, fills the download window, and classifies
// stalls and solicited deliveries. Pending and owed records expire at
// StallTimeout.
type reqInfo struct {
	at    time.Time
	state reqState
}

type invKey struct {
	typ  uint32
	hash [32]byte
}

type queuedMsg struct {
	command string
	payload []byte
}

// errPeerClosed reports writes to a closed peer.
var errPeerClosed = errors.New("p2p: peer closed")

func newPeer(n *Node, conn io.ReadWriteCloser, id int, now time.Time) *Peer {
	return &Peer{
		node:         n,
		conn:         conn,
		id:           id,
		sendCh:       make(chan *queuedMsg, 256),
		done:         make(chan struct{}),
		shaken:       make(chan struct{}),
		known:        make(map[invKey]bool),
		msgBucket:    banscore.NewBucket(msgRate, msgBurst),
		byteBucket:   banscore.NewBucket(byteRate, byteBurst),
		requested:    make(map[invKey]*reqInfo),
		lastDelivery: now,
		lastHeard:    now,
	}
}

// takeTokens stamps one received frame and charges it, of the given
// size, against the peer's rate buckets, reporting whether it is
// admitted.
func (p *Peer) takeTokens(now time.Time, bytes int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lastHeard = now
	return p.msgBucket.Take(now, 1) && p.byteBucket.Take(now, float64(bytes))
}

// noteRequested records an outstanding getdata request (refreshing an
// existing entry), reporting false when the request would be pending
// and the peer already has maxInflight pending requests — the caller
// then simply does not request, and a later announcement or resync
// retries.
func (p *Peer) noteRequested(typ uint32, hash [32]byte, now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := invKey{typ, hash}
	e, ok := p.requested[k]
	if !ok || e.state != reqPending {
		if p.inflight >= maxInflight {
			return false
		}
		p.inflight++
	}
	if !ok {
		e = &reqInfo{}
		p.requested[k] = e
	}
	e.at, e.state = now, reqPending
	return true
}

// blocksIn returns the blocks whose records are in state st: the bodies
// in flight to p (reqPending), or those it owes (reqOwed).
func (p *Peer) blocksIn(st reqState) []chainhash.Hash {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []chainhash.Hash
	for k, e := range p.requested {
		if k.typ == wire.InvTypeBlock && e.state == st {
			out = append(out, k.hash)
		}
	}
	return out
}

// pending reports whether a getdata for the object is unanswered on p.
func (p *Peer) pending(typ uint32, hash [32]byte) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.requested[invKey{typ, hash}]
	return ok && e.state == reqPending
}

// consumeRequest settles a delivery against an outstanding (or recently
// delivered) request, reporting whether the object was solicited. owed
// marks a block whose body the chain dropped.
func (p *Peer) consumeRequest(typ uint32, hash [32]byte, now time.Time, owed bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.requested[invKey{typ, hash}]
	if !ok {
		return false
	}
	if e.state == reqPending {
		p.inflight--
	}
	e.state = reqDelivered
	if owed {
		e.state = reqOwed
	}
	e.at = now
	p.lastDelivery = now
	return true
}

// sweep expires p's request table at now: delivered records past
// requestMemory, pending and owed ones past StallTimeout. Pending and
// owed records, and the peer's last delivery and last frame, do not age
// over the liveness time unseen (but no stamp moves past now). It
// returns how many pending records expired, whether they count as a
// stall (the peer delivered nothing in that window; otherwise they were
// lost on the way, and expiring them only frees their slots), whether
// no frame came from the peer for 2×StallTimeout, and the owed blocks
// that expired.
func (p *Peer) sweep(now time.Time, unseen time.Duration) (expired int, stalled, silent bool, owed []chainhash.Hash) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if unseen > 0 {
		p.lastDelivery = notAfter(p.lastDelivery.Add(unseen), now)
		p.lastHeard = notAfter(p.lastHeard.Add(unseen), now)
	}
	for k, e := range p.requested {
		if unseen > 0 && e.state != reqDelivered {
			e.at = notAfter(e.at.Add(unseen), now)
		}
		age := now.Sub(e.at)
		switch {
		case e.state == reqDelivered:
			if age <= requestMemory {
				continue
			}
		case age <= StallTimeout:
			continue
		case e.state == reqPending:
			expired++
			p.inflight--
		default:
			owed = append(owed, k.hash)
		}
		delete(p.requested, k)
	}
	stalled = expired > 0 && now.Sub(p.lastDelivery) > StallTimeout
	return expired, stalled, now.Sub(p.lastHeard) > 2*StallTimeout, owed
}

// notAfter returns the earlier of t and limit.
func notAfter(t, limit time.Time) time.Time {
	if t.After(limit) {
		return limit
	}
	return t
}

// send queues a message; it drops the peer when the queue is full for
// too long (slow consumer). The stall timer is armed only once the queue
// is full: a timer per message would outlive the send by the whole
// timeout, and keep the stopped node reachable for that long. It runs
// on wall time, not the liveness clock: it measures a consumer that does
// not read, which only real time shows (netsim's writes never block),
// and a liveness clock that is the chain's clock jumps a block interval
// at a time.
func (p *Peer) send(command string, payload []byte) error {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return errPeerClosed
	}
	p.unsent.Add(1)
	msg := &queuedMsg{command, payload}
	select {
	case p.sendCh <- msg:
		return nil
	default:
	}
	select {
	case p.sendCh <- msg:
		return nil
	case <-p.done:
		p.unsent.Add(-1)
		return errPeerClosed
	case <-time.After(sendTimeout):
		p.unsent.Add(-1)
		p.close()
		return fmt.Errorf("p2p: peer %d send queue stalled", p.id)
	}
}

// markHandshaken records a completed handshake and cancels the reaper.
func (p *Peer) markHandshaken() {
	p.mu.Lock()
	first := !p.handshaken
	p.handshaken = true
	p.mu.Unlock()
	if first {
		p.stopReaper()
		close(p.shaken)
	}
}

// isHandshaken reports whether the handshake completed; only such peers
// are eligible for download scheduling.
func (p *Peer) isHandshaken() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.handshaken
}

// setBestKnown records the peer's best announced header.
func (p *Peer) setBestKnown(h [32]byte) {
	p.mu.Lock()
	p.bestKnown = h
	p.mu.Unlock()
}

// bestKnownHeader returns the peer's best announced header.
func (p *Peer) bestKnownHeader() [32]byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bestKnown
}

func (p *Peer) markKnown(typ uint32, hash [32]byte) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := invKey{typ, hash}
	if p.known[k] {
		return false
	}
	// Bound the memory of the known-set.
	if len(p.known) > 50000 {
		p.known = make(map[invKey]bool)
	}
	p.known[k] = true
	return true
}

func (p *Peer) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.stopReaper()
	close(p.done)
	// Unregister before closing the connection: a reader parked on it
	// stays parked, or one that saw it end stays busy, until the drop's
	// follow-up work (a redial armed, download slots moved) is done, so
	// the network simulator never sees the connection idle before then.
	p.node.dropPeer(p)
	p.conn.Close()
}
