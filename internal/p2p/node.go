package p2p

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"typecoin/internal/banscore"
	"typecoin/internal/chain"
	"typecoin/internal/chainhash"
	"typecoin/internal/clock"
	"typecoin/internal/mempool"
	"typecoin/internal/store"
	"typecoin/internal/telemetry"
	"typecoin/internal/typecoin"
	"typecoin/internal/wire"
)

// Transport abstracts how a node reaches its peers: real TCP in
// production, the netsim fault simulator in adversarial tests.
type Transport interface {
	Listen(addr string) (net.Listener, error)
	Dial(addr string) (net.Conn, error)
}

// tcpTransport is the production transport.
type tcpTransport struct{}

func (tcpTransport) Listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }
func (tcpTransport) Dial(addr string) (net.Conn, error)       { return net.Dial("tcp", addr) }

// Node is one network participant: a chain, a mempool, and a set of
// peers it gossips with.
type Node struct {
	chain     *chain.Chain
	pool      *mempool.Pool
	magic     uint32
	logger    *slog.Logger
	transport Transport
	// clk is the chain's clock: it stamps blocks and spans. live times
	// peers — the request sweep and its probe, rate buckets, the
	// handshake reaper and the redial back-off — and is the same clock
	// unless a simulation jumps consensus time without letting peers age
	// (SetLivenessClock).
	clk  clock.Clock
	live clock.Clock

	// tel carries the registered collectors; the zero value disables
	// instrumentation. See telemetry.go.
	tel nodeTelemetry

	// sync is the headers-first download manager (see syncmgr.go).
	sync *syncMgr

	mu       sync.Mutex
	ledger   *typecoin.Ledger // optional: enables typecoin gossip
	peers    map[int]*Peer
	nextID   int
	listener net.Listener
	// dialing holds the addresses with a redial chain in flight.
	dialing map[string]*redialChain
	// stopSweep stops the request sweep's pending timer; nil until the
	// first Listen or connection arms it.
	stopSweep func() bool
	wg        sync.WaitGroup
	stopped   bool
	// policy's ban fields built scores; its MaxInbound is read at
	// accept and its SyncWindow at each body refill.
	policy Policy
	scores *banscore.Keeper
}

// Peer timing. The handshake reaper and the redial back-off run on the
// liveness clock, so a simulation governs them in virtual time. The
// send-queue time-out runs on wall time (see Peer.send).
const (
	// sendTimeout drops a peer whose full send queue has not drained.
	sendTimeout = 5 * time.Second
	// handshakeTimeout reaps a peer that has not sent its version.
	handshakeTimeout = 10 * time.Second
	// A dialed address is redialed until Stop: the first attempt after
	// redialBase, each later one after twice the wait before it, up to
	// redialCap.
	redialBase = 25 * time.Millisecond
	redialCap  = 10 * time.Second
	// sweepInterval is the period of the request sweep.
	sweepInterval = time.Second
)

// NewNode creates a node over an existing chain and pool. logger is a
// structured component logger (see telemetry.Component); nil disables
// logging.
func NewNode(c *chain.Chain, pool *mempool.Pool, logger *slog.Logger) *Node {
	n := &Node{
		chain:     c,
		pool:      pool,
		magic:     c.Params().Magic,
		logger:    logger,
		transport: tcpTransport{},
		clk:       c.Clock(),
		live:      c.Clock(),
		sync:      &syncMgr{syncPeer: -1},
		peers:     make(map[int]*Peer),
		dialing:   make(map[string]*redialChain),
		policy:    DefaultPolicy(),
	}
	n.scores = n.newKeeper(n.policy)
	c.Subscribe(n.onChainChange)
	return n
}

// newKeeper builds the misbehavior keeper for pol, loading the
// persisted ban table from the chain's store.
func (n *Node) newKeeper(pol Policy) *banscore.Keeper {
	k := banscore.New(n.clk, banscore.Config{
		Threshold:   pol.BanThreshold,
		BanDuration: pol.BanDuration,
	})
	if st := n.chain.Store(); st != nil {
		if err := k.AttachStore(st); err != nil {
			n.logWarn("ban table load failed", "err", err)
		}
	}
	return k
}

// SetPolicy replaces the defense policy. Zero fields keep their
// defaults. The scoring keeper is rebuilt (reloading persisted bans,
// dropping scores), so configure before connecting when scores must
// carry over; the inbound cap and sync window apply from the next
// accept and body refill.
func (n *Node) SetPolicy(pol Policy) {
	pol = pol.withDefaults()
	k := n.newKeeper(pol)
	n.mu.Lock()
	n.policy = pol
	n.scores = k
	n.mu.Unlock()
}

// keeper returns the current misbehavior keeper.
func (n *Node) keeper() *banscore.Keeper {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.scores
}

// addrKeyOf reduces a network address to its scoring/ban key: the host,
// so reconnects from new ephemeral ports accumulate on one score.
func addrKeyOf(addr string) string {
	if host, _, err := net.SplitHostPort(addr); err == nil && host != "" {
		return host
	}
	return addr
}

// IsBanned reports whether addr's host is currently banned.
func (n *Node) IsBanned(addr string) bool {
	return n.keeper().IsBanned(addrKeyOf(addr))
}

// Ban bans addr's host for d (the policy duration when d <= 0) and
// disconnects any current peers from it.
func (n *Node) Ban(addr string, d time.Duration) {
	key := addrKeyOf(addr)
	n.keeper().Ban(key, d)
	n.tel.bans.Inc()
	if n.tel.tracer != nil {
		n.tel.tracer.Record(telemetry.EvPeerBanned, key, "manual ban")
	}
	n.disconnectAddr(key)
}

// Unban lifts a ban.
func (n *Node) Unban(addr string) { n.keeper().Unban(addrKeyOf(addr)) }

// BanScore returns addr's current decayed misbehavior score.
func (n *Node) BanScore(addr string) int32 {
	return n.keeper().Score(addrKeyOf(addr))
}

// disconnectAddr closes every live peer scored under key.
func (n *Node) disconnectAddr(key string) {
	var victims []*Peer
	n.mu.Lock()
	for _, p := range n.peers {
		if p.addrKey == key {
			victims = append(victims, p)
		}
	}
	n.mu.Unlock()
	for _, p := range victims {
		p.close()
	}
}

// penalize charges points against p's address, whether or not p is
// still connected. When the score crosses the ban threshold every
// connection from that address is dropped and banned=true is returned.
func (n *Node) penalize(p *Peer, points int32, reason string) bool {
	key := p.addrKey
	if key == "" {
		return false
	}
	score, banned := n.keeper().Penalize(key, points)
	n.tel.misbehavior.Add(uint64(points))
	if !banned {
		n.logWarn("peer misbehavior", "addr", key, "points", points, "reason", reason, "score", score)
		return false
	}
	n.tel.bans.Inc()
	if n.tel.tracer != nil {
		n.tel.tracer.Record(telemetry.EvPeerBanned, key, reason)
	}
	n.logWarn("peer banned", "addr", key, "score", score, "reason", reason)
	n.disconnectAddr(key)
	return true
}

// SetTransport replaces the transport. Call before Listen or Dial.
func (n *Node) SetTransport(t Transport) { n.transport = t }

// SetLivenessClock replaces the clock that times peers (by default the
// chain's clock): the request sweep, rate buckets, the handshake reaper
// and the redial back-off. A simulation that moves consensus time forward in
// one step gives the node a clock that step leaves alone, so a request
// or handshake in flight across it is not aged by it. Call before
// Listen or Dial.
func (n *Node) SetLivenessClock(clk clock.Clock) { n.live = clk }

// Chain returns the node's chain.
func (n *Node) Chain() *chain.Chain { return n.chain }

// SetLedger attaches a Typecoin ledger; the node then relays overlay
// objects (Typecoin transactions, fallback lists and batches) as it
// relays transactions, by inv and getdata, asking for one only once a
// main-chain carrier commits to it (Ledger.Wants), and announces the
// ones it receives to the ledger. The Bitcoin layer is unaffected:
// carriers still commit only to hashes.
func (n *Node) SetLedger(l *typecoin.Ledger) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ledger = l
}

// Ledger returns the attached Typecoin ledger, if any.
func (n *Node) Ledger() *typecoin.Ledger {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ledger
}

// Pool returns the node's mempool.
func (n *Node) Pool() *mempool.Pool { return n.pool }

// PeerCount returns the number of live peers.
func (n *Node) PeerCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.peers)
}

// PeerCounts returns the live inbound and outbound peer counts.
func (n *Node) PeerCounts() (inbound, outbound int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, p := range n.peers {
		if p.inbound {
			inbound++
		} else {
			outbound++
		}
	}
	return inbound, outbound
}

// HasPeerAddr reports whether a live peer was dialed at addr (inbound
// peers have no dial address).
func (n *Node) HasPeerAddr(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, p := range n.peers {
		if p.dialAddr == addr {
			return true
		}
	}
	return false
}

// addConn starts the message loops for a new connection. dialAddr is
// non-empty for outbound connections and enables redial on failure.
// Banned addresses, peers beyond the inbound/outbound caps, and
// duplicate connections are refused here — the single choke point for
// accept, dial, redial and pipe connections alike.
func (n *Node) addConn(conn net.Conn, dialAddr string) *Peer {
	inbound := dialAddr == ""
	raw := dialAddr
	if inbound {
		if ra := conn.RemoteAddr(); ra != nil {
			raw = ra.String()
		}
	}
	key := addrKeyOf(raw)

	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		conn.Close()
		return nil
	}
	maxInbound := n.policy.MaxInbound
	if key != "" && n.scores.IsBanned(key) {
		n.mu.Unlock()
		n.tel.refused.With("banned").Inc()
		n.logInfo("refusing connection from banned address", "addr", key)
		conn.Close()
		return nil
	}
	// Two inbound connections from one host are two peers; a dead one is
	// reaped by the silence deadline.
	if inbound {
		count := 0
		for _, q := range n.peers {
			if q.inbound {
				count++
			}
		}
		if count >= maxInbound {
			n.mu.Unlock()
			n.tel.refused.With("inbound_cap").Inc()
			n.logDebug("refusing inbound connection at cap", "addr", key, "cap", maxInbound)
			conn.Close()
			return nil
		}
	} else {
		count := 0
		dup := false
		for _, q := range n.peers {
			if !q.inbound {
				count++
			}
			if q.dialAddr == dialAddr {
				dup = true
			}
		}
		if dup || count >= maxOutbound {
			n.mu.Unlock()
			if dup {
				n.tel.refused.With("duplicate").Inc()
				n.logDebug("refusing duplicate dial", "addr", dialAddr)
			} else {
				n.tel.refused.With("outbound_cap").Inc()
				n.logDebug("refusing dial at cap", "addr", dialAddr, "cap", maxOutbound)
			}
			conn.Close()
			return nil
		}
	}
	id := n.nextID
	n.nextID++
	p := newPeer(n, conn, id, n.live.Now())
	p.dialAddr = dialAddr
	p.addrKey = key
	p.inbound = inbound
	// A peer that never completes the handshake (hangs mid-handshake,
	// wrong magic killing the read loop on their side) is reaped.
	p.stopReaper = n.live.AfterFunc(handshakeTimeout, func() {
		if !p.isHandshaken() {
			n.logDebug("handshake timeout", "peer", p.id)
			p.close()
		}
	})
	n.peers[id] = p
	// Registering the loops while holding n.mu (with stopped false)
	// orders the Add before Stop's Wait.
	n.wg.Add(2)
	n.armSweepLocked(0)
	n.mu.Unlock()
	direction := "outbound"
	if inbound {
		direction = "inbound"
	}
	n.tel.connects.With(direction).Inc()
	if n.tel.tracer != nil {
		n.tel.tracer.Record(telemetry.EvPeerConnected, key, direction)
	}
	n.logDebug("peer connected", "addr", key, "peer", id, "direction", direction)

	// Handshake: announce our version — carrying our connected tip, whose
	// every body we hold, so the peer can seed its download scheduler
	// with blocks we can serve (a header tip above it would be a claim
	// to bodies still parked or missing here); the peer replies verack
	// and both sides then sync. The version is queued before the loops
	// start, so the read loop first waits on the connection only once
	// everything addConn does is done.
	payload := wire.EncodeVersion(n.chain.BestHash(), uint64(n.chain.BestHeight()))
	if err := p.send(wire.CmdVersion, payload); err != nil {
		n.logDebug("version send failed", "peer", id, "err", err)
	}
	go func() {
		defer n.wg.Done()
		n.writeLoop(p)
	}()
	go func() {
		defer n.wg.Done()
		n.readLoop(p)
	}()
	return p
}

// dropPeer unregisters a dead peer and, for dialed peers, starts a
// redial chain so a mid-stream connection failure does not silently
// shrink the peer set.
func (n *Node) dropPeer(p *Peer) {
	n.tel.disconnects.Inc()
	if n.tel.tracer != nil {
		n.tel.tracer.Record(telemetry.EvPeerDisconnected, p.addrKey, "")
	}
	n.logDebug("peer disconnected", "addr", p.addrKey, "peer", p.id)
	n.mu.Lock()
	delete(n.peers, p.id)
	stopped := n.stopped
	if p.dialAddr != "" {
		n.keepDialingLocked(p.dialAddr)
	}
	n.mu.Unlock()
	if !stopped {
		// What p still owes is charged now, so a reconnect does not shed
		// it.
		n.chargeOrphans(p, p.blocksIn(reqOwed))
	}
	// The peer's records leave with it; its window moves to the
	// survivors.
	if n.releaseSyncPeer(p) {
		n.electSyncPeer(p)
	}
	n.scheduleBodies(p)
}

// armSweepLocked arms the request sweep's timer unless it is armed,
// with the liveness time watched since the last probe. It re-arms
// itself every sweepInterval of liveness time, holding a wait-group
// slot from arming, which the callback releases, or Stop when it
// cancels the timer first. Callers hold n.mu and have checked that the
// node is not stopped.
func (n *Node) armSweepLocked(watched time.Duration) {
	if n.stopSweep != nil {
		return
	}
	n.wg.Add(1)
	armed := n.live.Now()
	n.stopSweep = n.live.AfterFunc(sweepInterval, func() {
		defer n.wg.Done()
		watched := n.sweepRequests(armed, watched)
		n.mu.Lock()
		n.stopSweep = nil
		if !n.stopped {
			n.armSweepLocked(watched)
		}
		n.mu.Unlock()
	})
}

// redialChain is one address's redial chain: the wait before its
// latest attempt, and the stop function of that attempt's timer, nil
// once the attempt has connected. The chain ends when that connection
// completes its handshake (endRedial).
type redialChain struct {
	backoff time.Duration
	stop    func() bool
}

// keepDialingLocked arms the next redial of addr unless an attempt is
// armed or the node is stopped: after redialBase when no chain is in
// flight, and after twice the last wait, at most redialCap, when the
// chain's last attempt connected but the connection dropped before its
// handshake, as it does when the remote has banned this node. Callers
// hold n.mu.
func (n *Node) keepDialingLocked(addr string) {
	if n.stopped {
		return
	}
	backoff := redialBase
	if c, inFlight := n.dialing[addr]; inFlight {
		if c.stop != nil {
			return
		}
		backoff = min(2*c.backoff, redialCap)
	}
	n.armRedialLocked(addr, backoff)
}

// armRedialLocked schedules a redial of addr after backoff of liveness
// time. The attempt holds a wait-group slot from now, which the
// callback releases, or Stop when it cancels the timer first. Callers
// hold n.mu and have checked that the node is not stopped.
func (n *Node) armRedialLocked(addr string, backoff time.Duration) {
	n.wg.Add(1)
	n.dialing[addr] = &redialChain{backoff, n.live.AfterFunc(backoff, func() {
		defer n.wg.Done()
		n.redial(addr, backoff)
	})}
}

// redial makes one attempt to reconnect an outbound address. A failed
// attempt arms the next after twice the backoff, at most redialCap; the
// chain ends only when a connection completes its handshake or the node
// stops.
func (n *Node) redial(addr string, backoff time.Duration) {
	n.tel.redials.Inc()
	conn, err := n.dialOnce(addr)
	n.mu.Lock()
	switch {
	case n.stopped:
		delete(n.dialing, addr)
	case err != nil:
		n.armRedialLocked(addr, min(2*backoff, redialCap))
		n.mu.Unlock()
		n.logDebug("redial attempt failed", "addr", addr, "err", err)
		return
	default:
		n.dialing[addr].stop = nil
	}
	n.mu.Unlock()
	if conn != nil && n.addConn(conn, addr) == nil {
		n.endRedial(addr) // refused on this side
	}
}

// endRedial ends addr's redial chain unless an attempt is armed.
func (n *Node) endRedial(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if c := n.dialing[addr]; c != nil && c.stop == nil {
		delete(n.dialing, addr)
	}
}

// dialOnce makes one outbound connection attempt. A banned address
// fails without one: a ban suspends dialing it until the ban expires.
func (n *Node) dialOnce(addr string) (net.Conn, error) {
	if n.IsBanned(addr) {
		return nil, fmt.Errorf("p2p: dial %s: address is banned", addr)
	}
	conn, err := n.transport.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("p2p: dial %s: %w", addr, err)
	}
	return conn, nil
}

// ConnectPipe wires two in-process nodes together with a synchronous
// duplex pipe, as used by the regtest network simulation. It returns
// once each end has received the other's version (or dropped), so a
// caller that moves a simulated clock next cannot reap a handshake
// still in flight.
func ConnectPipe(a, b *Node) {
	ca, cb := net.Pipe()
	for _, p := range []*Peer{a.addConn(ca, ""), b.addConn(cb, "")} {
		if p != nil { // nil: the connection was refused
			select {
			case <-p.shaken:
			case <-p.done:
			}
		}
	}
}

// Listen begins accepting connections on addr via the node's transport
// (TCP by default). It returns the bound address (useful with ":0").
func (n *Node) Listen(addr string) (string, error) {
	l, err := n.transport.Listen(addr)
	if err != nil {
		return "", fmt.Errorf("p2p: listen: %w", err)
	}
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		l.Close()
		return "", fmt.Errorf("p2p: node stopped")
	}
	n.listener = l
	n.wg.Add(1)
	n.armSweepLocked(0)
	n.mu.Unlock()
	go func() {
		defer n.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			n.addConn(conn, "")
		}
	}()
	return l.Addr().String(), nil
}

// Dial connects to a remote node via the node's transport. The address
// is kept until Stop: if this attempt fails, or the connection later
// drops, the node redials it (see redial).
func (n *Node) Dial(addr string) error {
	conn, err := n.dialOnce(addr)
	if err != nil {
		n.mu.Lock()
		n.keepDialingLocked(addr)
		n.mu.Unlock()
		return err
	}
	n.addConn(conn, addr)
	return nil
}

// SendBacklog counts messages queued to live peers and not yet written
// to their connections.
func (n *Node) SendBacklog() int {
	backlog := 0
	for _, p := range n.peerSnapshot(nil) {
		backlog += int(p.unsent.Load())
	}
	return backlog
}

// Stop closes the listener and all peers and waits for loops to exit.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	l := n.listener
	peers := make([]*Peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	timers := make([]func() bool, 0, len(n.dialing)+1)
	for _, c := range n.dialing {
		if c.stop != nil {
			timers = append(timers, c.stop)
		}
	}
	if n.stopSweep != nil {
		timers = append(timers, n.stopSweep)
	}
	n.mu.Unlock()
	for _, stop := range timers {
		if stop() {
			n.wg.Done()
		}
	}
	if l != nil {
		l.Close()
	}
	for _, p := range peers {
		p.close()
	}
	n.wg.Wait()
}

func (n *Node) writeLoop(p *Peer) {
	for {
		select {
		case msg := <-p.sendCh:
			err := wire.WriteMessage(p.conn, n.magic, &wire.Message{
				Command: msg.command, Payload: msg.payload,
			})
			p.unsent.Add(-1)
			if err != nil {
				p.close()
				return
			}
			n.tel.sentMsgs.With(p.addrKey).Inc()
			n.tel.sentBytes.With(p.addrKey).Add(uint64(24 + len(msg.payload)))
		case <-p.done:
			return
		}
	}
}

func (n *Node) readLoop(p *Peer) {
	defer p.close()
	for {
		msg, err := wire.ReadMessage(p.conn, n.magic)
		if err != nil {
			// Wire-level framing garbage is peer-attributable but scored
			// low: on a lossy link honest peers' frames arrive corrupted
			// too. A clean EOF or transport error scores nothing.
			if errors.Is(err, wire.ErrBadMagic) || errors.Is(err, wire.ErrBadChecksum) ||
				errors.Is(err, wire.ErrPayloadTooLarge) {
				n.penalize(p, penaltyFrame, err.Error())
			}
			return
		}
		n.tel.recvMsgs.With(p.addrKey).Inc()
		n.tel.recvBytes.With(p.addrKey).Add(uint64(24 + len(msg.Payload)))
		now := n.live.Now()
		if !p.takeTokens(now, 24+len(msg.Payload)) {
			// Drop the frame unprocessed; repeated violations ban.
			n.tel.rateLimited.Inc()
			if n.penalize(p, penaltyRateLimit, "rate limit exceeded") {
				return
			}
			continue
		}
		if err := n.handleMessage(p, msg); err != nil {
			n.logDebug("message handling failed", "peer", p.id, "command", msg.Command, "err", err)
			return
		}
	}
}

// sweepRequests expires every ready peer's request table (Peer.sweep),
// in id order. A peer that stalled is charged and its sync work rotated
// away; a block it owes whose header is still unknown is charged to it;
// slots freed without a stall are refilled. A peer from which no frame
// was handled for 2×StallTimeout is closed, uncharged: its link, or its
// reader, is dead (a corrupted length field leaves a reader waiting for
// bytes that never come), and a dialed one is redialed.
//
// Of the liveness time since the timer was armed, at most two intervals
// count as watched: the rest passed in one jump of a simulated clock
// (the chain's, as the liveness clock, moves a block interval at a
// time) or while the host did not run the timer, and a peer is not
// silent over time the node did not watch.
//
// Once the liveness time watched since the last probe (watched, to
// which this sweep adds its own) reaches StallTimeout/2, the sweep
// probes: it asks every ready peer for headers, refills the body
// windows and asks for missing overlay objects, recovering what an
// announcement lost to a partition or a dropped frame left this node
// without. A getheaders is answered even when the peer is caught up
// (with an empty batch), so the probe also keeps an honest peer's
// frames coming, and the silence deadline closes only a dead
// connection. It returns the watched time the next sweep starts from.
func (n *Node) sweepRequests(armed time.Time, watched time.Duration) time.Duration {
	now := n.live.Now()
	seen := min(now.Sub(armed), 2*sweepInterval)
	unseen := now.Sub(armed) - seen
	watched += seen
	refill := false
	for _, p := range n.readyPeers(nil) {
		expired, stalled, silent, owed := p.sweep(now, unseen)
		n.chargeOrphans(p, owed)
		switch {
		case stalled:
			// The peer advertised data it never served: charge it and
			// rotate the sync to the remaining peers.
			n.tel.stalls.Add(uint64(expired))
			if !n.penalize(p, PenaltyStall, "sync stall") {
				n.rotateSync(p)
			}
		case expired > 0:
			refill = true
		}
		if silent {
			n.logInfo("closing silent peer", "addr", p.addrKey, "peer", p.id)
			p.close()
		}
	}
	if watched >= StallTimeout/2 {
		n.resync(nil)
		n.requestMissingObjects()
		return 0
	}
	if refill {
		n.scheduleBodies(nil)
	}
	return watched
}

// chargeOrphans charges p's address PenaltyOrphan once for each block in
// owed whose header is still unknown.
func (n *Node) chargeOrphans(p *Peer, owed []chainhash.Hash) {
	for _, h := range owed {
		if !n.chain.HaveHeader(h) {
			n.penalize(p, PenaltyOrphan, fmt.Sprintf("orphan block %s never connected", h))
		}
	}
}

// rotateSync moves sync work away from a stalled peer: the skeleton
// source moves if the stalled peer held it, everyone else is asked for
// headers in case the stalled peer was the only one serving them, and
// the bodies the sweep just expired are reassigned to the remaining
// peers. Bodies requested from it more recently stay its own until
// they expire in turn.
func (n *Node) rotateSync(except *Peer) {
	if n.releaseSyncPeer(except) {
		n.electSyncPeer(except)
	}
	n.resync(except)
}

// resync asks every ready peer but except for the header skeleton above
// our best header and refills the body windows.
func (n *Node) resync(except *Peer) {
	for _, p := range n.readyPeers(except) {
		n.requestHeaders(p)
	}
	n.scheduleBodies(except)
}

// isTxPenaltyWorthy classifies a mempool rejection: policy rejections
// honest relays produce under races, partitions and load (duplicates,
// orphans, pool conflicts, fee policy, a degraded local store) are
// free; anything else — sanity, script, value violations — cannot come
// from an honest peer.
func isTxPenaltyWorthy(err error) bool {
	switch {
	case errors.Is(err, mempool.ErrAlreadyKnown),
		errors.Is(err, mempool.ErrOrphanTx),
		errors.Is(err, mempool.ErrPoolConflict),
		errors.Is(err, mempool.ErrFeeTooLow),
		errors.Is(err, mempool.ErrMempoolFull),
		errors.Is(err, mempool.ErrDegraded):
		return false
	case store.IsStoreFault(err):
		// Our own storage failing mid-validation is never the sender's
		// fault.
		return false
	}
	return true
}

func (n *Node) handleMessage(p *Peer, msg *wire.Message) error {
	now := n.live.Now()
	switch msg.Command {
	case wire.CmdVersion:
		if tip, _, err := wire.DecodeVersion(msg.Payload); err != nil {
			n.penalize(p, penaltyMalformed, "malformed version payload")
		} else if tip != chainhash.ZeroHash {
			// The claimed tip seeds body scheduling; a false claim earns
			// stall penalties once the peer fails to serve.
			p.setBestKnown(tip)
		}
		p.markHandshaken()
		if err := p.send(wire.CmdVerAck, nil); err != nil {
			return err
		}
		// Start headers-first download: the first ready peer serves the
		// skeleton, every ready peer serves bodies.
		n.onPeerReady(p)
		return nil

	case wire.CmdVerAck:
		p.markHandshaken()
		n.onPeerReady(p)
		return nil

	case wire.CmdPong:
		return nil

	case wire.CmdPing:
		return p.send(wire.CmdPong, msg.Payload)

	case wire.CmdGetHeaders:
		locator, _, err := wire.DecodeLocator(msg.Payload)
		if err != nil {
			n.penalize(p, penaltyMalformed, "malformed getheaders locator")
			return err
		}
		// Always reply, even with an empty batch: the requester uses the
		// response to tell "caught up" from "peer went silent".
		headers := n.chain.HeadersAfter(locator, wire.MaxHeadersPerMsg)
		return p.send(wire.CmdHeaders, wire.EncodeHeaders(headers))

	case wire.CmdHeaders:
		headers, err := wire.DecodeHeaders(msg.Payload)
		if err != nil {
			if errors.Is(err, wire.ErrTooManyHeaders) {
				// The protocol itself caps batches at MaxHeadersPerMsg;
				// an oversized batch is deliberate.
				n.penalize(p, penaltyOversized, "oversized headers batch")
			} else {
				n.penalize(p, penaltyMalformed, "malformed headers payload")
			}
			return err
		}
		if len(headers) == 0 {
			// Caught up with this peer's skeleton; bodies may remain.
			n.scheduleBodies(nil)
			return nil
		}
		accepted, err := n.chain.ProcessHeaders(headers)
		if err != nil {
			if errors.Is(err, chain.ErrOrphanHeader) {
				// A skeleton that does not connect can be an honest answer
				// to a locator that raced a reorg; score it mildly.
				n.penalize(p, penaltyUnsolicited, "disconnected header skeleton")
			} else if store.IsStoreFault(err) {
				// Persisting the rows failed locally; the skeleton itself
				// may be honest. No score.
				n.logDebug("header persist failed", "peer", p.id, "err", err)
			} else {
				// Headers carry their own proof of work: an invalid one
				// cannot be honest.
				n.penalize(p, penaltyInvalidBlock, fmt.Sprintf("invalid header: %v", err))
			}
		}
		if accepted > 0 {
			// The peer proved knowledge of the skeleton up to the last
			// header it served; widen its body-scheduling range.
			n.advanceBestKnown(p, headers[accepted-1].BlockHash())
		}
		if accepted > 0 && len(headers) == wire.MaxHeadersPerMsg {
			// A full batch means the peer likely has more skeleton.
			n.requestHeaders(p)
		}
		n.scheduleBodies(nil)
		return nil

	case wire.CmdInv:
		invs, err := wire.DecodeInv(msg.Payload)
		if err != nil {
			n.penalize(p, penaltyMalformed, "malformed inv")
			return err
		}
		if len(invs) > MaxInvEntries {
			// Honest peers announce objects one at a time; outsized
			// batches are advertisement spam. Ignore entirely.
			n.penalize(p, penaltyOversized,
				fmt.Sprintf("inv with %d entries (cap %d)", len(invs), MaxInvEntries))
			return nil
		}
		var want []wire.InvVect
		wantBlock := false
		for _, iv := range invs {
			p.markKnown(iv.Type, iv.Hash)
			switch iv.Type {
			case wire.InvTypeBlock:
				// A block two peers announce, or one the window refill
				// already scheduled, is fetched once.
				if !n.chain.HaveBlock(iv.Hash) && n.requestBody(p, iv.Hash, now) {
					want = append(want, iv)
					wantBlock = true
				}
			case wire.InvTypeTx:
				// A transaction pooled or in admission is not asked for.
				if !n.pool.Have(iv.Hash) {
					if _, onChain := n.chain.TxByID(iv.Hash); !onChain {
						if p.noteRequested(iv.Type, iv.Hash, now) {
							want = append(want, iv)
						}
					}
				}
			case wire.InvTypeOverlay:
				if ledger := n.Ledger(); ledger != nil && ledger.Wants(iv.Hash) &&
					p.noteRequested(iv.Type, iv.Hash, now) {
					want = append(want, iv)
				}
			}
		}
		if len(want) == 0 {
			return nil
		}
		if wantBlock {
			// Ask the announcer for its headers first. It answers in
			// order, so a body whose ancestry this node has missed
			// arrives after the headers that let it park, not as a
			// parentless body the chain drops.
			n.requestHeaders(p)
		}
		return p.send(wire.CmdGetData, wire.EncodeInv(want))

	case wire.CmdGetData:
		invs, err := wire.DecodeInv(msg.Payload)
		if err != nil {
			n.penalize(p, penaltyMalformed, "malformed getdata")
			return err
		}
		if len(invs) > MaxInvEntries {
			// Serving a giant getdata costs this node bandwidth; refuse.
			n.penalize(p, penaltyOversized,
				fmt.Sprintf("getdata with %d entries (cap %d)", len(invs), MaxInvEntries))
			return nil
		}
		// A transaction or overlay object this node cannot serve goes in
		// one notfound. (A block it lacks is left unanswered.)
		var missing []wire.InvVect
		for _, iv := range invs {
			switch iv.Type {
			case wire.InvTypeBlock:
				if blk, ok := n.chain.BlockByHash(iv.Hash); ok {
					if err := p.send(wire.CmdBlock, blk.Bytes()); err != nil {
						return err
					}
					n.sendTraceContext(p, telemetry.SpanBlock, iv.Hash)
				}
			case wire.InvTypeTx:
				tx, ok := n.pool.Tx(iv.Hash)
				if !ok {
					missing = append(missing, iv)
					continue
				}
				if err := p.send(wire.CmdTx, tx.Bytes()); err != nil {
					return err
				}
				n.sendTraceContext(p, telemetry.SpanTx, iv.Hash)
			case wire.InvTypeOverlay:
				payload, ok := n.overlayPayload(iv.Hash)
				if !ok {
					missing = append(missing, iv)
					continue
				}
				if err := p.send(wire.CmdOverlay, payload); err != nil {
					return err
				}
			}
		}
		if len(missing) == 0 {
			return nil
		}
		return p.send(wire.CmdNotFound, wire.EncodeInv(missing))

	case wire.CmdNotFound:
		invs, err := wire.DecodeInv(msg.Payload)
		if err != nil {
			n.penalize(p, penaltyMalformed, "malformed notfound")
			return err
		}
		if len(invs) > MaxInvEntries {
			n.penalize(p, penaltyOversized,
				fmt.Sprintf("notfound with %d entries (cap %d)", len(invs), MaxInvEntries))
			return nil
		}
		// The peer answered: each request it names is settled, uncharged.
		// A block request is not: a body is asked only of a peer whose
		// version, headers or inv claimed it, and each of those names only
		// blocks whose bodies the peer holds, so a peer that then lacks it
		// is stalling and only the stall sweep ends it.
		for _, iv := range invs {
			if iv.Type != wire.InvTypeBlock {
				p.consumeRequest(iv.Type, iv.Hash, now, false)
			}
		}
		return nil

	case wire.CmdBlock:
		var blk wire.MsgBlock
		if err := blk.Deserialize(bytes.NewReader(msg.Payload)); err != nil {
			n.penalize(p, penaltyMalformed, "malformed block payload")
			return err
		}
		hash := blk.BlockHash()
		p.markKnown(wire.InvTypeBlock, hash)
		status, err := n.chain.ProcessBlock(&blk)
		// Any delivery settles p's request — even an invalid or duplicate
		// one frees the slot for rescheduling — and a body the chain
		// dropped stays owed. It is settled only once ProcessBlock has
		// stored the body: settled earlier, a window refill on another
		// peer's loop would see the body neither in flight nor stored and
		// fetch it a second time.
		solicited := p.consumeRequest(wire.InvTypeBlock, hash, now, err == nil && status == chain.StatusOrphan)
		if err != nil {
			n.logDebug("block rejected", "peer", p.id, "block", hash.String(), "err", err)
			if store.IsStoreFault(err) {
				// Our disk failed, not the peer: the block may be
				// perfectly valid. Leave the peer's score alone and let
				// the scheduler retry the body once the store recovers.
				n.scheduleBodies(nil)
				return nil
			}
			// An invalid block cannot be honest: proof of work and the
			// checksummed frame rule out accidents.
			n.penalize(p, penaltyInvalidBlock, fmt.Sprintf("invalid block %s", hash))
			// The body is still needed; refetch it from the other peers.
			n.scheduleBodies(p)
			return nil // a bad block does not kill the connection
		}
		if !solicited && status != chain.StatusMainChain {
			// Pushed without a getdata and it did not advance the chain:
			// duplicates, stale forks and parentless pushes only an
			// equivocating or replaying peer produces. (A duplicated
			// frame of a block we did request stays solicited via the
			// request grace window.)
			n.penalize(p, penaltyUnsolicited,
				fmt.Sprintf("unsolicited %s block %s", status, hash))
		}
		switch status {
		case chain.StatusMainChain, chain.StatusSideChain, chain.StatusParked:
			// Serving a body proves the peer's chain reaches it.
			n.advanceBestKnown(p, hash)
			// Refill the freed window slot with the next needed body.
			n.scheduleBodies(nil)
		case chain.StatusOrphan:
			// The chain dropped the body: neither its header nor its
			// parent is known. Ask this peer for the skeleton above our
			// best header; the body scheduler fetches the body again once
			// its header connects. A requested body stays owed until then
			// (see chargeOrphans).
			n.requestHeaders(p)
		}
		return nil

	case wire.CmdTx:
		// A txid is the hash of the canonical encoding, so a payload
		// that hashes to a transaction this node holds, or is admitting,
		// is a duplicate: it is settled without a decode. Any other
		// encoding of it misses here and is refused by Accept below.
		if txid := chainhash.DoubleHashB(msg.Payload); n.pool.Have(txid) {
			p.markKnown(wire.InvTypeTx, txid)
			if !p.consumeRequest(wire.InvTypeTx, txid, now, false) {
				n.penalize(p, penaltyUnsolicited, fmt.Sprintf("unsolicited duplicate tx %s", txid))
			}
			return nil
		}
		var tx wire.MsgTx
		if err := tx.Deserialize(bytes.NewReader(msg.Payload)); err != nil {
			n.penalize(p, penaltyMalformed, "malformed tx payload")
			return err
		}
		txid := tx.TxHash()
		p.markKnown(wire.InvTypeTx, txid)
		solicited := p.consumeRequest(wire.InvTypeTx, txid, now, false)
		if _, err := n.pool.Accept(&tx); err != nil {
			n.logDebug("tx rejected", "peer", p.id, "tx", txid.String(), "err", err)
			if isTxPenaltyWorthy(err) {
				n.penalize(p, penaltyInvalidTx, fmt.Sprintf("invalid tx %s: %v", txid, err))
			} else if !solicited && errors.Is(err, mempool.ErrAlreadyKnown) {
				n.penalize(p, penaltyUnsolicited, fmt.Sprintf("unsolicited duplicate tx %s", txid))
			}
			return nil
		}
		n.announce(wire.InvVect{Type: wire.InvTypeTx, Hash: txid}, p)
		return nil

	case wire.CmdTrace:
		tc, err := wire.DecodeTraceContext(msg.Payload)
		if err != nil {
			// Checksummed frame: a malformed context is sender-made.
			n.penalize(p, penaltyMalformed, "malformed trace context")
			return err
		}
		// Advisory hop record for a span some earlier message created
		// (the subject itself always travels first). Unknown subjects
		// drop silently — spans are bounded and strictly best-effort.
		if sp := n.tel.spans; sp != nil {
			sp.AddHop(tc.Subject, telemetry.Hop{
				From:     p.addrKey,
				Count:    int(tc.Hops),
				Origin:   tc.Origin,
				OriginAt: tc.OriginAt,
				SentAt:   tc.SentAt,
				RecvAt:   n.clk.Now(),
			})
		}
		return nil

	case wire.CmdOverlay:
		ledger := n.Ledger()
		if ledger == nil {
			return nil // not participating in the overlay
		}
		obj, err := typecoin.DecodeObject(msg.Payload)
		if err != nil {
			// Checksummed end to end: an undecodable object is sender-made.
			n.penalize(p, penaltyMalformed, fmt.Sprintf("bad overlay object: %v", err))
			return nil
		}
		h := obj.Hash()
		p.markKnown(wire.InvTypeOverlay, h)
		if !p.consumeRequest(wire.InvTypeOverlay, h, now, false) {
			// Unsolicited: dropped, uncharged. An object is kept only for
			// a carrier the chain holds, which this node then asks for
			// (requestMissingObjects), and an honest answer can arrive
			// after its record expired.
			return nil
		}
		ledger.AnnounceObject(obj)
		n.announce(wire.InvVect{Type: wire.InvTypeOverlay, Hash: h}, p)
		return nil

	default:
		// Unknown commands are tolerated (forward compatibility) but not
		// free, so a command-name fuzzer still accumulates score.
		n.tel.unknownCmds.Inc()
		n.logDebug("unknown command", "peer", p.id, "command", msg.Command)
		n.penalize(p, penaltyUnknownCmd, fmt.Sprintf("unknown command %q", msg.Command))
		return nil
	}
}

// overlayPayload returns the encoding of the overlay object named h,
// if the ledger holds it.
func (n *Node) overlayPayload(h chainhash.Hash) ([]byte, bool) {
	ledger := n.Ledger()
	if ledger == nil {
		return nil, false
	}
	obj, ok := ledger.KnownObject(h)
	if !ok {
		return nil, false
	}
	payload, err := typecoin.EncodeObject(obj)
	return payload, err == nil
}

// requestMissingObjects asks every ready peer for the overlay objects
// whose carriers are on this node's main chain while the objects are
// not (Ledger.MissingAnnouncements), in getdatas of at most
// MaxInvEntries entries: a peer charges a larger one as oversized. Each
// entry is a record in the peer's request table; one still unanswered
// there is not asked again until the sweep expires it. A peer that
// lacks the object answers notfound.
func (n *Node) requestMissingObjects() {
	ledger := n.Ledger()
	peers := n.readyPeers(nil)
	if ledger == nil || len(peers) == 0 {
		return
	}
	missing := ledger.MissingAnnouncements()
	if len(missing) == 0 {
		return
	}
	now := n.live.Now()
	for _, p := range peers {
		var want []wire.InvVect
		for _, h := range missing {
			if !p.pending(wire.InvTypeOverlay, h) && p.noteRequested(wire.InvTypeOverlay, h, now) {
				want = append(want, wire.InvVect{Type: wire.InvTypeOverlay, Hash: h})
			}
		}
		for len(want) > 0 {
			k := min(len(want), MaxInvEntries)
			if err := p.send(wire.CmdGetData, wire.EncodeInv(want[:k])); err != nil {
				n.logDebug("overlay getdata send failed", "peer", p.id, "err", err)
				break
			}
			want = want[k:]
		}
	}
}

// peerSnapshot returns the live peers except the given one.
func (n *Node) peerSnapshot(except *Peer) []*Peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	peers := make([]*Peer, 0, len(n.peers))
	for _, p := range n.peers {
		if p != except {
			peers = append(peers, p)
		}
	}
	return peers
}

// BroadcastTypecoin announces an overlay object to the node's ledger
// and, by inv, to its peers. A peer asks for it once the object's
// carrier is on its main chain.
func (n *Node) BroadcastTypecoin(obj typecoin.Object) error {
	ledger := n.Ledger()
	if ledger == nil {
		return errors.New("p2p: no ledger attached to serve the object")
	}
	if _, err := typecoin.EncodeObject(obj); err != nil {
		return err
	}
	ledger.AnnounceObject(obj)
	n.announce(wire.InvVect{Type: wire.InvTypeOverlay, Hash: obj.Hash()}, nil)
	return nil
}

// announce gossips an inventory item to all peers except the source.
func (n *Node) announce(iv wire.InvVect, except *Peer) {
	payload := wire.EncodeInv([]wire.InvVect{iv})
	for _, p := range n.peerSnapshot(except) {
		if p.markKnown(iv.Type, iv.Hash) {
			if err := p.send(wire.CmdInv, payload); err != nil {
				n.logDebug("announce send failed", "peer", p.id, "err", err)
			}
		}
	}
}

// BroadcastTx submits a transaction locally and announces it. It
// announces only a pooled transaction: one whose admission is still in
// flight is refused as a duplicate.
func (n *Node) BroadcastTx(tx *wire.MsgTx) error {
	txid := tx.TxHash()
	if _, pooled := n.pool.Tx(txid); !pooled {
		// The submitted stage opens the commitment's latency span; the
		// pool's acceptance (or rejection, leaving a submit-only span)
		// is the next beat.
		n.tel.spans.Record(telemetry.SpanTx, txid, telemetry.StageSubmitted)
		if _, err := n.pool.Accept(tx); err != nil {
			return err
		}
	}
	n.announce(wire.InvVect{Type: wire.InvTypeTx, Hash: txid}, nil)
	return nil
}

// BroadcastBlock submits a block locally and announces it (used by
// miners).
func (n *Node) BroadcastBlock(blk *wire.MsgBlock) error {
	status, err := n.chain.ProcessBlock(blk)
	if err != nil {
		return err
	}
	if status == chain.StatusMainChain || status == chain.StatusSideChain {
		n.announce(wire.InvVect{Type: wire.InvTypeBlock, Hash: blk.BlockHash()}, nil)
	}
	return nil
}

// onChainChange announces newly connected main-chain blocks, and asks
// the peers for the overlay objects the block's carriers commit to that
// the ledger lacks. The ledger has seen the block's carriers if it
// subscribed to the chain first, as node.Open orders it; otherwise the
// sweep's next probe asks.
func (n *Node) onChainChange(ev chain.Notification) {
	if ev.Connected {
		n.announce(wire.InvVect{Type: wire.InvTypeBlock, Hash: ev.Block.BlockHash()}, nil)
		n.requestMissingObjects()
	}
}
