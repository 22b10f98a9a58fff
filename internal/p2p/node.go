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
	// peers — request stalls, rate buckets, download assignments,
	// orphan attribution — and is the same clock unless a simulation
	// jumps consensus time without letting peers age (SetLivenessClock).
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
	// dialing holds the addresses with a redial chain in flight, each
	// with the stop function of its latest attempt's timer.
	dialing map[string]func() bool
	wg      sync.WaitGroup
	stopped bool
	policy  Policy
	scores  *banscore.Keeper

	// orphanSrc remembers which address delivered each orphan block (a
	// body the chain dropped: header and parent unknown) so orphans that
	// never connect are charged back to their source.
	orphMu        sync.Mutex
	orphanSrc     map[chainhash.Hash]orphanSource
	orphanSweepAt time.Time
}

// orphanSource attributes one orphan block.
type orphanSource struct {
	addr string
	at   time.Time
}

// Peer timing. The handshake reaper and the redial back-off run on the
// liveness clock, so a simulation governs them in virtual time. The
// send-queue time-out runs on wall time (see Peer.send).
const (
	// sendTimeout drops a peer whose full send queue has not drained.
	sendTimeout = 5 * time.Second
	// handshakeTimeout reaps a peer that has not sent its version.
	handshakeTimeout = 10 * time.Second
	// A dialed peer that drops is redialed up to redialAttempts times,
	// the first after redialBase, each later one after twice the wait
	// before it.
	redialAttempts = 6
	redialBase     = 25 * time.Millisecond
)

// maxTrackedOrphanSources bounds the orphan attribution table; past it,
// new orphans simply go unattributed. The chain keeps no orphan bodies,
// so this table is the only per-orphan state.
const maxTrackedOrphanSources = 1024

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
		sync:      newSyncMgr(),
		peers:     make(map[int]*Peer),
		dialing:   make(map[string]func() bool),
		policy:    DefaultPolicy(),
		orphanSrc: make(map[chainhash.Hash]orphanSource),
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
		HalfLife:    pol.ScoreHalfLife,
	})
	if st := n.chain.Store(); st != nil {
		if err := k.AttachStore(st); err != nil {
			n.logWarn("ban table load failed", "err", err)
		}
	}
	return k
}

// SetPolicy replaces the defense policy. Zero fields keep their
// defaults. Rate buckets of already-connected peers are unchanged; the
// scoring keeper is rebuilt (reloading persisted bans), so configure
// before connecting when scores must carry over.
func (n *Node) SetPolicy(pol Policy) {
	pol = pol.withDefaults()
	k := n.newKeeper(pol)
	n.mu.Lock()
	n.policy = pol
	n.scores = k
	n.mu.Unlock()
}

// getPolicy returns the current policy.
func (n *Node) getPolicy() Policy {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.policy
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

// penalize charges points against p's address. When the score crosses
// the ban threshold every connection from that address is dropped and
// banned=true is returned.
func (n *Node) penalize(p *Peer, points int32, reason string) bool {
	if p.addrKey == "" {
		return false
	}
	return n.penalizeAddr(p.addrKey, points, reason)
}

// penalizeAddr is penalize for addresses without a live peer (e.g. the
// source of an expired orphan that has since disconnected).
func (n *Node) penalizeAddr(key string, points int32, reason string) bool {
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
// chain's clock): request stalls, rate buckets, the handshake reaper and
// the redial back-off. A simulation that moves consensus time forward in
// one step gives the node a clock that step leaves alone, so a request
// or handshake in flight across it is not aged by it. Call before
// Listen or Dial.
func (n *Node) SetLivenessClock(clk clock.Clock) { n.live = clk }

// Chain returns the node's chain.
func (n *Node) Chain() *chain.Chain { return n.chain }

// SetLedger attaches a Typecoin ledger; the node then relays Typecoin
// transactions, fallback lists and batches to its peers, and announces
// received ones to the ledger. The Bitcoin layer is unaffected: carriers
// still commit only to hashes.
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
	pol := n.policy
	if key != "" && n.scores.IsBanned(key) {
		n.mu.Unlock()
		n.tel.refused.With("banned").Inc()
		n.logInfo("refusing connection from banned address", "addr", key)
		conn.Close()
		return nil
	}
	// evict, when set, is an older connection this one supersedes.
	var evict *Peer
	if inbound {
		count := 0
		for _, q := range n.peers {
			if q.inbound {
				count++
			}
			// A second inbound connection from the same host supersedes
			// the first: after a crash or network break the remote
			// redials before this side notices the old conn is dead, so
			// keeping the old one would wedge the reconnect. net.Pipe
			// connections all share the "pipe" address and are exempt.
			if evict == nil && q.inbound && key != "" && key != "pipe" && q.addrKey == key {
				evict = q
			}
		}
		if evict == nil && count >= pol.MaxInbound {
			n.mu.Unlock()
			n.tel.refused.With("inbound_cap").Inc()
			n.logDebug("refusing inbound connection at cap", "addr", key, "cap", pol.MaxInbound)
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
		if dup || count >= pol.MaxOutbound {
			n.mu.Unlock()
			if dup {
				n.tel.refused.With("duplicate").Inc()
				n.logDebug("refusing duplicate dial", "addr", dialAddr)
			} else {
				n.tel.refused.With("outbound_cap").Inc()
				n.logDebug("refusing dial at cap", "addr", dialAddr, "cap", pol.MaxOutbound)
			}
			conn.Close()
			return nil
		}
	}
	id := n.nextID
	n.nextID++
	p := newPeer(n, conn, id, pol, n.live.Now())
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
	n.mu.Unlock()
	n.bindPeerCounters(p)
	direction := "outbound"
	if inbound {
		direction = "inbound"
	}
	n.tel.connects.With(direction).Inc()
	if n.tel.tracer != nil {
		n.tel.tracer.Record(telemetry.EvPeerConnected, key, direction)
	}
	n.logDebug("peer connected", "addr", key, "peer", id, "direction", direction)
	if evict != nil {
		n.logDebug("inbound connection supersedes existing peer", "addr", key, "peer", evict.id)
		evict.close()
	}

	// Handshake: announce our version — carrying our best-header tip, so
	// the peer can seed its download scheduler with our claimed chain
	// knowledge; the peer replies verack and both sides then sync. The
	// version is queued before the loops start, so the read loop first
	// waits on the connection only once everything addConn does is done.
	payload := wire.EncodeVersion(n.chain.HeaderTipHash(), uint64(n.chain.HeaderHeight()))
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
// bounded redial chain so a mid-stream connection failure does not
// silently shrink the peer set.
func (n *Node) dropPeer(p *Peer) {
	n.tel.disconnects.Inc()
	if n.tel.tracer != nil {
		n.tel.tracer.Record(telemetry.EvPeerDisconnected, p.addrKey, "")
	}
	n.logDebug("peer disconnected", "addr", p.addrKey, "peer", p.id)
	n.mu.Lock()
	delete(n.peers, p.id)
	_, inFlight := n.dialing[p.dialAddr]
	if p.dialAddr != "" && !n.stopped && !inFlight && !n.scores.IsBanned(addrKeyOf(p.dialAddr)) {
		n.armRedialLocked(p.dialAddr, 1, redialBase)
	}
	n.mu.Unlock()
	// Free the peer's download window; its slots move to the survivors.
	if n.releaseSyncSlots(p) {
		n.electSyncPeer(p)
	}
	n.scheduleBodies(p)
}

// armRedialLocked schedules redial attempt number attempt of addr after
// backoff of liveness time. The attempt holds a wait-group slot from
// now, which the callback releases, or Stop when it cancels the timer
// first. Callers hold n.mu and have checked that the node is not
// stopped.
func (n *Node) armRedialLocked(addr string, attempt int, backoff time.Duration) {
	n.wg.Add(1)
	n.dialing[addr] = n.live.AfterFunc(backoff, func() {
		defer n.wg.Done()
		n.redial(addr, attempt, backoff)
	})
}

// redial makes one attempt to reconnect an outbound address. A failed
// attempt arms the next at twice the backoff, up to redialAttempts.
func (n *Node) redial(addr string, attempt int, backoff time.Duration) {
	var conn net.Conn
	var err error
	if n.keeper().IsBanned(addrKeyOf(addr)) {
		// A ban (imposed locally at any point) permanently ends the
		// redial chain: reconnecting to a misbehaving address would just
		// re-open the attack surface.
		n.logDebug("redial abandoned: address banned", "addr", addr)
	} else {
		n.tel.redials.Inc()
		if conn, err = n.transport.Dial(addr); err != nil {
			n.logDebug("redial attempt failed", "addr", addr, "attempt", attempt, "max", redialAttempts, "err", err)
		}
	}
	n.mu.Lock()
	if err != nil && attempt < redialAttempts && !n.stopped {
		n.armRedialLocked(addr, attempt+1, 2*backoff)
		n.mu.Unlock()
		return
	}
	// The chain ends here. Clearing the in-flight marker before the
	// peer registers lets an immediate re-drop start a fresh chain.
	delete(n.dialing, addr)
	n.mu.Unlock()
	switch {
	case conn != nil:
		n.logDebug("redial succeeded", "addr", addr, "attempt", attempt)
		n.addConn(conn, addr)
	case err != nil && attempt == redialAttempts:
		n.logInfo("redial giving up", "addr", addr, "attempts", redialAttempts)
	}
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
// is remembered: if the connection later fails mid-stream, the node
// redials it with bounded backoff.
func (n *Node) Dial(addr string) error {
	if n.keeper().IsBanned(addrKeyOf(addr)) {
		return fmt.Errorf("p2p: dial %s: address is banned", addr)
	}
	// Refuse a duplicate before connecting: the remote would otherwise
	// see a second inbound conn from this host, let it supersede the
	// live one, and the refused conn would then take both down.
	if n.HasPeerAddr(addr) {
		n.tel.refused.With("duplicate").Inc()
		n.logDebug("refusing duplicate dial", "addr", addr)
		return nil
	}
	conn, err := n.transport.Dial(addr)
	if err != nil {
		return fmt.Errorf("p2p: dial %s: %w", addr, err)
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
	redials := make([]func() bool, 0, len(n.dialing))
	for _, stop := range n.dialing {
		redials = append(redials, stop)
	}
	n.mu.Unlock()
	for _, stop := range redials {
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
			p.cSentMsgs.Inc()
			p.cSentBytes.Add(uint64(24 + len(msg.payload)))
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
				n.penalize(p, n.getPolicy().PenaltyFrame, err.Error())
			}
			return
		}
		p.cRecvMsgs.Inc()
		p.cRecvBytes.Add(uint64(24 + len(msg.Payload)))
		pol := n.getPolicy()
		now := n.live.Now()
		if !p.takeTokens(now, 24+len(msg.Payload)) {
			// Drop the frame unprocessed; repeated violations ban.
			n.tel.rateLimited.Inc()
			if n.penalize(p, pol.PenaltyRateLimit, "rate limit exceeded") {
				return
			}
			continue
		}
		if err := n.handleMessage(p, msg); err != nil {
			n.logDebug("message handling failed", "peer", p.id, "command", msg.Command, "err", err)
			return
		}
		if stalls := p.sweep(now, pol); stalls > 0 {
			// The peer advertised data it never served: charge it and
			// rotate the sync to the remaining peers.
			n.tel.stalls.Add(uint64(stalls))
			if !n.penalize(p, pol.PenaltyStall, "sync stall") {
				n.rotateSync(p)
			}
		}
		n.sweepOrphans(now, pol)
	}
}

// rotateSync moves sync work away from a stalled peer: its download
// slots are freed and reassigned to the remaining peers, the skeleton
// source moves if the stalled peer held it, and everyone else is asked
// for headers in case the stalled peer was the only one serving them.
func (n *Node) rotateSync(except *Peer) {
	if n.releaseSyncSlots(except) {
		n.electSyncPeer(except)
	}
	payload := wire.EncodeLocator(n.chain.HeaderLocator(), chainhash.ZeroHash)
	for _, p := range n.readyPeers(except) {
		if err := p.send(wire.CmdGetHeaders, payload); err != nil {
			n.logDebug("rotate sync send failed", "peer", p.id, "err", err)
		}
	}
	n.scheduleBodies(except)
}

// noteOrphan attributes an orphan block to the peer that delivered it;
// sweepOrphans charges the source if it never connects.
func (n *Node) noteOrphan(h chainhash.Hash, p *Peer) {
	if p.addrKey == "" {
		return
	}
	n.orphMu.Lock()
	defer n.orphMu.Unlock()
	if len(n.orphanSrc) >= maxTrackedOrphanSources {
		return
	}
	if _, ok := n.orphanSrc[h]; !ok {
		n.orphanSrc[h] = orphanSource{addr: p.addrKey, at: n.live.Now()}
	}
}

// sweepOrphans drops attribution rows for orphans that connected and
// penalizes sources of orphans that expired without ever connecting.
func (n *Node) sweepOrphans(now time.Time, pol Policy) {
	n.orphMu.Lock()
	if len(n.orphanSrc) == 0 ||
		(!n.orphanSweepAt.IsZero() && now.Sub(n.orphanSweepAt) < pol.OrphanExpiry/4) {
		n.orphMu.Unlock()
		return
	}
	n.orphanSweepAt = now
	var resolved []chainhash.Hash
	var punish []string
	for h, src := range n.orphanSrc {
		// BlockByHash sees only accepted blocks (main or side): presence
		// means the ancestry arrived and the refetched body connected.
		if _, connected := n.chain.BlockByHash(h); connected {
			resolved = append(resolved, h)
			continue
		}
		if now.Sub(src.at) >= pol.OrphanExpiry {
			resolved = append(resolved, h)
			punish = append(punish, src.addr)
		}
	}
	for _, h := range resolved {
		delete(n.orphanSrc, h)
	}
	n.orphMu.Unlock()
	for _, addr := range punish {
		n.penalizeAddr(addr, pol.PenaltyOrphan, "orphan block never connected")
	}
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
	pol := n.getPolicy()
	now := n.live.Now()
	switch msg.Command {
	case wire.CmdVersion:
		if tip, _, err := wire.DecodeVersion(msg.Payload); err != nil {
			n.penalize(p, pol.PenaltyMalformed, "malformed version payload")
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
			n.penalize(p, pol.PenaltyMalformed, "malformed getheaders locator")
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
				n.penalize(p, pol.PenaltyOversized, "oversized headers batch")
			} else {
				n.penalize(p, pol.PenaltyMalformed, "malformed headers payload")
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
				n.penalize(p, pol.PenaltyUnsolicited, "disconnected header skeleton")
			} else if store.IsStoreFault(err) {
				// Persisting the rows failed locally; the skeleton itself
				// may be honest. No score.
				n.logDebug("header persist failed", "peer", p.id, "err", err)
			} else {
				// Headers carry their own proof of work: an invalid one
				// cannot be honest.
				n.penalize(p, pol.PenaltyInvalidBlock, fmt.Sprintf("invalid header: %v", err))
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
			n.penalize(p, pol.PenaltyMalformed, "malformed inv")
			return err
		}
		if len(invs) > pol.MaxInvEntries {
			// Honest peers announce objects one at a time; outsized
			// batches are advertisement spam. Ignore entirely.
			n.penalize(p, pol.PenaltyOversized,
				fmt.Sprintf("inv with %d entries (cap %d)", len(invs), pol.MaxInvEntries))
			return nil
		}
		var want []wire.InvVect
		wantBlock := false
		for _, iv := range invs {
			p.markKnown(iv.Type, iv.Hash)
			switch iv.Type {
			case wire.InvTypeBlock:
				if !n.chain.HaveBlock(iv.Hash) {
					// Route the request through the download manager so a
					// block two peers announce (or one the window refill
					// already scheduled) is fetched once.
					if n.reserveBody(p, iv.Hash, now) {
						if p.noteRequested(iv.Type, iv.Hash, now, pol.MaxInflight) {
							want = append(want, iv)
							wantBlock = true
						} else {
							n.syncDelivered(iv.Hash)
						}
					}
				}
			case wire.InvTypeTx:
				if !n.pool.Have(iv.Hash) {
					if _, onChain := n.chain.TxByID(iv.Hash); !onChain {
						if p.noteRequested(iv.Type, iv.Hash, now, pol.MaxInflight) {
							want = append(want, iv)
						}
					}
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
			n.penalize(p, pol.PenaltyMalformed, "malformed getdata")
			return err
		}
		if len(invs) > pol.MaxInvEntries {
			// Serving a giant getdata costs this node bandwidth; refuse.
			n.penalize(p, pol.PenaltyOversized,
				fmt.Sprintf("getdata with %d entries (cap %d)", len(invs), pol.MaxInvEntries))
			return nil
		}
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
				if tx, ok := n.pool.Tx(iv.Hash); ok {
					if err := p.send(wire.CmdTx, tx.Bytes()); err != nil {
						return err
					}
					n.sendTraceContext(p, telemetry.SpanTx, iv.Hash)
				}
			}
		}
		return nil

	case wire.CmdBlock:
		var blk wire.MsgBlock
		if err := blk.Deserialize(bytes.NewReader(msg.Payload)); err != nil {
			n.penalize(p, pol.PenaltyMalformed, "malformed block payload")
			return err
		}
		hash := blk.BlockHash()
		p.markKnown(wire.InvTypeBlock, hash)
		solicited := p.consumeRequest(wire.InvTypeBlock, hash, now)
		status, err := n.chain.ProcessBlock(&blk)
		// Any delivery settles the download assignment — even an invalid
		// or duplicate one frees the slot for rescheduling. It is settled
		// only once ProcessBlock has stored the body: freed earlier, a
		// window refill on another peer's loop would see the body neither
		// in flight nor stored and fetch it a second time.
		n.syncDelivered(hash)
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
			n.penalize(p, pol.PenaltyInvalidBlock, fmt.Sprintf("invalid block %s", hash))
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
			n.penalize(p, pol.PenaltyUnsolicited,
				fmt.Sprintf("unsolicited %s block %s", status, hash))
		}
		switch status {
		case chain.StatusMainChain, chain.StatusSideChain, chain.StatusParked:
			// Serving a body proves the peer's chain reaches it.
			n.advanceBestKnown(p, hash)
			// Refill the freed window slot with the next needed body.
			n.scheduleBodies(nil)
			// The block may commit to overlay objects this node never
			// received (gossiped into a partition); re-request them.
			if status != chain.StatusParked {
				n.requestMissingTypecoin()
			}
		case chain.StatusOrphan:
			// The chain dropped the body: neither its header nor its
			// parent is known. Ask this peer for the skeleton above our
			// best header; the body scheduler fetches the body again once
			// its header connects.
			n.noteOrphan(hash, p)
			n.requestHeaders(p)
		}
		return nil

	case wire.CmdTx:
		var tx wire.MsgTx
		if err := tx.Deserialize(bytes.NewReader(msg.Payload)); err != nil {
			n.penalize(p, pol.PenaltyMalformed, "malformed tx payload")
			return err
		}
		txid := tx.TxHash()
		p.markKnown(wire.InvTypeTx, txid)
		solicited := p.consumeRequest(wire.InvTypeTx, txid, now)
		if _, err := n.pool.Accept(&tx); err != nil {
			n.logDebug("tx rejected", "peer", p.id, "tx", txid.String(), "err", err)
			if isTxPenaltyWorthy(err) {
				n.penalize(p, pol.PenaltyInvalidTx, fmt.Sprintf("invalid tx %s: %v", txid, err))
			} else if !solicited && errors.Is(err, mempool.ErrAlreadyKnown) {
				n.penalize(p, pol.PenaltyUnsolicited, fmt.Sprintf("unsolicited duplicate tx %s", txid))
			}
			return nil
		}
		n.announce(wire.InvVect{Type: wire.InvTypeTx, Hash: txid}, p)
		return nil

	case wire.CmdTrace:
		tc, err := wire.DecodeTraceContext(msg.Payload)
		if err != nil {
			// Checksummed frame: a malformed context is sender-made.
			n.penalize(p, pol.PenaltyMalformed, "malformed trace context")
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

	case wire.CmdTcTx, wire.CmdTcList, wire.CmdTcBatch:
		ledger := n.Ledger()
		if ledger == nil {
			return nil // not participating in the overlay
		}
		h, err := n.acceptTypecoin(ledger, msg.Command, msg.Payload)
		if err != nil {
			n.logDebug("overlay object rejected", "peer", p.id, "command", msg.Command, "err", err)
			// Overlay objects are checksummed end to end; an undecodable
			// or invalid one is sender-made. The connection survives
			// unless the score crosses the threshold.
			n.penalize(p, pol.PenaltyMalformed, fmt.Sprintf("bad %s: %v", msg.Command, err))
			return nil
		}
		p.markKnown(invTypeTypecoin, h)
		n.gossipTypecoin(msg.Command, msg.Payload, h, p)
		return nil

	case wire.CmdTcGet:
		ledger := n.Ledger()
		if ledger == nil {
			return nil
		}
		invs, err := wire.DecodeInv(msg.Payload)
		if err != nil {
			n.penalize(p, pol.PenaltyMalformed, "malformed tcget")
			return err
		}
		if len(invs) > pol.MaxInvEntries {
			n.penalize(p, pol.PenaltyOversized,
				fmt.Sprintf("tcget with %d entries (cap %d)", len(invs), pol.MaxInvEntries))
			return nil
		}
		for _, iv := range invs {
			obj, ok := ledger.KnownObject(iv.Hash)
			if !ok {
				continue
			}
			if err := n.sendTypecoinObject(p, obj); err != nil {
				return err
			}
		}
		return nil

	default:
		// Unknown commands are tolerated (forward compatibility) but not
		// free, so a command-name fuzzer still accumulates score.
		n.tel.unknownCmds.Inc()
		n.logDebug("unknown command", "peer", p.id, "command", msg.Command)
		n.penalize(p, pol.PenaltyUnknownCmd, fmt.Sprintf("unknown command %q", msg.Command))
		return nil
	}
}

// invTypeTypecoin is the peer-known-set namespace for overlay gossip.
const invTypeTypecoin uint32 = 0x7c

// sendTypecoinObject re-encodes an announced overlay object for the
// gossip command matching its shape (answering a tcget).
func (n *Node) sendTypecoinObject(p *Peer, obj interface{}) error {
	switch obj := obj.(type) {
	case *typecoin.FallbackList:
		if len(obj.Txs) == 1 {
			// Singleton lists hash as their sole transaction.
			return p.send(wire.CmdTcTx, obj.Txs[0].Bytes())
		}
		var buf bytes.Buffer
		if err := wire.WriteVarInt(&buf, uint64(len(obj.Txs))); err != nil {
			return err
		}
		for _, tx := range obj.Txs {
			if err := wire.WriteVarBytes(&buf, tx.Bytes()); err != nil {
				return err
			}
		}
		return p.send(wire.CmdTcList, buf.Bytes())
	case *typecoin.Batch:
		return p.send(wire.CmdTcBatch, obj.Bytes())
	default:
		return nil
	}
}

// requestMissingTypecoin asks every peer for overlay objects whose
// carriers this node has seen confirm without ever receiving the object
// (the announce-after-mine hole a partition opens).
func (n *Node) requestMissingTypecoin() {
	ledger := n.Ledger()
	if ledger == nil {
		return
	}
	missing := ledger.MissingAnnouncements()
	if len(missing) == 0 {
		return
	}
	invs := make([]wire.InvVect, len(missing))
	for i, h := range missing {
		invs[i] = wire.InvVect{Type: invTypeTypecoin, Hash: h}
	}
	payload := wire.EncodeInv(invs)
	for _, p := range n.peerSnapshot(nil) {
		if err := p.send(wire.CmdTcGet, payload); err != nil {
			n.logDebug("tcget send failed", "peer", p.id, "err", err)
		}
	}
}

// SyncPeers re-requests chain and overlay state from every peer: the
// recovery entry point after a partition heals, when announcements made
// during the partition were swallowed silently. A caught-up peer answers
// a getheaders with an empty batch, so the periodic probe is cheap.
func (n *Node) SyncPeers() {
	pol := n.getPolicy()
	now := n.live.Now()
	payload := wire.EncodeLocator(n.chain.HeaderLocator(), chainhash.ZeroHash)
	var stalled []*Peer
	for _, p := range n.peerSnapshot(nil) {
		// Periodic resync doubles as the stall detector for peers that
		// went completely silent after advertising data.
		if stalls := p.sweep(now, pol); stalls > 0 {
			n.tel.stalls.Add(uint64(stalls))
			if n.penalize(p, pol.PenaltyStall, "sync stall") {
				continue
			}
			stalled = append(stalled, p)
			continue
		}
		if err := p.send(wire.CmdGetHeaders, payload); err != nil {
			n.logDebug("sync send failed", "peer", p.id, "err", err)
		}
	}
	for _, p := range stalled {
		n.rotateSync(p)
	}
	n.scheduleBodies(nil)
	n.requestMissingTypecoin()
	n.sweepOrphans(now, pol)
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

// acceptTypecoin decodes and announces an overlay object, returning its
// commitment hash for gossip dedup.
func (n *Node) acceptTypecoin(ledger *typecoin.Ledger, command string, payload []byte) (chainhash.Hash, error) {
	switch command {
	case wire.CmdTcTx:
		tx, err := typecoin.DecodeBytes(payload)
		if err != nil {
			return chainhash.Hash{}, err
		}
		ledger.Announce(tx)
		return tx.Hash(), nil
	case wire.CmdTcList:
		r := bytes.NewReader(payload)
		count, err := wire.ReadVarInt(r)
		if err != nil {
			return chainhash.Hash{}, err
		}
		if count == 0 || count > 64 {
			return chainhash.Hash{}, fmt.Errorf("p2p: implausible fallback list length %d", count)
		}
		list := &typecoin.FallbackList{}
		for i := uint64(0); i < count; i++ {
			raw, err := wire.ReadVarBytes(r, "fallback member")
			if err != nil {
				return chainhash.Hash{}, err
			}
			tx, err := typecoin.DecodeBytes(raw)
			if err != nil {
				return chainhash.Hash{}, err
			}
			list.Txs = append(list.Txs, tx)
		}
		if r.Len() != 0 {
			return chainhash.Hash{}, fmt.Errorf("p2p: trailing bytes after fallback list")
		}
		if err := list.Validate(); err != nil {
			return chainhash.Hash{}, err
		}
		ledger.AnnounceList(list)
		return list.Hash(), nil
	case wire.CmdTcBatch:
		r := bytes.NewReader(payload)
		b, err := typecoin.DecodeBatch(r)
		if err != nil {
			return chainhash.Hash{}, err
		}
		if r.Len() != 0 {
			return chainhash.Hash{}, fmt.Errorf("p2p: trailing bytes after batch")
		}
		ledger.AnnounceBatch(b)
		return b.Hash(), nil
	default:
		return chainhash.Hash{}, fmt.Errorf("p2p: unknown overlay command %q", command)
	}
}

// gossipTypecoin forwards an overlay payload to all peers except the
// source, deduplicating per peer.
func (n *Node) gossipTypecoin(command string, payload []byte, h chainhash.Hash, except *Peer) {
	for _, p := range n.peerSnapshot(except) {
		if p.markKnown(invTypeTypecoin, h) {
			if err := p.send(command, payload); err != nil {
				n.logDebug("typecoin gossip send failed", "peer", p.id, "err", err)
			}
		}
	}
}

// BroadcastTypecoinTx announces a Typecoin transaction locally and
// gossips it to the overlay.
func (n *Node) BroadcastTypecoinTx(tx *typecoin.Tx) {
	if ledger := n.Ledger(); ledger != nil {
		ledger.Announce(tx)
	}
	n.gossipTypecoin(wire.CmdTcTx, tx.Bytes(), tx.Hash(), nil)
}

// BroadcastTypecoinList announces a fallback list and gossips it.
func (n *Node) BroadcastTypecoinList(list *typecoin.FallbackList) error {
	if err := list.Validate(); err != nil {
		return err
	}
	if ledger := n.Ledger(); ledger != nil {
		ledger.AnnounceList(list)
	}
	var buf bytes.Buffer
	if err := wire.WriteVarInt(&buf, uint64(len(list.Txs))); err != nil {
		return err
	}
	for _, tx := range list.Txs {
		if err := wire.WriteVarBytes(&buf, tx.Bytes()); err != nil {
			return err
		}
	}
	n.gossipTypecoin(wire.CmdTcList, buf.Bytes(), list.Hash(), nil)
	return nil
}

// BroadcastTypecoinBatch announces a batch and gossips it.
func (n *Node) BroadcastTypecoinBatch(b *typecoin.Batch) {
	if ledger := n.Ledger(); ledger != nil {
		ledger.AnnounceBatch(b)
	}
	n.gossipTypecoin(wire.CmdTcBatch, b.Bytes(), b.Hash(), nil)
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

// BroadcastTx submits a transaction locally and announces it.
func (n *Node) BroadcastTx(tx *wire.MsgTx) error {
	txid := tx.TxHash()
	if !n.pool.Have(txid) {
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

// onChainChange announces newly connected main-chain blocks.
func (n *Node) onChainChange(ev chain.Notification) {
	if ev.Connected {
		n.announce(wire.InvVect{Type: wire.InvTypeBlock, Hash: ev.Block.BlockHash()}, nil)
	}
}
