package p2p

// Headers-first download manager. One peer (the sync peer) serves the
// header skeleton via getheaders/headers; once headers validate into the
// chain's header index, the bodies the skeleton still needs are fetched
// in parallel sliding windows across every handshaken peer. A body is
// in flight to a peer while that peer's request table (peer.go) holds a
// pending record for it, and each peer holds at most Policy.SyncWindow
// such records. Delivery, the request sweep's expiry and disconnect end
// a record, and scheduleBodies refills the windows in skeleton order.
//
// Locking: sm.mu is taken before n.mu (peer snapshots), p.mu (the
// request table is a leaf) and the chain's read lock (the chain never
// calls into the node while holding its lock); nothing holds n.mu or
// p.mu while taking sm.mu. Block records are only created under sm.mu,
// so a body is never assigned twice. Nothing sends on a peer while
// holding sm.mu — a blocked send can close the peer, and dropPeer takes
// sm.mu.

import (
	"sort"
	"sync"
	"time"

	"typecoin/internal/chainhash"
	"typecoin/internal/wire"
)

// syncMgr serializes body scheduling and holds the skeleton source.
type syncMgr struct {
	mu sync.Mutex
	// syncPeer is the peer id currently serving the header skeleton;
	// -1 when none is elected.
	syncPeer int
}

// SyncStatus is a point-in-time view of headers-first sync progress.
type SyncStatus struct {
	// HeaderHeight is the best-header tip; Height the fully-connected
	// tip. Their gap is the body backlog.
	HeaderHeight int
	Height       int
	// InflightBodies counts requested-but-undelivered bodies;
	// DownloadPeers the peers currently holding at least one request.
	InflightBodies int
	DownloadPeers  int
	// ParkedBodies counts out-of-order bodies waiting on a predecessor.
	ParkedBodies int
}

// SyncStatus reports the node's current sync progress.
func (n *Node) SyncStatus() SyncStatus {
	st := SyncStatus{
		HeaderHeight: n.chain.HeaderHeight(),
		Height:       n.chain.BestHeight(),
		ParkedBodies: n.chain.ParkedCount(),
	}
	for _, c := range n.inflightPerPeer() {
		st.InflightBodies += c
		st.DownloadPeers++
	}
	return st
}

// inflightPerPeer returns the number of bodies in flight to each peer
// holding at least one (for the labeled telemetry gauge).
func (n *Node) inflightPerPeer() map[int]int {
	out := make(map[int]int)
	for _, p := range n.peerSnapshot(nil) {
		if c := len(p.blocksIn(reqPending)); c > 0 {
			out[p.id] = c
		}
	}
	return out
}

// requestHeaders asks p for the header skeleton above our best header.
func (n *Node) requestHeaders(p *Peer) {
	payload := wire.EncodeLocator(n.chain.HeaderLocator(), chainhash.ZeroHash)
	if err := p.send(wire.CmdGetHeaders, payload); err != nil {
		n.logDebug("getheaders send failed", "peer", p.id, "err", err)
	}
}

// onPeerReady runs once per peer when its handshake completes: a dialed
// peer's redial chain ends, the first ready peer is elected sync peer
// and asked for the skeleton, and every new peer is immediately
// eligible for body downloads.
func (n *Node) onPeerReady(p *Peer) {
	p.mu.Lock()
	started := p.syncStarted
	p.syncStarted = true
	p.mu.Unlock()
	if started {
		return
	}
	n.endRedial(p.dialAddr)
	sm := n.sync
	sm.mu.Lock()
	if sm.syncPeer < 0 {
		sm.syncPeer = p.id
	}
	isSync := sm.syncPeer == p.id
	sm.mu.Unlock()
	if isSync {
		n.requestHeaders(p)
	}
	n.scheduleBodies(nil)
}

// electSyncPeer picks a new skeleton source when the previous one left,
// preferring the lowest peer id for determinism under simulation.
func (n *Node) electSyncPeer(except *Peer) {
	n.mu.Lock()
	stopped := n.stopped
	n.mu.Unlock()
	if stopped {
		return
	}
	for _, p := range n.readyPeers(except) {
		sm := n.sync
		sm.mu.Lock()
		if sm.syncPeer >= 0 {
			sm.mu.Unlock()
			return
		}
		sm.syncPeer = p.id
		sm.mu.Unlock()
		n.requestHeaders(p)
		return
	}
}

// releaseSyncPeer reports whether p was the sync peer, clearing the
// election (the caller then elects a replacement).
func (n *Node) releaseSyncPeer(p *Peer) bool {
	sm := n.sync
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if sm.syncPeer != p.id {
		return false
	}
	sm.syncPeer = -1
	return true
}

// requestBody records a getdata for an announced block to p, so the
// window refill does not also schedule it (and two announcing peers are
// not both asked). False when the body is in flight to another peer or
// p's request table is full. An announcement from the peer already
// holding the request refreshes it and re-requests: the earlier getdata
// may have raced ahead of the peer's own body download, in which case
// the inv is the signal that the body is now actually available.
func (n *Node) requestBody(p *Peer, hash chainhash.Hash, now time.Time, maxInflight int) bool {
	sm := n.sync
	sm.mu.Lock()
	defer sm.mu.Unlock()
	for _, q := range n.peerSnapshot(p) {
		if q.pending(wire.InvTypeBlock, hash) {
			return false
		}
	}
	return p.noteRequested(wire.InvTypeBlock, hash, now, maxInflight)
}

// advanceBestKnown raises p's best-known header to h when that widens
// the range of skeleton bodies p can be asked for. Proven knowledge
// (served headers, connected blocks) never narrows an earlier claim:
// resolving both hashes against the current skeleton keeps the
// comparison meaningful across header reorgs.
func (n *Node) advanceBestKnown(p *Peer, h chainhash.Hash) {
	if n.chain.ServableHeight(h) > n.chain.ServableHeight(p.bestKnownHeader()) {
		p.setBestKnown(h)
	}
}

// readyPeers returns the handshaken peers except the given one, sorted
// by id so scheduling is deterministic under simulation.
func (n *Node) readyPeers(except *Peer) []*Peer {
	peers := n.peerSnapshot(except)
	out := peers[:0]
	for _, p := range peers {
		if p.isHandshaken() {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// scheduleBodies tops up every ready peer's download window with the
// next bodies the header skeleton needs, round-robin so the load
// spreads across peers. Each assignment is a pending record in the
// peer's request table, the same record the inv path makes, so the
// sweep's stall and expiry rules and solicited-delivery classification
// cover scheduled downloads unchanged.
func (n *Node) scheduleBodies(except *Peer) {
	n.mu.Lock()
	stopped := n.stopped
	n.mu.Unlock()
	if stopped {
		return
	}
	pol := n.getPolicy()
	now := n.live.Now()
	ready := n.readyPeers(except)
	if len(ready) == 0 {
		return
	}
	// Enough candidates to refill every window even if the first
	// window's worth of entries is already in flight.
	need := n.chain.NextNeededBodies(2 * len(ready) * pol.SyncWindow)
	if len(need) == 0 {
		return
	}
	// A body is only assigned to a peer whose announced chain covers its
	// height on the skeleton — a peer that is behind, on another fork, or
	// silent never gets charged a stall for bodies it never claimed.
	servable := make([]int, len(ready))
	for i, p := range ready {
		servable[i] = n.chain.ServableHeight(p.bestKnownHeader())
	}

	sm := n.sync
	plan := make(map[*Peer][]chainhash.Hash)
	sm.mu.Lock()
	busy := make(map[chainhash.Hash]bool)
	window := make(map[*Peer]int)
	for _, p := range n.peerSnapshot(nil) {
		pending := p.blocksIn(reqPending)
		window[p] = len(pending)
		for _, h := range pending {
			busy[h] = true
		}
	}
	next := 0
	for _, nb := range need {
		// need was read before sm.mu was taken. A delivery stores its
		// body before it settles the request, so a body that is no longer
		// in flight may have landed since: fetching it again would
		// download it twice.
		if busy[nb.Hash] || n.chain.HaveBlock(nb.Hash) {
			continue
		}
		var target *Peer
		for range ready {
			i := next % len(ready)
			p := ready[i]
			next++
			if servable[i] >= nb.Height && window[p] < pol.SyncWindow &&
				p.noteRequested(wire.InvTypeBlock, nb.Hash, now, pol.MaxInflight) {
				target = p
				break
			}
		}
		if target == nil {
			// Every eligible window is full — and bodies the skeleton
			// needs are a prefix property, so later entries fare no
			// better.
			break
		}
		window[target]++
		plan[target] = append(plan[target], nb.Hash)
	}
	sm.mu.Unlock()

	for _, p := range ready {
		hashes := plan[p]
		if len(hashes) == 0 {
			continue
		}
		invs := make([]wire.InvVect, len(hashes))
		for i, h := range hashes {
			invs[i] = wire.InvVect{Type: wire.InvTypeBlock, Hash: h}
		}
		// A failed send closes the peer, and its records leave with it.
		if err := p.send(wire.CmdGetData, wire.EncodeInv(invs)); err != nil {
			n.logDebug("body request send failed", "peer", p.id, "err", err)
		}
	}
}
