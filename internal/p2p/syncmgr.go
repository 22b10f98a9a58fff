package p2p

// Headers-first download manager. One peer (the sync peer) serves the
// header skeleton via getheaders/headers; once headers validate into the
// chain's header index, the bodies the skeleton still needs are fetched
// in parallel sliding windows across every handshaken peer. Each peer
// holds at most Policy.SyncWindow undelivered body requests; delivery,
// disconnect, stall rotation and a stale-assignment expiry all free
// slots, and scheduleBodies refills them in skeleton order.
//
// Locking: sm.mu is taken after n.mu (peer snapshots are made first) and
// before p.mu (noteRequested is a leaf) and the chain's read lock (the
// chain never calls into the node while holding its lock). Nothing
// sends on a peer while holding sm.mu — a blocked send can close the
// peer, and dropPeer takes both n.mu and sm.mu.

import (
	"sort"
	"sync"
	"time"

	"typecoin/internal/chainhash"
	"typecoin/internal/wire"
)

// bodyReq is one in-flight body download assignment.
type bodyReq struct {
	peerID int
	at     time.Time
}

// syncMgr is the download manager's shared state.
type syncMgr struct {
	mu sync.Mutex
	// syncPeer is the peer id currently serving the header skeleton;
	// -1 when none is elected.
	syncPeer int
	// inflight maps each requested-but-undelivered body to its
	// assignment; perPeer counts assignments per peer id.
	inflight map[chainhash.Hash]*bodyReq
	perPeer  map[int]int
}

func newSyncMgr() *syncMgr {
	return &syncMgr{
		syncPeer: -1,
		inflight: make(map[chainhash.Hash]*bodyReq),
		perPeer:  make(map[int]int),
	}
}

// decPeerLocked drops one assignment count for id.
func (sm *syncMgr) decPeerLocked(id int) {
	if c := sm.perPeer[id]; c <= 1 {
		delete(sm.perPeer, id)
	} else {
		sm.perPeer[id] = c - 1
	}
}

// expireLocked frees assignments older than maxAge: the assigned peer
// went silent without tripping the stall detector (or its delivery was
// lost), and the slot must not stay wedged forever.
func (sm *syncMgr) expireLocked(now time.Time, maxAge time.Duration) {
	for h, req := range sm.inflight {
		if now.Sub(req.at) > maxAge {
			delete(sm.inflight, h)
			sm.decPeerLocked(req.peerID)
		}
	}
}

// release frees the given assignments (a failed send).
func (sm *syncMgr) release(hashes []chainhash.Hash) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	for _, h := range hashes {
		if req, ok := sm.inflight[h]; ok {
			delete(sm.inflight, h)
			sm.decPeerLocked(req.peerID)
		}
	}
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
	sm := n.sync
	sm.mu.Lock()
	inflight := len(sm.inflight)
	peers := len(sm.perPeer)
	sm.mu.Unlock()
	return SyncStatus{
		HeaderHeight:   n.chain.HeaderHeight(),
		Height:         n.chain.BestHeight(),
		InflightBodies: inflight,
		DownloadPeers:  peers,
		ParkedBodies:   n.chain.ParkedCount(),
	}
}

// inflightPerPeer returns the per-peer assignment counts (for the
// labeled telemetry gauge).
func (n *Node) inflightPerPeer() map[int]int {
	sm := n.sync
	sm.mu.Lock()
	defer sm.mu.Unlock()
	out := make(map[int]int, len(sm.perPeer))
	for id, c := range sm.perPeer {
		out[id] = c
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

// onPeerReady runs once per peer when its handshake completes: the
// first ready peer is elected sync peer and asked for the skeleton, and
// every new peer is immediately eligible for body downloads.
func (n *Node) onPeerReady(p *Peer) {
	p.mu.Lock()
	started := p.syncStarted
	p.syncStarted = true
	p.mu.Unlock()
	if started {
		return
	}
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

// releaseSyncSlots frees every assignment held by p and reports whether
// p was the sync peer (the caller then elects a replacement).
func (n *Node) releaseSyncSlots(p *Peer) bool {
	sm := n.sync
	sm.mu.Lock()
	defer sm.mu.Unlock()
	for h, req := range sm.inflight {
		if req.peerID == p.id {
			delete(sm.inflight, h)
		}
	}
	delete(sm.perPeer, p.id)
	if sm.syncPeer == p.id {
		sm.syncPeer = -1
		return true
	}
	return false
}

// syncDelivered frees the download slot for hash on any delivery
// (valid, invalid or duplicate — the assignment is settled either way).
func (n *Node) syncDelivered(hash chainhash.Hash) {
	sm := n.sync
	sm.mu.Lock()
	if req, ok := sm.inflight[hash]; ok {
		delete(sm.inflight, hash)
		sm.decPeerLocked(req.peerID)
	}
	sm.mu.Unlock()
}

// reserveBody claims hash for p from the inv gossip path, so an
// announced block is not also scheduled by the window refill (and two
// announcing peers are not both asked). False when already assigned to
// another peer. An announcement from the peer already holding the
// assignment refreshes it and re-requests: the earlier getdata may have
// raced ahead of the peer's own body download, in which case the inv is
// the signal that the body is now actually available.
func (n *Node) reserveBody(p *Peer, hash chainhash.Hash, now time.Time) bool {
	sm := n.sync
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if req, busy := sm.inflight[hash]; busy {
		if req.peerID == p.id {
			req.at = now
			return true
		}
		return false
	}
	sm.inflight[hash] = &bodyReq{peerID: p.id, at: now}
	sm.perPeer[p.id]++
	return true
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
// spreads across peers. Requests go through each peer's existing
// request tracking, so the stall detector and solicited-delivery
// classification cover scheduled downloads unchanged.
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
	sm.expireLocked(now, 2*pol.StallTimeout)
	next := 0
	for _, nb := range need {
		if _, busy := sm.inflight[nb.Hash]; busy {
			continue
		}
		// need was read before sm.mu was taken. A delivery stores its
		// body before it frees the slot, so a body that is no longer in
		// flight may have landed since: fetching it again would download
		// it twice.
		if n.chain.HaveBlock(nb.Hash) {
			continue
		}
		var target *Peer
		for range ready {
			i := next % len(ready)
			p := ready[i]
			next++
			if servable[i] >= nb.Height && sm.perPeer[p.id] < pol.SyncWindow &&
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
		sm.inflight[nb.Hash] = &bodyReq{peerID: target.id, at: now}
		sm.perPeer[target.id]++
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
		if err := p.send(wire.CmdGetData, wire.EncodeInv(invs)); err != nil {
			n.logDebug("body request send failed", "peer", p.id, "err", err)
			sm.release(hashes)
		}
	}
}
