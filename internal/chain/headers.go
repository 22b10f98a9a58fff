package chain

// Headers-first synchronization. Headers are cheap to validate (80
// bytes: proof of work, linkage, difficulty schedule, timestamps) so a
// syncing node first extends a best-header skeleton from its peers, then
// downloads block bodies for the skeleton in parallel from many peers
// and connects them in height order. The block index therefore holds
// nodes whose body has not arrived yet, the best-header tip runs ahead
// of the fully-connected tip, and bodies that arrive before their
// predecessor has been accepted are parked on their node until the gap
// fills. A body is held only on a validated header or an accepted
// parent: one that brings neither is dropped, and is fetched again
// once its header connects.
//
// Every body is accepted onto the node its header created, so the header
// tip's work is always >= the connected tip's work.

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"sort"
	"time"

	"typecoin/internal/chainhash"
	"typecoin/internal/store"
	"typecoin/internal/wire"
)

// ErrOrphanHeader reports a header whose parent is not in the block
// index: the skeleton a peer sent does not connect to anything we know.
var ErrOrphanHeader = errors.New("chain: header does not connect")

// errKnownInvalid reports a block or header already flagged failed, or
// one that extends a flagged block.
var errKnownInvalid = errors.New("chain: block or ancestor failed validation")

// Parked-body bounds, the chain's only bound on bodies that cannot
// connect yet (a body with neither a known header nor an accepted parent
// is never held). Parked blocks have validated headers (real proof of
// work on their chain), so they are hard to fabricate, but the set is
// still capped: a sliding-window download can legitimately hold a few
// windows' worth of out-of-order bodies, not an unbounded backlog.
const (
	defaultMaxParked      = 4096
	defaultMaxParkedBytes = 32 << 20
)

// checkHeaderContext validates hdr against its parent: proof of work
// against its own claimed bits, the difficulty schedule, and the
// timestamp rules, applied to the skeleton before any body is trusted.
func (c *Chain) checkHeaderContext(hdr *wire.BlockHeader, parent *blockNode) error {
	if err := CheckProofOfWork(hdr.BlockHash(), hdr.Bits, c.params.PowLimit); err != nil {
		return fmt.Errorf("%w: %v", ErrBadProofOfWork, err)
	}
	wantBits := c.nextRequiredDifficulty(parent)
	if hdr.Bits != wantBits {
		return fmt.Errorf("%w: header bits %08x, want %08x", ErrBadProofOfWork,
			hdr.Bits, wantBits)
	}
	if !hdr.Timestamp.After(parent.medianTimePast()) {
		return ErrTimeTooOld
	}
	if hdr.Timestamp.After(c.clock.Now().Add(maxFutureBlockTime)) {
		return ErrTimeTooNew
	}
	return nil
}

// nextRequiredDifficulty computes the difficulty for the block following
// parent. Headers carry everything retargeting needs, so it works above
// the connected tip.
func (c *Chain) nextRequiredDifficulty(parent *blockNode) uint32 {
	if c.params.NoRetarget || c.params.RetargetInterval <= 0 {
		return c.params.PowLimitBits
	}
	nextHeight := parent.height + 1
	if nextHeight%c.params.RetargetInterval != 0 {
		return parent.header.Bits
	}
	// Walk back to the first block of the window.
	first := parent
	for i := 0; i < c.params.RetargetInterval-1 && first.parent != nil; i++ {
		first = first.parent
	}
	actual := parent.header.Timestamp.Sub(first.header.Timestamp)
	target := c.params.TargetTimespan
	// Clamp adjustment to 4x in either direction, as Bitcoin does.
	if actual < target/4 {
		actual = target / 4
	}
	if actual > target*4 {
		actual = target * 4
	}
	oldTarget := CompactToBig(parent.header.Bits)
	newTarget := new(big.Int).Mul(oldTarget, big.NewInt(int64(actual/time.Second)))
	newTarget.Div(newTarget, big.NewInt(int64(target/time.Second)))
	if newTarget.Cmp(c.params.PowLimit) > 0 {
		newTarget.Set(c.params.PowLimit)
	}
	return BigToCompact(newTarget)
}

// linkNode builds the index entry for hdr under parent; height and work
// derive from the parent.
func linkNode(hash chainhash.Hash, hdr *wire.BlockHeader, parent *blockNode) *blockNode {
	return &blockNode{
		hash:    hash,
		parent:  parent,
		height:  parent.height + 1,
		workSum: new(big.Int).Add(parent.workSum, CalcWork(hdr.Bits)),
		header:  *hdr,
	}
}

// acceptHeaderLocked validates hdr and adds a header-only node for it to
// the block index, staging its store row for the next commit batch and
// advancing the best-header tip. Known headers return their existing
// node; the parent must already be indexed. Callers hold c.mu.
func (c *Chain) acceptHeaderLocked(hdr *wire.BlockHeader) (*blockNode, error) {
	hash := hdr.BlockHash()
	if node, known := c.index[hash]; known {
		if node.failed {
			return nil, fmt.Errorf("%w: %s", errKnownInvalid, hash)
		}
		return node, nil
	}
	parent, ok := c.index[hdr.PrevBlock]
	if !ok {
		return nil, fmt.Errorf("%w: %s links to unknown %s", ErrOrphanHeader, hash, hdr.PrevBlock)
	}
	if parent.failed {
		return nil, fmt.Errorf("%w: %s extends %s", errKnownInvalid, hash, parent.hash)
	}
	if err := c.checkHeaderContext(hdr, parent); err != nil {
		return nil, err
	}
	node := linkNode(hash, hdr, parent)
	c.index[hash] = node
	c.hdrDirty = append(c.hdrDirty, node)
	if c.betterHeader(node, c.headerTip) {
		c.setHeaderTipLocked(node)
	}
	c.tel.headersAcc.Inc()
	return node, nil
}

// betterHeader reports whether n should replace best as the best-header
// tip: more work wins; on equal work the connected tip wins, then the
// lower hash. The order depends on nothing but the index and the
// connected tip, so a restart (which rebuilds the index in map order)
// selects the same tip the running node held.
func (c *Chain) betterHeader(n, best *blockNode) bool {
	switch cmp := n.workSum.Cmp(best.workSum); {
	case cmp != 0:
		return cmp > 0
	case n == c.tip || best == c.tip:
		return n == c.tip
	default:
		return bytes.Compare(n.hash[:], best.hash[:]) < 0
	}
}

// selectHeaderTipLocked recomputes the best-header tip over every node
// not flagged failed.
func (c *Chain) selectHeaderTipLocked() {
	best := c.tip
	for _, n := range c.index {
		if !n.failed && c.betterHeader(n, best) {
			best = n
		}
	}
	c.setHeaderTipLocked(best)
}

// setHeaderTipLocked moves the best-header tip to n and reconciles the
// by-height view: walk n's ancestry down until it rejoins the existing
// best header chain, rewriting only the divergent suffix.
func (c *Chain) setHeaderTipLocked(n *blockNode) {
	c.headerTip = n
	if len(c.bestHeaders) > n.height+1 {
		c.bestHeaders = c.bestHeaders[:n.height+1]
	}
	for len(c.bestHeaders) < n.height+1 {
		c.bestHeaders = append(c.bestHeaders, nil)
	}
	for ; n != nil && c.bestHeaders[n.height] != n; n = n.parent {
		c.bestHeaders[n.height] = n
	}
}

// onBestHeaders reports whether n is on the best header chain.
func (c *Chain) onBestHeaders(n *blockNode) bool {
	return n.height < len(c.bestHeaders) && c.bestHeaders[n.height] == n
}

// markFailedLocked flags node, whose body broke a consensus rule, and
// every indexed descendant: none of them can ever join the main chain.
// Their parked bodies are dropped and the best-header tip moves off the
// branch, so the body schedule stops naming it.
func (c *Chain) markFailedLocked(node *blockNode) {
	node.failed = true
	for _, n := range c.index {
		a := n
		for a.height > node.height && !a.failed {
			a = a.parent
		}
		n.failed = a.failed
	}
	kept := c.parked[:0]
	for _, n := range c.parked {
		if n.failed {
			c.unparkLocked(n)
		} else {
			kept = append(kept, n)
		}
	}
	c.parked = kept
	if c.headerTip.failed {
		c.selectHeaderTipLocked()
	}
}

// stageHeaderRows moves accepted-but-unpersisted header rows into b.
// Every commit batch drains the staging list, so header rows ride the
// same atomic batches as the state they justify (and a headers-only
// batch in ProcessHeaders when no body commit is in flight).
func (c *Chain) stageHeaderRows(b *store.Batch) {
	for _, n := range c.hdrDirty {
		b.Put(keyHeader(n.hash), n.header.Bytes())
	}
	c.hdrDirty = c.hdrDirty[:0]
}

// ProcessHeaders validates a batch of headers (in order) against the
// block index, persisting accepted ones as one atomic batch. It returns
// how many of the headers are now indexed (including ones already known)
// and the first validation error, if any. A header whose parent is
// unknown fails with ErrOrphanHeader, which the p2p layer treats as a
// stale-locator signal rather than hostility.
func (c *Chain) ProcessHeaders(headers []wire.BlockHeader) (int, error) {
	if len(headers) == 0 {
		return 0, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	accepted := 0
	var firstErr error
	for i := range headers {
		if _, err := c.acceptHeaderLocked(&headers[i]); err != nil {
			firstErr = err
			break
		}
		accepted++
	}
	if len(c.hdrDirty) > 0 {
		b := store.NewBatch()
		c.stageHeaderRows(b)
		if err := c.applyBatch(b); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return accepted, firstErr
}

// HeaderHeight returns the height of the best-header tip. It is >= the
// connected BestHeight; the gap is the sync backlog.
func (c *Chain) HeaderHeight() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.headerTip.height
}

// HeaderTipHash returns the hash of the best-header tip.
func (c *Chain) HeaderTipHash() chainhash.Hash {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.headerTip.hash
}

// HeaderLocator builds a block locator over the best header chain:
// recent hashes densely, then exponentially sparser back to genesis.
// This is what getheaders requests carry — it must reflect the header
// skeleton, not just connected bodies, or a restarted node would refetch
// headers it already validated.
func (c *Chain) HeaderLocator() []chainhash.Hash {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []chainhash.Hash
	step := 1
	for h := c.headerTip.height; h >= 0; h -= step {
		out = append(out, c.bestHeaders[h].hash)
		if len(out) >= 10 {
			step *= 2
		}
	}
	if out[len(out)-1] != c.bestHeaders[0].hash {
		out = append(out, c.bestHeaders[0].hash)
	}
	return out
}

// HeadersAfter returns up to limit best-header-chain headers after the
// first locator hash found on the best header chain (genesis if none
// match) — the serving side of getheaders. Serving stops at the first
// skeleton entry whose body this node cannot itself serve: a header a
// peer accepts makes this node a download target for its body, and
// relaying an unbacked skeleton would both amplify a body-withholding
// attack and earn this node the attacker's stall penalties.
func (c *Chain) HeadersAfter(locator []chainhash.Hash, limit int) []wire.BlockHeader {
	c.mu.RLock()
	defer c.mu.RUnlock()
	start := 0
	for _, h := range locator {
		if n, ok := c.index[h]; ok && c.onBestHeaders(n) {
			start = n.height
			break
		}
	}
	var out []wire.BlockHeader
	for h := start + 1; h <= c.headerTip.height && len(out) < limit; h++ {
		n := c.bestHeaders[h]
		if n.status != statusAccepted {
			break
		}
		out = append(out, n.header)
	}
	return out
}

// NeededBody is one body the header skeleton still needs, with the
// height its header occupies on the best header chain — the download
// scheduler matches it against each peer's servable height.
type NeededBody struct {
	Hash   chainhash.Hash
	Height int
}

// NextNeededBodies returns up to max blocks, in height order, whose
// headers are on the best header chain above the connected chain's fork
// point with it but whose bodies this node has not yet seen. This
// drives the download scheduler: bodies are fetched in skeleton order,
// not inbound announcement order.
func (c *Chain) NextNeededBodies(max int) []NeededBody {
	c.mu.RLock()
	defer c.mu.RUnlock()
	// Find the fork point between the connected tip and the best header
	// chain; everything above it is the sync backlog.
	fork := c.tip
	for !c.onBestHeaders(fork) {
		fork = fork.parent
	}
	var out []NeededBody
	for h := fork.height + 1; h <= c.headerTip.height && len(out) < max; h++ {
		if n := c.bestHeaders[h]; n.block == nil {
			out = append(out, NeededBody{Hash: n.hash, Height: h})
		}
	}
	return out
}

// ServableHeight reports how far up the current best header chain a
// peer whose best announced header is bestKnown can serve bodies: the
// height of bestKnown's highest ancestor on the skeleton (bestKnown
// itself when it is on the skeleton). Zero when the header is unknown —
// an unverified claim earns no download assignments, so a peer that is
// behind, on a different fork, or silent is never charged a stall for
// bodies it never claimed to have.
func (c *Chain) ServableHeight(bestKnown chainhash.Hash) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for n := c.index[bestKnown]; n != nil; n = n.parent {
		if c.onBestHeaders(n) {
			return n.height
		}
	}
	return 0
}

// ParkedCount returns the number of bodies parked awaiting their
// predecessors.
func (c *Chain) ParkedCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.parked)
}

// parkBlockLocked holds a body on its header-only node until the
// predecessor body is accepted. Past the pool bounds the block is
// dropped instead: NextNeededBodies will list it again and the
// scheduler refetches it once the backlog drains.
func (c *Chain) parkBlockLocked(node *blockNode, blk *wire.MsgBlock) {
	size := int64(len(blk.Bytes()))
	if len(c.parked)+1 > defaultMaxParked || c.parkedBytes+size > defaultMaxParkedBytes {
		return
	}
	node.block, node.status = blk, statusParked
	c.parked = append(c.parked, node)
	c.parkedBytes += size
	c.tel.parked.Inc()
}

// unparkLocked takes the parked body off node, which returns to
// header-only. The caller removes node from c.parked.
func (c *Chain) unparkLocked(node *blockNode) *wire.MsgBlock {
	blk := node.block
	node.block, node.status = nil, statusHeaderOnly
	c.parkedBytes -= int64(len(blk.Bytes()))
	return blk
}

// adoptParked accepts parked bodies whose predecessors have been
// accepted, lowest height first (deterministically — arrival order must
// not influence which sibling connects first), cascading until no
// parked block can make progress. Callers hold c.mu.
func (c *Chain) adoptParked() []Notification {
	var events []Notification
	for {
		var ready []*blockNode
		waiting := c.parked[:0]
		for _, n := range c.parked {
			if n.parent.status == statusAccepted {
				ready = append(ready, n)
			} else {
				waiting = append(waiting, n)
			}
		}
		c.parked = waiting
		if len(ready) == 0 {
			return events
		}
		sort.Slice(ready, func(i, j int) bool {
			if ready[i].height != ready[j].height {
				return ready[i].height < ready[j].height
			}
			return bytes.Compare(ready[i].hash[:], ready[j].hash[:]) < 0
		})
		for _, n := range ready {
			if _, evs, err := c.acceptBlock(c.unparkLocked(n), n.parent); err == nil {
				events = append(events, evs...)
			}
		}
	}
}
