package chain

import (
	"errors"
	"fmt"
	"math/big"
	"sort"
	"sync"
	"time"

	"typecoin/internal/chainhash"
	"typecoin/internal/clock"
	"typecoin/internal/par"
	"typecoin/internal/sigcache"
	"typecoin/internal/store"
	"typecoin/internal/telemetry"
	"typecoin/internal/wire"
)

// blockNode is one entry of the block index: a validated header and, once
// it arrives, the body. "Each block contains a cryptographic hash of the
// previous block, thereby turning the set into a tree"; chain selection
// makes the tree behave as a list.
type blockNode struct {
	hash    chainhash.Hash
	parent  *blockNode
	height  int
	workSum *big.Int // cumulative work from genesis
	header  wire.BlockHeader
	block   *wire.MsgBlock // nil while status is statusHeaderOnly
	status  nodeStatus
	inMain  bool
	// failed marks a body that broke a consensus rule, or a descendant of
	// one. It is resident only (no store row): a restarted node re-learns
	// it from the first re-delivery.
	failed bool
}

// nodeStatus is how far a block has come: header validated, body held
// until its predecessor is accepted, body accepted into the block tree
// (main or side chain, and persisted).
type nodeStatus uint8

const (
	statusHeaderOnly nodeStatus = iota
	statusParked
	statusAccepted
)

// medianTimePast computes the median timestamp of the last
// medianTimeBlocks ancestors (including the node itself).
func (n *blockNode) medianTimePast() time.Time {
	times := make([]time.Time, 0, medianTimeBlocks)
	for iter := n; iter != nil && len(times) < medianTimeBlocks; iter = iter.parent {
		times = append(times, iter.header.Timestamp)
	}
	sort.Slice(times, func(i, j int) bool { return times[i].Before(times[j]) })
	return times[len(times)/2]
}

// Notification describes a main-chain change delivered to subscribers.
type Notification struct {
	// Connected is true when Block joined the main chain, false when it
	// was disconnected during a reorganization.
	Connected bool
	Block     *wire.MsgBlock
	Height    int
}

// txLoc places a main-chain transaction: the block containing it and its
// position within that block's transaction list. Recording the index
// makes transaction retrieval O(1) instead of a hash-per-transaction
// scan of the block.
type txLoc struct {
	block chainhash.Hash
	index int
}

// Chain is the blockchain state machine for one node. It tracks the full
// block tree, selects the best chain by accumulated work, and maintains
// the UTXO table and spent-journal for the best chain. All methods are
// safe for concurrent use.
type Chain struct {
	params *Params
	clock  clock.Clock

	// sigCache caches successful signature verifications across the
	// mempool (relay time) and block connect; may be nil. It has its own
	// internal lock and is read by parallel script workers.
	sigCache *sigcache.Cache

	// st is the persistence engine. The resident maps below are the
	// working state; every main-chain mutation is also committed to st
	// as one atomic batch before it takes effect, and Open rebuilds the
	// maps on restart by folding the stored main-chain blocks.
	st store.Store
	// persisters contribute subsystem rows (the chain index's) to each
	// commit batch; they run under mu while the batch is built.
	persisters []PersistFunc

	mu          sync.RWMutex
	index       map[chainhash.Hash]*blockNode // every validated header, with or without its body
	tip         *blockNode                    // connected main-chain tip
	mainChain   []*blockNode                  // connected main chain by height
	headerTip   *blockNode                    // best-header tip; work >= tip's (see headers.go)
	bestHeaders []*blockNode                  // best header chain by height
	hdrDirty    []*blockNode                  // accepted headers awaiting a commit batch
	parked      []*blockNode                  // nodes holding a body that awaits its predecessor
	parkedBytes int64
	utxo        *UtxoView // main-chain unspent txouts; guarded by mu
	spent       map[wire.OutPoint]SpendRecord
	txToBlock   map[chainhash.Hash]txLoc // main-chain txid -> location

	// tel carries the registered collectors; the zero value (all nil
	// pointers) disables instrumentation. See telemetry.go.
	tel chainTelemetry

	subsMu sync.Mutex
	subs   []func(Notification)
}

// Params returns the chain's parameters.
func (c *Chain) Params() *Params { return c.params }

// Clock returns the chain's time source, shared with layers (p2p ban
// bookkeeping, mempool fee floor decay) that must agree with the chain
// about what "now" means — in simulation, virtual time.
func (c *Chain) Clock() clock.Clock { return c.clock }

// SigCache returns the signature verification cache so the mempool can
// share it; may be nil.
func (c *Chain) SigCache() *sigcache.Cache { return c.sigCache }

// Subscribe registers fn to receive main-chain change notifications. The
// callback runs synchronously after the chain mutation completes, in
// chain order; it must not call back into Chain mutation methods.
func (c *Chain) Subscribe(fn func(Notification)) {
	c.subsMu.Lock()
	defer c.subsMu.Unlock()
	c.subs = append(c.subs, fn)
}

func (c *Chain) notify(events []Notification) {
	c.subsMu.Lock()
	subs := make([]func(Notification), len(c.subs))
	copy(subs, c.subs)
	c.subsMu.Unlock()
	for _, ev := range events {
		for _, fn := range subs {
			fn(ev)
		}
	}
}

// BlockStatus reports how ProcessBlock disposed of a block.
type BlockStatus int

const (
	// StatusInvalid means the block failed validation.
	StatusInvalid BlockStatus = iota
	// StatusMainChain means the block extended or reorganized onto the
	// best chain.
	StatusMainChain
	// StatusSideChain means the block was stored on a side branch.
	StatusSideChain
	// StatusOrphan means neither the block's header nor its parent body
	// is known; the body is dropped, not held. The p2p layer asks the
	// sender for the headers above it and fetches the body again once
	// its header connects.
	StatusOrphan
	// StatusDuplicate means the block was already known.
	StatusDuplicate
	// StatusParked means the block's header is validated on the best
	// header chain but its predecessor body has not connected yet; the
	// body is held and connected in order (headers-first sync delivers
	// bodies out of order).
	StatusParked
)

// String names the status.
func (s BlockStatus) String() string {
	switch s {
	case StatusMainChain:
		return "main chain"
	case StatusSideChain:
		return "side chain"
	case StatusOrphan:
		return "orphan"
	case StatusDuplicate:
		return "duplicate"
	case StatusParked:
		return "parked"
	default:
		return "invalid"
	}
}

// ProcessBlock validates blk and incorporates it into the block tree,
// reorganizing the main chain if the block's branch carries more work.
// A body is held only on a node whose header is validated (parked until
// its predecessor is accepted) or whose parent body is accepted; any
// other body is dropped as StatusOrphan.
func (c *Chain) ProcessBlock(blk *wire.MsgBlock) (BlockStatus, error) {
	hash := blk.BlockHash()
	if c.tel.tracer != nil {
		c.tel.tracer.Record(telemetry.EvBlockSeen, hash.String(), "")
	}
	// First sight starts the block's latency span; the connect stage (or
	// eviction from the bounded store) ends its life cycle.
	c.tel.spans.Record(telemetry.SpanBlock, hash, telemetry.StageFirstSeen)
	c.mu.Lock()
	status, events, err := c.processLocked(blk)
	c.mu.Unlock()
	c.recordStatus(hash, status, err)
	if len(events) > 0 {
		c.notify(events)
	}
	return status, err
}

func (c *Chain) processLocked(blk *wire.MsgBlock) (BlockStatus, []Notification, error) {
	hash := blk.BlockHash()
	node := c.index[hash]
	if node != nil {
		if node.failed {
			return StatusInvalid, nil, fmt.Errorf("%w: %s", errKnownInvalid, hash)
		}
		if node.status == statusAccepted {
			return StatusDuplicate, nil, nil
		}
	}
	if err := c.checkBlockSanity(blk); err != nil {
		return StatusInvalid, nil, err
	}
	parent := c.index[blk.Header.PrevBlock]
	if parent == nil || parent.status != statusAccepted {
		switch {
		case node == nil:
			// Nothing vouches for a body whose header and parent body are
			// both unknown: it is not held.
			return StatusOrphan, nil, nil
		case node.status == statusParked:
			return StatusDuplicate, nil, nil
		}
		// A body ahead of the connected chain whose header is already
		// validated is parked: the skeleton vouches for it, and the
		// download scheduler delivers bodies out of order by design.
		c.parkBlockLocked(node, blk)
		return StatusParked, nil, nil
	}
	status, events, err := c.acceptBlock(blk, parent)
	if err != nil {
		return status, events, err
	}
	// Adopt any parked bodies the new connection unblocked.
	events = append(events, c.adoptParked()...)
	return status, events, nil
}

// acceptBlock adds a body whose parent is accepted, on the node its
// header created. Contextual validation (difficulty schedule, timestamps)
// is header validation: a body whose header the skeleton already
// validated is not re-checked, and a body arriving ahead of its header
// indexes the header as a side effect. A body the chain turns down leaves
// its node header-only, flagged failed if it broke a consensus rule.
func (c *Chain) acceptBlock(blk *wire.MsgBlock, parent *blockNode) (BlockStatus, []Notification, error) {
	node, err := c.acceptHeaderLocked(&blk.Header)
	if err != nil {
		return StatusInvalid, nil, err
	}
	node.block = blk
	status := StatusMainChain
	var events []Notification
	switch {
	case node.workSum.Cmp(c.tip.workSum) <= 0:
		// Not enough work to become the best chain: store on the side.
		// Side blocks are persisted too (a restart must still be able to
		// reorganize onto them), but outside any commit batch — they
		// carry no state of their own.
		status, err = StatusSideChain, c.persistSideBlock(node)
	case parent == c.tip:
		events, err = c.connectBlock(node)
	default:
		// The new block's branch has more work than the current tip.
		events, err = c.reorganize(node)
	}
	if err != nil {
		node.block = nil
		return StatusInvalid, events, err
	}
	node.status = statusAccepted
	return status, events, nil
}

// applyBlock folds node's block into the main chain's derived state.
// Transaction by transaction, in block order, check (when non-nil)
// validates the transaction against the table as it stands; then a
// non-coinbase transaction's inputs move from utxo into spent and its
// outputs enter utxo and txToBlock. It returns the entries consumed, in
// spend order, and how many transactions it added — also when it fails
// part-way, so the caller rolls back exactly what it did. connectBlock
// passes its validation; load and bootstrap fold stored blocks
// unvalidated.
func (c *Chain) applyBlock(node *blockNode, check func(i int, tx *wire.MsgTx) error) ([]SpentOutput, int, error) {
	var spent []SpentOutput
	for i, tx := range node.block.Transactions {
		txid := tx.TxHash()
		if check != nil {
			if err := check(i, tx); err != nil {
				return spent, i, err
			}
		}
		if i > 0 {
			for j, in := range tx.TxIn {
				entry, err := c.utxo.spend(in.PreviousOutPoint)
				if err != nil {
					return spent, i, err
				}
				spent = append(spent, SpentOutput{OutPoint: in.PreviousOutPoint, Entry: entry})
				c.spent[in.PreviousOutPoint] = SpendRecord{
					SpentBy: wire.OutPoint{Hash: txid, Index: uint32(j)},
					Spender: txid,
					Height:  node.height,
				}
			}
		}
		c.utxo.add(tx, node.height)
		c.txToBlock[txid] = txLoc{block: node.hash, index: i}
	}
	return spent, len(node.block.Transactions), nil
}

// unapplyBlock reverses applyBlock for the transactions it added, txs,
// which consumed spent: restore the spent entries first, then remove
// the transactions' outputs, so an outpoint created and consumed within
// the block is restored and then correctly deleted again. A transaction
// applyBlock did not add is not touched: its txid may name an output
// another block created.
func (c *Chain) unapplyBlock(txs []*wire.MsgTx, spent []SpentOutput) {
	for i := len(spent) - 1; i >= 0; i-- {
		c.utxo.restore(spent[i].OutPoint, spent[i].Entry)
		delete(c.spent, spent[i].OutPoint)
	}
	for _, tx := range txs {
		c.utxo.remove(tx)
		delete(c.txToBlock, tx.TxHash())
	}
}

// connectBlock attaches node (whose parent is the current tip) to the
// main chain, updating the UTXO table, spent journal and indexes.
//
// Validation runs as a two-phase pipeline. Phase one walks transactions
// in block order through applyBlock — spends may chain within a block,
// so input resolution and UTXO mutation stay serial and ordered —
// checking amounts/maturity, spending inputs, adding outputs, and
// capturing one script job per input with the locking script it
// resolved. Phase two runs all captured script/signature checks through
// par.Do (consulting the shared signature cache), failing fast; on
// failure the phase-one mutations are rolled back. A body that fails
// either phase is flagged failed; a store that refuses the commit says
// nothing about the body, so that path leaves the flag alone.
func (c *Chain) connectBlock(node *blockNode) ([]Notification, error) {
	start := time.Now()
	blk := node.block
	var totalFees int64
	var jobs []scriptJob
	spent, applied, err := c.applyBlock(node, func(i int, tx *wire.MsgTx) error {
		// One main-chain transaction per txid: txToBlock, and with it
		// every disconnect's derived undo list, depends on it.
		if _, dup := c.txToBlock[tx.TxHash()]; dup {
			return fmt.Errorf("%w: %s is already on the main chain", ErrDuplicateTx, tx.TxHash())
		}
		if i == 0 {
			return nil
		}
		fee, entries, err := CheckTransactionInputs(tx, node.height, c.utxo, c.params.CoinbaseMaturity)
		if err != nil {
			return err
		}
		totalFees += fee
		for j := range tx.TxIn {
			jobs = append(jobs, scriptJob{tx: tx, in: j, pkScript: entries[j].Out.PkScript})
		}
		return nil
	})
	reject := func(err error) ([]Notification, error) {
		c.unapplyBlock(blk.Transactions[:applied], spent)
		c.markFailedLocked(node)
		return nil, err
	}
	if err != nil {
		return reject(err)
	}

	// Coinbase value check: subsidy plus fees.
	var cbOut int64
	for _, out := range blk.Transactions[0].TxOut {
		cbOut += out.Value
	}
	if maxOut := c.params.CalcBlockSubsidy(node.height) + totalFees; cbOut > maxOut {
		return reject(fmt.Errorf("%w: coinbase pays %d, max %d", ErrBadCoinbase, cbOut, maxOut))
	}

	// Phase two: parallel script/signature verification of every input.
	// The jobs carry the resolved locking scripts, so they are independent
	// of the (already mutated) UTXO view. par.Do fails fast and returns
	// the failure earliest in block order, whatever the interleaving.
	scriptStart := time.Now()
	if err := par.Do(len(jobs), func(i int) error { return jobs[i].run(c.sigCache) }); err != nil {
		return reject(err)
	}
	if c.tel.scriptSeconds != nil {
		observeSince(c.tel.scriptSeconds, scriptStart)
		c.tel.scriptJobs.Add(uint64(len(jobs)))
	}

	// Durably commit the change as one atomic batch (block data, index
	// row, tip, subscriber rows) before the tip moves. If the store
	// refuses, the block is rejected and the resident maps are rolled
	// back — memory never runs ahead of disk.
	if err := c.commitConnect(node, spent); err != nil {
		c.unapplyBlock(blk.Transactions, spent)
		return nil, fmt.Errorf("chain: persist connect %s: %w", node.hash, err)
	}

	node.inMain = true
	c.tip = node
	c.mainChain = append(c.mainChain, node)
	if c.betterHeader(node, c.headerTip) {
		// The connected tip wins work ties on the best-header view.
		c.setHeaderTipLocked(node)
	}
	c.tel.connects.Inc()
	if c.tel.connectSeconds != nil {
		observeSince(c.tel.connectSeconds, start)
	}
	c.traceConnected(node)
	c.spanConnected(node)
	return []Notification{{Connected: true, Block: blk, Height: node.height}}, nil
}

// spentBy derives what node's block, on the main chain, consumed: for
// each input in block order, the entry the funding transaction created,
// read from the main-chain block txToBlock places it in. An intra-block
// spend resolves to node itself, so this must run while the block's own
// transactions are still in txToBlock.
func (c *Chain) spentBy(node *blockNode) ([]SpentOutput, error) {
	var spent []SpentOutput
	for _, tx := range node.block.Transactions[1:] {
		for _, in := range tx.TxIn {
			op := in.PreviousOutPoint
			src := c.mainNodeOf(op.Hash)
			if src == nil {
				return nil, fmt.Errorf("%w: %v spent at height %d has no main-chain source",
					ErrCorruptState, op, node.height)
			}
			funding := src.block.Transactions[c.txToBlock[op.Hash].index]
			if int(op.Index) >= len(funding.TxOut) {
				return nil, fmt.Errorf("%w: %v spent at height %d is out of range",
					ErrCorruptState, op, node.height)
			}
			spent = append(spent, SpentOutput{OutPoint: op, Entry: &UtxoEntry{
				Out:        *funding.TxOut[op.Index],
				Height:     src.height,
				IsCoinBase: funding.IsCoinBase(),
			}})
		}
	}
	return spent, nil
}

// disconnectBlock detaches the current tip from the main chain, undoing
// its UTXO and journal effects. What the block spent is derived from the
// resident main-chain blocks, identical on a node that just restarted,
// and the undoing batch is committed before any resident map changes,
// so a store failure leaves memory untouched.
func (c *Chain) disconnectBlock() (Notification, error) {
	start := time.Now()
	node := c.tip
	if node.parent == nil {
		return Notification{}, errors.New("chain: cannot disconnect genesis")
	}
	spent, err := c.spentBy(node)
	if err != nil {
		return Notification{}, err
	}
	if err := c.commitDisconnect(node, spent); err != nil {
		return Notification{}, fmt.Errorf("chain: persist disconnect %s: %w", node.hash, err)
	}
	c.unapplyBlock(node.block.Transactions, spent)
	node.inMain = false
	c.tip = node.parent
	c.mainChain = c.mainChain[:len(c.mainChain)-1]
	c.tel.disconnects.Inc()
	if c.tel.disconnectSeconds != nil {
		observeSince(c.tel.disconnectSeconds, start)
	}
	// Guard on the tracer itself, not a sibling histogram: Record is
	// nil-safe but its hash.String() argument is not free, and a node
	// with a tracer and no registry must still get the event.
	if c.tel.tracer != nil {
		c.tel.tracer.Record(telemetry.EvBlockDisconnected, node.hash.String(),
			fmt.Sprintf("height=%d", node.height))
	}
	return Notification{Connected: false, Block: node.block, Height: node.height}, nil
}

// reorganize switches the main chain to end at newTip. "The Bitcoin
// history is defined to be the longest branch in the tree" (Section 1) —
// more precisely, the branch with the most accumulated work.
func (c *Chain) reorganize(newTip *blockNode) ([]Notification, error) {
	// Collect the new branch back to the fork point with the main chain.
	var attach []*blockNode
	forkNode := newTip.parent
	for forkNode != nil && !forkNode.inMain {
		attach = append(attach, forkNode)
		forkNode = forkNode.parent
	}
	if forkNode == nil {
		return nil, errors.New("chain: reorg branch does not connect to main chain")
	}
	// attach is child-first; reverse to parent-first and append newTip.
	for i, j := 0, len(attach)-1; i < j; i, j = i+1, j-1 {
		attach[i], attach[j] = attach[j], attach[i]
	}
	attach = append(attach, newTip)

	var events []Notification
	// Disconnect main-chain blocks above the fork point, remembering them
	// in case the new branch proves invalid.
	var detached []*blockNode
	for c.tip != forkNode {
		detached = append(detached, c.tip)
		ev, err := c.disconnectBlock()
		if err != nil {
			return events, err
		}
		events = append(events, ev)
	}

	// Connect the new branch. If any block is invalid, roll back to the
	// original chain.
	for i, node := range attach {
		evs, err := c.connectBlock(node)
		if err != nil {
			// Undo the partial reorg: disconnect what we attached...
			for j := i - 1; j >= 0; j-- {
				ev, derr := c.disconnectBlock()
				if derr != nil {
					return events, fmt.Errorf("chain: reorg rollback failed: %v (after %w)", derr, err)
				}
				events = append(events, ev)
			}
			// ...and reconnect the original blocks (parent-first).
			for j := len(detached) - 1; j >= 0; j-- {
				evs2, rerr := c.connectBlock(detached[j])
				if rerr != nil {
					return events, fmt.Errorf("chain: reorg rollback failed: %v (after %w)", rerr, err)
				}
				events = append(events, evs2...)
			}
			return events, err
		}
		events = append(events, evs...)
	}
	c.tel.reorgs.Inc()
	c.tel.reorgDepth.Observe(float64(len(detached)))
	if c.tel.tracer != nil {
		c.tel.tracer.Record(telemetry.EvReorg, newTip.hash.String(),
			fmt.Sprintf("detached=%d attached=%d height=%d", len(detached), len(attach), newTip.height))
	}
	return events, nil
}

// NextRequiredDifficulty returns the difficulty bits required of the next
// block on the main chain.
func (c *Chain) NextRequiredDifficulty() uint32 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nextRequiredDifficulty(c.tip)
}

// BestHeight returns the height of the main-chain tip.
func (c *Chain) BestHeight() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tip.height
}

// BestHash returns the hash of the main-chain tip.
func (c *Chain) BestHash() chainhash.Hash {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tip.hash
}

// TipHeader returns the header of the main-chain tip.
func (c *Chain) TipHeader() wire.BlockHeader {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tip.header
}

// MedianTimePast returns the median-time-past of the tip, the monotone
// clock against which before(t) conditions are judged for new blocks.
func (c *Chain) MedianTimePast() time.Time {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tip.medianTimePast()
}

// Snapshot is a consistent view of the main-chain tip, taken under one
// lock acquisition. Callers that need several tip properties together
// (e.g. the miner pairing a parent hash with the next height) must use
// this rather than separate accessors, which may observe different tips.
type Snapshot struct {
	Hash       chainhash.Hash
	Height     int
	Bits       uint32   // difficulty bits of the tip block
	NextBits   uint32   // required difficulty of the block after the tip
	Work       *big.Int // cumulative work of the tip (caller-owned copy)
	MedianTime time.Time
}

// BestSnapshot returns a consistent snapshot of the main-chain tip.
func (c *Chain) BestSnapshot() Snapshot {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.snapshotLocked()
}

// snapshotLocked builds a tip snapshot. Callers must hold c.mu.
func (c *Chain) snapshotLocked() Snapshot {
	return Snapshot{
		Hash:       c.tip.hash,
		Height:     c.tip.height,
		Bits:       c.tip.header.Bits,
		NextBits:   c.nextRequiredDifficulty(c.tip),
		Work:       new(big.Int).Set(c.tip.workSum),
		MedianTime: c.tip.medianTimePast(),
	}
}

// LookupUtxo returns the unspent entry for op, or nil.
func (c *Chain) LookupUtxo(op wire.OutPoint) *UtxoEntry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e := c.utxo.Lookup(op)
	if e == nil {
		return nil
	}
	cp := *e
	return &cp
}

// UtxoSize returns the current size of the unspent-txout table (the
// Section 3.3 deadweight metric).
func (c *Chain) UtxoSize() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.utxo.Size()
}

// UtxoOutpoints returns every unspent outpoint, for wallet rescans.
func (c *Chain) UtxoOutpoints() []wire.OutPoint {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.utxo.Outpoints()
}

// IsSpent reports whether op was consumed on the main chain, and by whom.
// This is the "unambiguous evidence" backing the spent(txid.n) condition.
func (c *Chain) IsSpent(op wire.OutPoint) (SpendRecord, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	rec, ok := c.spent[op]
	return rec, ok
}

// Confirmations returns the number of blocks on the main chain that
// contain or build on the transaction: 1 when it is in the tip block, 0
// when unknown. A transaction with Confirmations >= Params.
// ConfirmationDepth+1 is confirmed in the paper's sense.
func (c *Chain) Confirmations(txid chainhash.Hash) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	node := c.mainNodeOf(txid)
	if node == nil {
		return 0
	}
	return c.tip.height - node.height + 1
}

// mainNodeOf resolves txid to its main-chain block node, or nil. Callers
// must hold c.mu.
func (c *Chain) mainNodeOf(txid chainhash.Hash) *blockNode {
	loc, ok := c.txToBlock[txid]
	if !ok {
		return nil
	}
	node := c.index[loc.block]
	if node == nil || !node.inMain {
		return nil
	}
	return node
}

// BlockOf returns the main-chain block containing txid along with its
// height.
func (c *Chain) BlockOf(txid chainhash.Hash) (*wire.MsgBlock, int, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	node := c.mainNodeOf(txid)
	if node == nil {
		return nil, 0, false
	}
	return node.block, node.height, true
}

// TxPosition returns a main-chain transaction's place in blockchain
// order: its block's height and its index within that block.
func (c *Chain) TxPosition(txid chainhash.Hash) (height, index int, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	node := c.mainNodeOf(txid)
	if node == nil {
		return 0, 0, false
	}
	return node.height, c.txToBlock[txid].index, true
}

// TxByID returns a main-chain transaction by id in O(1) via the location
// index, rather than rehashing every transaction of the containing block.
func (c *Chain) TxByID(txid chainhash.Hash) (*wire.MsgTx, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	node := c.mainNodeOf(txid)
	if node == nil {
		return nil, false
	}
	i := c.txToBlock[txid].index
	if i < 0 || i >= len(node.block.Transactions) {
		return nil, false
	}
	return node.block.Transactions[i], true
}

// BlockByHash returns any known block (main or side chain) by hash.
func (c *Chain) BlockByHash(h chainhash.Hash) (*wire.MsgBlock, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	node := c.index[h]
	if node == nil || node.status != statusAccepted {
		return nil, false
	}
	return node.block, true
}

// BlockAtHeight returns the main-chain block at the given height.
func (c *Chain) BlockAtHeight(h int) (*wire.MsgBlock, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if h < 0 || h >= len(c.mainChain) {
		return nil, false
	}
	return c.mainChain[h].block, true
}

// HaveBlock reports whether the block body is held (main, side or
// parked).
func (c *Chain) HaveBlock(h chainhash.Hash) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	node := c.index[h]
	return node != nil && node.block != nil
}
