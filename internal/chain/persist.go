package chain

// Chain persistence: the stored blocks are the only record of what the
// main chain did. Every main-chain mutation commits exactly one atomic
// store batch, and Open reloads the block index from the store and
// folds each main-chain block, in height order, into the UTXO table,
// the spend journal and the transaction index — the same fold connect
// performs, minus validation the blocks already passed. The same code
// path runs against the in-memory engine (tests, throwaway nodes) and
// the file engine (durable nodes); the only difference is whether the
// batch outlives the process.
//
// Key schema (single byte prefixes; fixed-width big-endian heights so
// lexicographic order is height order):
//
//	T                 -> tip hash + height
//	m + be32(height)  -> main-chain block hash at height
//	b + hash          -> BlockRef of the serialized block (main or side)
//	h + hash          -> 80-byte block header in the header index
//	                     (headers-first sync). Rows are written when the
//	                     header is accepted — which may be long before
//	                     its body arrives — so a crash mid-sync restarts
//	                     with header tip >= connected tip. Load also
//	                     derives headers from stored blocks, making the
//	                     rows redundant for blocks we hold; the
//	                     best-header tip itself is not stored but
//	                     recomputed as the maximum-work header on load.
//
// Disconnect derives what a block spent from the resident main-chain
// blocks that created it, so a reorg works identically on a node that
// just restarted. The chain index joins the same batch through
// SubscribePersist, so a crash can never commit a block without its
// matching index rows.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"time"

	"typecoin/internal/chainhash"
	"typecoin/internal/clock"
	"typecoin/internal/sigcache"
	"typecoin/internal/store"
	"typecoin/internal/wire"
)

// ErrCorruptState reports persistent chain state that fails integrity
// checks on load (bad linkage, missing blocks, checksum violations
// surfaced by the store).
var ErrCorruptState = errors.New("chain: corrupt persistent state")

// Key builders.

var keyTip = []byte("T")

func keyMain(height int) []byte {
	k := make([]byte, 5)
	k[0] = 'm'
	binary.BigEndian.PutUint32(k[1:], uint32(height))
	return k
}

func keyBlock(h chainhash.Hash) []byte { return append([]byte("b"), h[:]...) }

func keyHeader(h chainhash.Hash) []byte { return append([]byte("h"), h[:]...) }

// retiredFamilies are the derived-state rows earlier releases kept beside
// the blocks, in every package sharing the store: the chain's u (unspent
// outputs), s (spend journal) and U (per-block undo), the wallet's wu
// (its coins), the index's is (outpoint spends) and the ledger's ls
// (seen index) and la (applied markers). Each is now folded from the
// blocks; load drops any such row, so the upgrade lives here alone and
// the packages above the chain carry no upgrade code.
var retiredFamilies = [][]byte{[]byte("u"), []byte("s"), []byte("U"), []byte("wu"), []byte("is"), []byte("ls"), []byte("la")}

func encodeTip(h chainhash.Hash, height int) []byte {
	return binary.AppendUvarint(append([]byte(nil), h[:]...), uint64(height))
}

func decodeTip(b []byte) (chainhash.Hash, int, error) {
	var h chainhash.Hash
	if len(b) < len(h) {
		return h, 0, fmt.Errorf("%w: tip row is %d bytes", ErrCorruptState, len(b))
	}
	copy(h[:], b)
	height, n := binary.Uvarint(b[len(h):])
	if n <= 0 || n != len(b)-len(h) {
		return h, 0, fmt.Errorf("%w: bad tip height", ErrCorruptState)
	}
	return h, int(height), nil
}

func encodeBlockRef(ref store.BlockRef) []byte {
	out := make([]byte, 12)
	binary.LittleEndian.PutUint64(out[:8], ref.Offset)
	binary.LittleEndian.PutUint32(out[8:], ref.Len)
	return out
}

func decodeBlockRef(b []byte) (store.BlockRef, error) {
	if len(b) != 12 {
		return store.BlockRef{}, fmt.Errorf("%w: block ref is %d bytes", ErrCorruptState, len(b))
	}
	return store.BlockRef{
		Offset: binary.LittleEndian.Uint64(b[:8]),
		Len:    binary.LittleEndian.Uint32(b[8:]),
	}, nil
}

// SpentOutput pairs an outpoint a block consumed with the entry it
// held: what a connect's fold returns and a disconnect derives, and what
// persist subscribers see, in spend order.
type SpentOutput struct {
	OutPoint wire.OutPoint
	Entry    *UtxoEntry
}

// PersistEvent describes a main-chain change while its atomic commit
// batch is still open. Connected reports direction (like Notification);
// Spent lists the UTXO entries the block consumed (connect) or is
// giving back (disconnect), in spend order.
type PersistEvent struct {
	Connected bool
	Block     *wire.MsgBlock
	Height    int
	Spent     []SpentOutput
}

// PersistFunc contributes subsystem rows to the atomic batch committed
// for a main-chain change. It runs under the chain lock while the batch
// is assembled: it must not call back into Chain methods, and any
// subsystem locks it takes must never be held while waiting on the
// chain elsewhere.
type PersistFunc func(ev PersistEvent, b *store.Batch)

// SubscribePersist registers fn to contribute to every future commit
// batch; register before processing blocks. It returns the tip snapshot
// taken under the same lock acquisition: every main-chain change at
// heights above the snapshot is guaranteed to reach fn, and nothing at
// or below it will. A subsystem that builds derived state by scanning
// history (the chain indexer's bulk initial sync) uses this to know
// exactly where its scan must stop and its event-driven updates begin —
// with two separate calls a block could connect in between and be
// missed by both.
func (c *Chain) SubscribePersist(fn PersistFunc) Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.persisters = append(c.persisters, fn)
	return c.snapshotLocked()
}

// Store returns the store backing this chain, so sibling subsystems
// (wallet, ledger, mempool) persist into the same engine and share its
// durability.
func (c *Chain) Store() store.Store { return c.st }

// Config configures Open.
type Config struct {
	// Params selects the chain parameters; required.
	Params *Params
	// Clock provides time; nil means the system clock.
	Clock clock.Clock
	// SigCache is the shared signature-verification cache; nil disables
	// caching.
	SigCache *sigcache.Cache
	// Store is the persistence engine; nil means a fresh in-memory
	// store (the state dies with the process).
	Store store.Store
}

// New creates an in-memory chain containing only the genesis block of
// params, with a default-sized signature cache.
func New(params *Params, clk clock.Clock) *Chain {
	c, err := Open(Config{Params: params, Clock: clk, SigCache: sigcache.New(sigcache.DefaultCapacity)})
	if err != nil {
		// A fresh in-memory store has nothing to load, so Open cannot
		// fail on it.
		panic("chain: impossible in-memory open failure: " + err.Error())
	}
	return c
}

// Open creates a chain over cfg.Store, loading persisted state when the
// store holds any and bootstrapping genesis otherwise. Opening verifies
// the stored chain: genesis must match params, every main-chain block
// must hash-link to its parent, and the stored tip must be the last
// linked block — violations return ErrCorruptState rather than a
// half-loaded chain.
func Open(cfg Config) (*Chain, error) {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System{}
	}
	st := cfg.Store
	if st == nil {
		st = store.NewMem()
	}
	c := &Chain{
		params:    cfg.Params,
		clock:     clk,
		sigCache:  cfg.SigCache,
		st:        st,
		index:     make(map[chainhash.Hash]*blockNode),
		utxo:      NewUtxoView(),
		spent:     make(map[wire.OutPoint]SpendRecord),
		txToBlock: make(map[chainhash.Hash]txLoc),
	}
	hasTip, err := st.Has(keyTip)
	if err != nil {
		return nil, err
	}
	if !hasTip {
		if err := c.bootstrap(); err != nil {
			return nil, err
		}
	} else if err := c.load(); err != nil {
		return nil, err
	}
	return c, nil
}

// bootstrap initializes an empty store with the genesis block.
func (c *Chain) bootstrap() error {
	genesis := c.params.GenesisBlock
	gnode := &blockNode{
		hash:    genesis.BlockHash(),
		height:  0,
		workSum: CalcWork(genesis.Header.Bits),
		header:  genesis.Header,
		block:   genesis,
		status:  statusAccepted,
		inMain:  true,
	}
	c.index[gnode.hash] = gnode
	c.tip = gnode
	c.mainChain = []*blockNode{gnode}
	c.setHeaderTipLocked(gnode)

	b := store.NewBatch()
	ref, err := c.st.AppendBlock(genesis.Bytes())
	if err != nil {
		return err
	}
	b.Put(keyBlock(gnode.hash), encodeBlockRef(ref))
	b.Put(keyMain(0), gnode.hash[:])
	b.Put(keyTip, encodeTip(gnode.hash, 0))
	// Genesis outputs enter the UTXO table exactly as load's fold enters
	// them (ours is OP_RETURN, so in practice nothing does).
	if _, _, err := c.applyBlock(gnode, nil); err != nil {
		return err
	}
	return c.st.Apply(b)
}

// readBlock fetches and decodes a stored block by hash.
func (c *Chain) readBlock(h chainhash.Hash) (*wire.MsgBlock, error) {
	raw, err := c.st.Get(keyBlock(h))
	if err != nil {
		return nil, fmt.Errorf("%w: missing block %s (%v)", ErrCorruptState, h, err)
	}
	ref, err := decodeBlockRef(raw)
	if err != nil {
		return nil, err
	}
	blob, err := c.st.ReadBlock(ref)
	if err != nil {
		return nil, fmt.Errorf("%w: block %s unreadable (%v)", ErrCorruptState, h, err)
	}
	blk := &wire.MsgBlock{}
	if err := blk.Deserialize(bytes.NewReader(blob)); err != nil {
		return nil, fmt.Errorf("%w: block %s undecodable (%v)", ErrCorruptState, h, err)
	}
	return blk, nil
}

// load rebuilds the resident chain state from the store: the linked
// main chain (verifying hashes and linkage — the tip integrity check)
// folded into the UTXO table, spend journal and transaction index, and
// any stored side-chain blocks and skeleton headers that still attach.
// Rows of the retired derived-state families are then dropped.
func (c *Chain) load() error {
	tipRaw, err := c.st.Get(keyTip)
	if err != nil {
		return err
	}
	tipHash, tipHeight, err := decodeTip(tipRaw)
	if err != nil {
		return err
	}

	var parent *blockNode
	work := new(big.Int)
	for h := 0; h <= tipHeight; h++ {
		hashRaw, err := c.st.Get(keyMain(h))
		if err != nil {
			return fmt.Errorf("%w: missing main-chain hash at height %d", ErrCorruptState, h)
		}
		want, err := chainhash.NewHashFromBytes(hashRaw)
		if err != nil {
			return fmt.Errorf("%w: bad main-chain hash at height %d", ErrCorruptState, h)
		}
		blk, err := c.readBlock(want)
		if err != nil {
			return err
		}
		if got := blk.BlockHash(); got != want {
			return fmt.Errorf("%w: block at height %d hashes to %s, index says %s",
				ErrCorruptState, h, got, want)
		}
		if h == 0 {
			if want != c.params.GenesisBlock.BlockHash() {
				return fmt.Errorf("%w: stored genesis %s does not match network %s",
					ErrCorruptState, want, c.params.GenesisBlock.BlockHash())
			}
		} else if blk.Header.PrevBlock != parent.hash {
			return fmt.Errorf("%w: block at height %d links to %s, parent is %s",
				ErrCorruptState, h, blk.Header.PrevBlock, parent.hash)
		}
		work = new(big.Int).Add(work, CalcWork(blk.Header.Bits))
		node := &blockNode{
			hash:    want,
			parent:  parent,
			height:  h,
			workSum: new(big.Int).Set(work),
			header:  blk.Header,
			block:   blk,
			status:  statusAccepted,
			inMain:  true,
		}
		c.index[want] = node
		c.mainChain = append(c.mainChain, node)
		if _, _, err := c.applyBlock(node, nil); err != nil {
			return fmt.Errorf("%w: block at height %d: %v", ErrCorruptState, h, err)
		}
		parent = node
	}
	if parent.hash != tipHash {
		return fmt.Errorf("%w: main chain ends at %s, tip record says %s",
			ErrCorruptState, parent.hash, tipHash)
	}
	c.tip = parent

	// Everything off the main chain: stored side-chain blocks ('b' rows)
	// and the persisted skeleton — headers validated ahead of their
	// bodies ('h' rows) — so a node killed mid-sync restarts with its
	// header tip at or ahead of the connected tip. Both are linked
	// progressively from the main chain (height and work derive from the
	// parent); rows whose ancestry no longer reaches a known block are
	// dropped, to be refetched from peers.
	type offMain struct {
		header wire.BlockHeader
		block  *wire.MsgBlock // nil for a bare 'h' row
	}
	pending := make(map[chainhash.Hash]offMain)
	err = c.st.Iterate([]byte("b"), func(k, v []byte) error {
		var h chainhash.Hash
		if len(k) != 1+32 {
			return fmt.Errorf("%w: malformed block key", ErrCorruptState)
		}
		copy(h[:], k[1:])
		if _, ok := c.index[h]; ok {
			return nil
		}
		blk, err := c.readBlock(h)
		if err != nil {
			return err
		}
		pending[h] = offMain{header: blk.Header, block: blk}
		return nil
	})
	if err != nil {
		return err
	}
	err = c.st.Iterate([]byte("h"), func(k, v []byte) error {
		if len(k) != 1+32 {
			return fmt.Errorf("%w: malformed header key", ErrCorruptState)
		}
		var h chainhash.Hash
		copy(h[:], k[1:])
		if _, ok := c.index[h]; ok {
			return nil
		}
		if _, ok := pending[h]; ok {
			return nil
		}
		var hdr wire.BlockHeader
		if err := hdr.Deserialize(bytes.NewReader(v)); err != nil {
			return fmt.Errorf("%w: header %s undecodable (%v)", ErrCorruptState, h, err)
		}
		if hdr.BlockHash() != h {
			return fmt.Errorf("%w: header row %s hashes to %s", ErrCorruptState, h, hdr.BlockHash())
		}
		pending[h] = offMain{header: hdr}
		return nil
	})
	if err != nil {
		return err
	}
	for progressed := true; progressed && len(pending) > 0; {
		progressed = false
		for h, row := range pending {
			p, ok := c.index[row.header.PrevBlock]
			if !ok {
				continue
			}
			node := linkNode(h, &row.header, p)
			// A body is only ever accepted onto an accepted parent; one
			// stored without it is refetched with the rest of its branch.
			if row.block != nil && p.status == statusAccepted {
				node.block, node.status = row.block, statusAccepted
			}
			c.index[h] = node
			delete(pending, h)
			progressed = true
		}
	}
	c.selectHeaderTipLocked()

	for _, prefix := range retiredFamilies {
		if err := store.DeletePrefix(c.st, prefix); err != nil {
			return err
		}
	}
	return nil
}

// persistSideBlock stores a side-chain block's data and index row so a
// restarted node can still reorganize onto the branch.
func (c *Chain) persistSideBlock(node *blockNode) error {
	has, err := c.st.Has(keyBlock(node.hash))
	if err != nil {
		return err
	}
	if has {
		return nil
	}
	ref, err := c.st.AppendBlock(node.block.Bytes())
	if err != nil {
		return err
	}
	b := store.NewBatch()
	b.Put(keyBlock(node.hash), encodeBlockRef(ref))
	c.stageHeaderRows(b)
	return c.st.Apply(b)
}

// commitConnect assembles and applies the atomic batch for connecting
// node, whose block consumed spent. Caller holds c.mu; the chain's
// resident maps have already been mutated and will be rolled back by the
// caller if the commit fails.
func (c *Chain) commitConnect(node *blockNode, spent []SpentOutput) error {
	b := store.NewBatch()
	has, err := c.st.Has(keyBlock(node.hash))
	if err != nil {
		return err
	}
	if !has {
		ref, err := c.st.AppendBlock(node.block.Bytes())
		if err != nil {
			return err
		}
		b.Put(keyBlock(node.hash), encodeBlockRef(ref))
	}
	b.Put(keyMain(node.height), node.hash[:])
	b.Put(keyTip, encodeTip(node.hash, node.height))
	return c.commit(b, PersistEvent{Connected: true, Block: node.block, Height: node.height, Spent: spent})
}

// commitDisconnect assembles and applies the atomic batch for
// disconnecting the tip, which gives spent back. Caller holds c.mu and
// mutates resident state only after this succeeds. The new tip is the
// parent: once this batch is durable, the chain can only replay to
// parent or later, never to the detached block.
func (c *Chain) commitDisconnect(node *blockNode, spent []SpentOutput) error {
	b := store.NewBatch()
	b.Delete(keyMain(node.height))
	b.Put(keyTip, encodeTip(node.parent.hash, node.parent.height))
	return c.commit(b, PersistEvent{Connected: false, Block: node.block, Height: node.height, Spent: spent})
}

// commit adds the subscriber rows for ev and any headers accepted since
// the last commit (including a connected block's own, when it is new)
// to b, then applies it.
func (c *Chain) commit(b *store.Batch, ev PersistEvent) error {
	for _, fn := range c.persisters {
		fn(ev, b)
	}
	c.stageHeaderRows(b)
	return c.applyBatch(b)
}

// applyBatch commits b, timing the store round trip.
func (c *Chain) applyBatch(b *store.Batch) error {
	start := time.Now()
	err := c.st.Apply(b)
	if c.tel.commitSeconds != nil {
		observeSince(c.tel.commitSeconds, start)
		c.tel.commitOps.Observe(float64(b.Len()))
	}
	if err == nil {
		c.tel.commits.Inc()
	}
	return err
}

// AuditFromGenesis structurally replays the whole main chain and checks
// the resident UTXO table and spend journal against the replay: every
// spend consumes an output that exists, nothing is spent twice, the
// UTXO table is exactly created-minus-spent (modulo provably
// unspendable outputs, which are pruned), and the spend journal names
// the correct spender for every consumed outpoint. This is the startup
// recovery audit for persistent nodes and the convergence audit used by
// the network simulator.
func (c *Chain) AuditFromGenesis() error {
	created := make(map[wire.OutPoint]bool)
	unspendable := make(map[wire.OutPoint]bool)
	spent := make(map[wire.OutPoint]chainhash.Hash)
	tipHeight := c.BestHeight()
	for height := 0; ; height++ {
		blk, ok := c.BlockAtHeight(height)
		if !ok {
			if height <= tipHeight {
				return fmt.Errorf("chain audit: missing block at height %d", height)
			}
			break
		}
		for ti, tx := range blk.Transactions {
			txid := tx.TxHash()
			if ti > 0 { // the coinbase consumes nothing
				for _, in := range tx.TxIn {
					op := in.PreviousOutPoint
					if by, dup := spent[op]; dup {
						return fmt.Errorf("chain audit: utxo %v spent twice: by %s and %s (height %d)",
							op, by, txid, height)
					}
					if !created[op] {
						return fmt.Errorf("chain audit: tx %s at height %d spends nonexistent output %v",
							txid, height, op)
					}
					spent[op] = txid
				}
			}
			for idx, out := range tx.TxOut {
				op := wire.OutPoint{Hash: txid, Index: uint32(idx)}
				created[op] = true
				if isUnspendable(out.PkScript) {
					unspendable[op] = true
				}
			}
		}
	}
	// The resident UTXO table must be exactly created minus spent.
	live := make(map[wire.OutPoint]bool)
	for _, op := range c.UtxoOutpoints() {
		live[op] = true
		if !created[op] {
			return fmt.Errorf("chain audit: utxo set contains never-created output %v", op)
		}
		if by, dup := spent[op]; dup {
			return fmt.Errorf("chain audit: utxo set contains output %v spent by %s", op, by)
		}
	}
	for op := range created {
		if _, wasSpent := spent[op]; !wasSpent && !live[op] && !unspendable[op] {
			return fmt.Errorf("chain audit: unspent output %v missing from utxo set", op)
		}
	}
	// The spend journal must name exactly the replayed spends.
	c.mu.RLock()
	journalSize := len(c.spent)
	bad := ""
	for op, txid := range spent {
		rec, ok := c.spent[op]
		if !ok {
			bad = fmt.Sprintf("spend of %v (by %s) missing from journal", op, txid)
			break
		}
		if rec.Spender != txid {
			bad = fmt.Sprintf("journal says %v spent by %s, replay says %s", op, rec.Spender, txid)
			break
		}
	}
	c.mu.RUnlock()
	if bad != "" {
		return fmt.Errorf("chain audit: %s", bad)
	}
	if journalSize != len(spent) {
		return fmt.Errorf("chain audit: spend journal has %d records, replay produced %d",
			journalSize, len(spent))
	}
	return nil
}
