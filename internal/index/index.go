package index

// Package index maintains Blockbook-style query indexes over the main
// chain: address -> transaction history and principal -> Typecoin
// announcement/receipt activity. Outpoint -> spending transaction is
// answered from the chain's own spend journal.
//
// The indexer is a persist subscriber: its rows ride in the SAME atomic
// store batch as each chain connect/disconnect, so a crash can never
// commit a block without its index rows or vice versa. On open it
// catches up by bulk-replaying the main chain from its recorded tip
// (or from genesis when the stored tip no longer lies on the main
// chain), registered and snapshotted under one chain lock acquisition
// so no block falls between the scan and the event stream.
//
// Queries are served straight from the store, paginated by cursor; the
// hub (hub.go) pushes new-block/new-tx/address-activity events to
// long-lived subscribers after each commit.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"typecoin/internal/bkey"
	"typecoin/internal/chain"
	"typecoin/internal/chainhash"
	"typecoin/internal/script"
	"typecoin/internal/store"
	"typecoin/internal/telemetry"
	"typecoin/internal/typecoin"
	"typecoin/internal/wire"
)

// rebuildBatchBlocks bounds how many blocks a catch-up replay folds
// into one store batch. Each batch also rewrites the index tip, so an
// interrupted rebuild resumes from the last applied batch.
const rebuildBatchBlocks = 256

// Indexer maintains the index column families over one chain.
type Indexer struct {
	c  *chain.Chain
	st store.Store

	// tipHeight mirrors the committed index tip for gauges and the
	// status endpoint without a store read; updated post-commit.
	tipHeight atomic.Int64

	// pending carries per-block address activity from contribute (under
	// the chain lock, pre-commit) to onChainChange (post-commit), where
	// it is published to subscribers.
	pendingMu sync.Mutex
	pending   map[pendKey][]AddrEvent

	// catchupBlocks is how many blocks the opening replay indexed,
	// surfaced by telemetry.
	catchupBlocks int

	hub *hub
	tel indexTelemetry
}

// pendKey identifies one direction of one block's commit.
type pendKey struct {
	hash      chainhash.Hash
	connected bool
}

// Open attaches an indexer to c, persisting into the chain's own store.
// It must be called before block processing starts (like wallet and
// ledger attachment): registration and the catch-up bound are taken
// under one chain lock acquisition, so every block committed afterwards
// reaches the indexer exactly once.
func Open(c *chain.Chain) (*Indexer, error) {
	ix := &Indexer{
		c:       c,
		st:      c.Store(),
		pending: make(map[pendKey][]AddrEvent),
		hub:     newHub(),
	}
	ix.tipHeight.Store(-1)
	c.Subscribe(ix.onChainChange)
	snap := c.SubscribePersist(ix.contribute)
	if err := ix.catchUp(snap); err != nil {
		return nil, err
	}
	return ix, nil
}

// Chain returns the chain this indexer serves.
func (ix *Indexer) Chain() *chain.Chain { return ix.c }

// TipHeight returns the committed index tip height (-1 before open
// completes — never observable by callers of Open).
func (ix *Indexer) TipHeight() int { return int(ix.tipHeight.Load()) }

// Tip reads the committed index tip row.
func (ix *Indexer) Tip() (chainhash.Hash, int, error) {
	raw, err := ix.st.Get(keyTip)
	if err != nil {
		return chainhash.Hash{}, 0, err
	}
	return decodeTip(raw)
}

// catchUp brings the stored index to snap, the chain tip at
// registration time. Three cases: fresh store (build from genesis),
// stored tip on the main chain (incremental replay above it), stored
// tip elsewhere — a fork abandoned while the indexer was not attached,
// or a torn rebuild — (wipe and rebuild). The replay maintains its own
// outpoint table, deliberately independent of the chain's spend
// journal, so rebuild-vs-incremental comparisons exercise two genuinely
// different code paths.
func (ix *Indexer) catchUp(snap chain.Snapshot) error {
	from := 0
	if has, err := ix.st.Has(keyTip); err != nil {
		return err
	} else if has {
		raw, err := ix.st.Get(keyTip)
		if err != nil {
			return err
		}
		tipHash, tipHeight, err := decodeTip(raw)
		if err == nil && tipHeight <= snap.Height {
			if blk, ok := ix.c.BlockAtHeight(tipHeight); ok && blk.BlockHash() == tipHash {
				from = tipHeight + 1
			}
		}
		if from == 0 {
			// Stored tip is corrupt or off the main chain: the rows
			// under it cannot be trusted row-by-row, so start clean.
			if err := ix.wipe(); err != nil {
				return err
			}
		}
	}
	n, err := ix.replayInto(ix.st, snap.Height, from)
	if err != nil {
		return err
	}
	ix.catchupBlocks = n
	ix.tipHeight.Store(int64(snap.Height))
	return nil
}

// wipe deletes every index row ('i' prefix) in bounded batches.
func (ix *Indexer) wipe() error { return store.DeletePrefix(ix.st, []byte("i")) }

// replayInto replays main-chain blocks [0, upTo] against dst,
// maintaining its own outpoint->entry table for input attribution, and
// writes rows only for heights >= writeFrom (earlier blocks feed the
// table without emitting rows). Rows land in batches of
// rebuildBatchBlocks blocks, each batch carrying the index tip, so an
// interrupted bulk sync resumes instead of restarting. Returns the
// number of blocks whose rows were written.
func (ix *Indexer) replayInto(dst store.Store, upTo, writeFrom int) (int, error) {
	utxo := make(map[wire.OutPoint]*chain.UtxoEntry)
	b := store.NewBatch()
	written := 0
	var lastHash chainhash.Hash
	flush := func(height int) error {
		b.Put(keyTip, encodeTip(lastHash, height))
		if err := dst.Apply(b); err != nil {
			return err
		}
		b = store.NewBatch()
		return nil
	}
	for h := 0; h <= upTo; h++ {
		blk, ok := ix.c.BlockAtHeight(h)
		if !ok {
			return written, fmt.Errorf("index: main chain missing block at height %d", h)
		}
		spent := make([]chain.SpentOutput, 0, 8)
		for ti, tx := range blk.Transactions {
			if ti > 0 {
				for _, in := range tx.TxIn {
					op := in.PreviousOutPoint
					e, ok := utxo[op]
					if !ok {
						return written, fmt.Errorf("index: replay at height %d spends unknown output %v", h, op)
					}
					spent = append(spent, chain.SpentOutput{OutPoint: op, Entry: e})
					delete(utxo, op)
				}
			}
			txid := tx.TxHash()
			for i, out := range tx.TxOut {
				utxo[wire.OutPoint{Hash: txid, Index: uint32(i)}] = &chain.UtxoEntry{
					Out: *out, Height: h, IsCoinBase: ti == 0,
				}
			}
		}
		if h >= writeFrom {
			br := computeBlockRows(blk, h, spent)
			for _, r := range br.rows {
				b.Put(r.key, r.val)
			}
			written++
		}
		lastHash = blk.BlockHash()
		if h >= writeFrom && (h-writeFrom+1)%rebuildBatchBlocks == 0 {
			if err := flush(h); err != nil {
				return written, err
			}
		}
	}
	// Always stamp the tip, even when no rows were written (fresh chain
	// of empty blocks, or nothing above writeFrom).
	if err := flush(upTo); err != nil {
		return written, err
	}
	return written, nil
}

// rowOp is one computed index row.
type rowOp struct {
	key []byte
	val []byte
}

// blockRows is everything one block contributes to the index: the rows
// themselves plus the per-address activity the hub publishes after the
// commit lands.
type blockRows struct {
	rows     []rowOp
	activity []AddrEvent
}

// addrDelta aggregates what one transaction does to one address.
type addrDelta struct {
	flags  byte
	funded int64
	spent  int64
}

// computeBlockRows derives every index row for one block. spent lists
// the UTXO entries the block consumed in spend order (transaction
// order, then input order), exactly as chain.PersistEvent delivers
// them; the coinbase consumes none. The same function serves connect
// (Put rows), disconnect (Delete the same keys) and bulk rebuild, which
// is what makes "incremental index == from-genesis rebuild" a testable
// bit-equality rather than an approximation.
func computeBlockRows(blk *wire.MsgBlock, height int, spent []chain.SpentOutput) blockRows {
	var br blockRows
	cursor := 0
	for ti, tx := range blk.Transactions {
		txid := tx.TxHash()
		deltas := make(map[bkey.Principal]*addrDelta)
		touch := func(p bkey.Principal) *addrDelta {
			d := deltas[p]
			if d == nil {
				d = &addrDelta{}
				deltas[p] = d
			}
			return d
		}
		if ti > 0 {
			for range tx.TxIn {
				if cursor >= len(spent) {
					break // defensively tolerate a short journal
				}
				so := spent[cursor]
				cursor++
				if so.Entry == nil {
					continue
				}
				if p, ok := script.ExtractPubKeyHash(so.Entry.Out.PkScript); ok {
					d := touch(p)
					d.flags |= RoleSpent
					d.spent += so.Entry.Out.Value
				}
			}
		}
		for _, out := range tx.TxOut {
			if p, ok := script.ExtractPubKeyHash(out.PkScript); ok {
				d := touch(p)
				d.flags |= RoleFunded
				d.funded += out.Value
			}
		}
		// Typecoin activity: a carrier's commitment hash is indexed for
		// every principal the carrier touches — receipt role for funded
		// principals, announce role for spending principals.
		meta, hasMeta := typecoin.ExtractMetaHash(tx)
		for p, d := range deltas {
			br.rows = append(br.rows, rowOp{
				key: histKey(p, uint32(height), uint32(ti)),
				val: encodeHist(txid, d.flags, d.funded, d.spent),
			})
			if hasMeta {
				br.rows = append(br.rows, rowOp{
					key: prinKey(p, uint32(height), uint32(ti)),
					val: encodePrin(txid, meta, d.flags),
				})
			}
			br.activity = append(br.activity, AddrEvent{
				Principal: p,
				TxID:      txid,
				Height:    height,
				TxIndex:   ti,
				Flags:     d.flags,
				Funded:    d.funded,
				Spent:     d.spent,
			})
		}
	}
	return br
}

// contribute is the chain persist subscriber: it adds this block's
// index rows to the commit batch. It runs under the chain lock with the
// batch open, so the rows and the chain mutation are atomic.
func (ix *Indexer) contribute(ev chain.PersistEvent, b *store.Batch) {
	br := computeBlockRows(ev.Block, ev.Height, ev.Spent)
	blkHash := ev.Block.BlockHash()
	if ev.Connected {
		for _, r := range br.rows {
			b.Put(r.key, r.val)
		}
		b.Put(keyTip, encodeTip(blkHash, ev.Height))
		ix.tel.rowsWritten.Add(uint64(len(br.rows)))
	} else {
		for _, r := range br.rows {
			b.Delete(r.key)
		}
		b.Put(keyTip, encodeTip(ev.Block.Header.PrevBlock, ev.Height-1))
		ix.tel.rowsDeleted.Add(uint64(len(br.rows)))
	}
	ix.pendingMu.Lock()
	ix.pending[pendKey{hash: blkHash, connected: ev.Connected}] = br.activity
	ix.pendingMu.Unlock()
}

// onChainChange runs after a main-chain commit has landed: it publishes
// the block and the queued address activity to subscribers. Events for
// a block the indexer never contributed to (committed before Open)
// simply find no queued activity.
func (ix *Indexer) onChainChange(n chain.Notification) {
	blkHash := n.Block.BlockHash()
	if n.Connected {
		ix.tipHeight.Store(int64(n.Height))
		// Index visibility: the rows committed with this block are now
		// queryable. Observe-only, so catch-up replay of historical
		// blocks does not fabricate spans.
		if sp := ix.tel.spans; sp != nil {
			sp.Observe(telemetry.SpanBlock, blkHash, telemetry.StageIndexed)
			for i, tx := range n.Block.Transactions {
				if i == 0 {
					continue
				}
				sp.Observe(telemetry.SpanTx, tx.TxHash(), telemetry.StageIndexed)
			}
		}
	} else {
		ix.tipHeight.Store(int64(n.Height - 1))
	}
	ix.pendingMu.Lock()
	k := pendKey{hash: blkHash, connected: n.Connected}
	activity := ix.pending[k]
	delete(ix.pending, k)
	ix.pendingMu.Unlock()

	dropped := ix.hub.publishBlock(BlockEvent{
		Hash:      blkHash,
		Height:    n.Height,
		Connected: n.Connected,
		TxCount:   len(n.Block.Transactions),
	})
	for _, ev := range activity {
		ev.Connected = n.Connected
		dropped += ix.hub.publishAddr(ev)
	}
	if dropped > 0 {
		ix.tel.eventsDropped.Add(uint64(dropped))
	}
}

// PublishTx pushes an unconfirmed-transaction event to subscribers; the
// daemon wires it to the mempool's acceptance hook.
func (ix *Indexer) PublishTx(tx *wire.MsgTx) {
	if n := ix.hub.publishTx(TxEvent{TxID: tx.TxHash()}); n > 0 {
		ix.tel.eventsDropped.Add(uint64(n))
	}
}

// HistEntry is one address-history row, decoded.
type HistEntry struct {
	TxID    chainhash.Hash
	Height  int
	TxIndex int
	Flags   byte
	Funded  int64
	Spent   int64
}

// Cursor addresses a position in an address's history: strictly after
// (Height, TxIndex). The zero cursor starts at the beginning.
type Cursor struct {
	Height  uint32
	TxIndex uint32
	Set     bool
}

// AddressHistory returns up to limit history rows for p in chain order,
// starting after cur. A non-nil next cursor means more rows exist.
func (ix *Indexer) AddressHistory(p bkey.Principal, cur Cursor, limit int) ([]HistEntry, *Cursor, error) {
	return ix.scanAddr('h', p, cur, limit, func(height, txIdx uint32, v []byte) (HistEntry, error) {
		txid, flags, funded, spent, err := decodeHist(v)
		return HistEntry{
			TxID: txid, Height: int(height), TxIndex: int(txIdx),
			Flags: flags, Funded: funded, Spent: spent,
		}, err
	})
}

// PrinEntry is one principal-activity row: a Typecoin carrier touching
// the principal and the commitment hash it carries.
type PrinEntry struct {
	TxID       chainhash.Hash
	Commitment chainhash.Hash
	Height     int
	TxIndex    int
	Flags      byte
}

// PrincipalActivity returns up to limit Typecoin activity rows for p in
// chain order, starting after cur.
func (ix *Indexer) PrincipalActivity(p bkey.Principal, cur Cursor, limit int) ([]PrinEntry, *Cursor, error) {
	var out []PrinEntry
	_, next, err := ix.scanAddr('p', p, cur, limit, func(height, txIdx uint32, v []byte) (HistEntry, error) {
		carrier, commitment, flags, err := decodePrin(v)
		if err != nil {
			return HistEntry{}, err
		}
		out = append(out, PrinEntry{
			TxID: carrier, Commitment: commitment,
			Height: int(height), TxIndex: int(txIdx), Flags: flags,
		})
		return HistEntry{}, nil
	})
	return out, next, err
}

// scanAddr walks one address-keyed family from a cursor, decoding each
// row with decode. It reads limit rows plus one probe: the probe's
// existence (not its content) decides whether a next cursor is
// returned, so pagination never returns a dangling cursor.
func (ix *Indexer) scanAddr(kind byte, p bkey.Principal, cur Cursor, limit int,
	decode func(height, txIdx uint32, v []byte) (HistEntry, error)) ([]HistEntry, *Cursor, error) {
	if limit <= 0 {
		limit = DefaultPageLimit
	}
	prefix := addrPrefix(kind, p)
	start := prefix
	if cur.Set {
		// Strictly after the cursor position: +1 on the tx index never
		// overflows into the next height because the key is
		// fixed-width.
		if cur.TxIndex == ^uint32(0) {
			start = appendAddrKey(nil, kind, p, cur.Height+1, 0)
		} else {
			start = appendAddrKey(nil, kind, p, cur.Height, cur.TxIndex+1)
		}
	}
	var (
		out          []HistEntry
		next         *Cursor
		lastH, lastT uint32
		errS         error
	)
	stop := fmt.Errorf("index: scan done")
	err := store.IterateFrom(ix.st, prefix, start, func(k, v []byte) error {
		height, txIdx, err := decodeAddrKey(k)
		if err != nil {
			errS = err
			return stop
		}
		if len(out) >= limit {
			// Probe row: the page is full and a successor exists, so
			// hand back a cursor at the last returned row (the scan
			// resumes strictly after it).
			next = &Cursor{Height: lastH, TxIndex: lastT, Set: true}
			return stop
		}
		e, err := decode(height, txIdx, v)
		if err != nil {
			errS = err
			return stop
		}
		out = append(out, e)
		lastH, lastT = height, txIdx
		return nil
	})
	if err != nil && err != stop {
		return nil, nil, err
	}
	if errS != nil {
		return nil, nil, errS
	}
	return out, next, nil
}

// SpendInfo reports which transaction consumed an outpoint.
type SpendInfo struct {
	Spender chainhash.Hash
	Vin     uint32
	Height  int
}

// Outspend looks up the main-chain spend of op, if any, in the chain's
// spend journal.
func (ix *Indexer) Outspend(op wire.OutPoint) (SpendInfo, bool, error) {
	rec, ok := ix.c.IsSpent(op)
	if !ok {
		return SpendInfo{}, false, nil
	}
	return SpendInfo{Spender: rec.Spender, Vin: rec.SpentBy.Index, Height: rec.Height}, true, nil
}

// DefaultPageLimit bounds query pages when the client does not say.
const DefaultPageLimit = 100

// MaxPageLimit is the hard ceiling on one page.
const MaxPageLimit = 1000

// AuditRebuild replays the main chain from genesis into a fresh
// in-memory store using the same row computation as live indexing, then
// requires the live index rows to be bit-for-bit identical. This is the
// reorg-consistency oracle: an incremental index that drifted from the
// canonical from-genesis answer (a stale row surviving a disconnect, a
// missed spend) fails the comparison.
func (ix *Indexer) AuditRebuild() error {
	mem := store.NewMem()
	snap := ix.c.BestSnapshot()
	if _, err := ix.replayInto(mem, snap.Height, 0); err != nil {
		return fmt.Errorf("index audit: rebuild failed: %w", err)
	}
	want, err := dumpIndexRows(mem)
	if err != nil {
		return err
	}
	got, err := dumpIndexRows(ix.st)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("index audit: live index has %d rows, rebuild produced %d", len(got), len(want))
	}
	for k, v := range want {
		gv, ok := got[k]
		if !ok {
			return fmt.Errorf("index audit: live index missing row %x", k)
		}
		if gv != v {
			return fmt.Errorf("index audit: row %x differs: live %x, rebuild %x", k, gv, v)
		}
	}
	return nil
}

// dumpIndexRows snapshots every 'i'-prefixed row as string->string.
func dumpIndexRows(st store.Store) (map[string]string, error) {
	out := make(map[string]string)
	err := st.Iterate([]byte("i"), func(k, v []byte) error {
		out[string(k)] = string(v)
		return nil
	})
	return out, err
}
