package index

// Package index maintains Blockbook-style query indexes over the main
// chain: address -> transaction history and principal -> Typecoin
// announcement/receipt activity. Outpoint -> spending transaction is
// answered from the chain's own spend journal.
//
// The chain describes every main-chain change with one event, the
// block and the entries it spent or gives back. The indexer receives it
// twice: as a persist hook, whose rows ride in the SAME atomic store
// batch as the chain's connect/disconnect, so a crash can never commit
// a block without its index rows or vice versa; and as a subscriber
// after the commit, when it publishes the block and its address
// activity to the hub (hub.go), whose long-lived clients page through
// the rows straight from the store. On open it catches up through the
// chain's Replay of the blocks above its stored tip (all of them after
// a wipe), registered and snapshotted under one chain lock acquisition
// so no block falls between the replay and the hook.

import (
	"fmt"
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
// interrupted catch-up resumes from the last applied batch.
const rebuildBatchBlocks = 256

// Indexer maintains the index column families over one chain.
type Indexer struct {
	c  *chain.Chain
	st store.Store

	// tipHeight mirrors the committed index tip for gauges and the
	// status endpoint without a store read; updated post-commit.
	tipHeight atomic.Int64

	// catchupBlocks is how many blocks the opening replay indexed,
	// surfaced by telemetry.
	catchupBlocks int

	hub *hub
	tel indexTelemetry
}

// Open attaches an indexer to c, persisting into the chain's own store.
// It must be called before block processing starts (like wallet and
// ledger attachment): registration and the catch-up bound are taken
// under one chain lock acquisition, so every block committed afterwards
// reaches the indexer exactly once.
func Open(c *chain.Chain) (*Indexer, error) {
	ix := &Indexer{c: c, st: c.Store(), hub: newHub()}
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
// registration time. Three cases: fresh store (index from genesis),
// stored tip on the main chain (index the blocks above it), stored tip
// elsewhere — a fork abandoned while the indexer was not attached, or a
// torn catch-up — (wipe and index from genesis). The blocks and their
// spends come from the chain's Replay; AuditRebuild checks the result
// against the indexer's own fold.
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
	b := store.NewBatch()
	err := ix.c.Replay(from, snap.Height, func(ev chain.Notification) error {
		for _, r := range computeBlockRows(ev.Block, ev.Height, ev.Spent).rows {
			b.Put(r.key, r.val)
		}
		ix.catchupBlocks++
		if ix.catchupBlocks%rebuildBatchBlocks != 0 && ev.Height != snap.Height {
			return nil
		}
		b.Put(keyTip, encodeTip(ev.Block.BlockHash(), ev.Height))
		err := ix.st.Apply(b)
		b = store.NewBatch()
		return err
	})
	if err != nil {
		return err
	}
	ix.tipHeight.Store(int64(snap.Height))
	return nil
}

// wipe deletes every index row ('i' prefix) in bounded batches.
func (ix *Indexer) wipe() error { return store.DeletePrefix(ix.st, []byte("i")) }

// replayOwn is AuditRebuild's reference fold: it delivers main-chain
// blocks 0 through upTo to fn as the chain's Replay does, but takes each
// block's spends from an outpoint table of its own, built from the
// blocks alone, so the audit does not lean on the chain's derivation.
func (ix *Indexer) replayOwn(upTo int, fn func(chain.Notification) error) error {
	utxo := make(map[wire.OutPoint]*chain.UtxoEntry)
	for h := 0; h <= upTo; h++ {
		blk, ok := ix.c.BlockAtHeight(h)
		if !ok {
			return fmt.Errorf("index: main chain missing block at height %d", h)
		}
		var spent []chain.SpentOutput
		for ti, tx := range blk.Transactions {
			if ti > 0 {
				for _, in := range tx.TxIn {
					op := in.PreviousOutPoint
					e, ok := utxo[op]
					if !ok {
						return fmt.Errorf("index: replay at height %d spends unknown output %v", h, op)
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
		if err := fn(chain.Notification{Connected: true, Block: blk, Height: h, Spent: spent}); err != nil {
			return err
		}
	}
	return nil
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
// order, then input order), exactly as chain.Notification carries
// them; the coinbase consumes none. The same function serves connect
// (Put rows), disconnect (Delete the same keys), catch-up and the
// audit's rebuild, which is what makes "incremental index ==
// from-genesis rebuild" a testable bit-equality rather than an
// approximation.
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

// contribute is the chain's persist hook: it adds this block's index
// rows to the commit batch. It runs under the chain lock with the batch
// open, so the rows and the chain mutation are atomic.
func (ix *Indexer) contribute(ev chain.Notification, b *store.Batch) {
	br := computeBlockRows(ev.Block, ev.Height, ev.Spent)
	if ev.Connected {
		for _, r := range br.rows {
			b.Put(r.key, r.val)
		}
		b.Put(keyTip, encodeTip(ev.Block.BlockHash(), ev.Height))
		ix.tel.rowsWritten.Add(uint64(len(br.rows)))
	} else {
		for _, r := range br.rows {
			b.Delete(r.key)
		}
		b.Put(keyTip, encodeTip(ev.Block.Header.PrevBlock, ev.Height-1))
		ix.tel.rowsDeleted.Add(uint64(len(br.rows)))
	}
}

// onChainChange runs after a main-chain commit has landed: it publishes
// the block and its address activity, computed from the same event the
// persist hook saw, to subscribers; with none, it computes nothing.
func (ix *Indexer) onChainChange(n chain.Notification) {
	if n.Connected {
		ix.tipHeight.Store(int64(n.Height))
		// Index visibility: the rows committed with this block are now
		// queryable. Observe-only, so catch-up replay of historical
		// blocks does not fabricate spans.
		if sp := ix.tel.spans; sp != nil {
			sp.Observe(telemetry.SpanBlock, n.Block.BlockHash(), telemetry.StageIndexed)
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
	if ix.hub.active() == 0 {
		return
	}
	dropped := ix.hub.publishBlock(BlockEvent{
		Hash:      n.Block.BlockHash(),
		Height:    n.Height,
		Connected: n.Connected,
		TxCount:   len(n.Block.Transactions),
	})
	for _, ev := range computeBlockRows(n.Block, n.Height, n.Spent).activity {
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

// AuditRebuild folds the main chain from genesis through replayOwn,
// with the same row computation as live indexing, and requires the live
// index rows to be bit-for-bit identical. This is the reorg-consistency
// oracle: an incremental index that drifted from the canonical
// from-genesis answer (a stale row surviving a disconnect, a missed
// spend) fails the comparison.
func (ix *Indexer) AuditRebuild() error {
	want := make(map[string]string)
	err := ix.replayOwn(ix.c.BestHeight(), func(ev chain.Notification) error {
		for _, r := range computeBlockRows(ev.Block, ev.Height, ev.Spent).rows {
			want[string(r.key)] = string(r.val)
		}
		want[string(keyTip)] = string(encodeTip(ev.Block.BlockHash(), ev.Height))
		return nil
	})
	if err != nil {
		return fmt.Errorf("index audit: rebuild failed: %w", err)
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
