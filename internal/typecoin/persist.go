package typecoin

// Ledger persistence. The typed state (global basis, unconsumed typed
// outputs) is a deterministic function of the chain and the announced
// object set, so it is never serialized: OpenLedger replays it from the
// recovered chain. What is persisted:
//
//	ka + commitment hash -> announced object ('L' fallback list / 'B'
//	                        batch). Announcements arrive out of band and
//	                        are written at Announce time — the one piece
//	                        of ledger state the chain cannot reproduce.
//	ls + commitment hash -> carrier txid (the last in chain order when
//	                        several carry one hash). The seen index,
//	                        contributed to each block's atomic commit
//	                        batch; redundant with the chain and
//	                        cross-checked on startup.
//	la + carrier txid    -> marker: this carrier's Typecoin transaction
//	                        is applied. A witness of what a previous run
//	                        concluded, never an input to the replay.
//
// Every ledger mutation (an announcement, the sweep after a block
// connects, a rebuild) knows which carriers it applied and which it
// un-applied, and writes exactly that as one batch: the new ka row if
// any, Put(la) per carrier newly applied, Delete(la) per carrier no
// longer applied. The running ledger never reads the store.
//
// OpenLedger reads ka and la once. A marker the replay reproduces is
// kept; a missing one is written (the crash cut it off after the block
// committed). A marker the replay does not reproduce is deleted when its
// carrier has fewer than minConf confirmations on the recovered chain —
// the trace of a crash between a disconnect commit and the ledger's
// delete, since notifications fire only after the whole reorg has
// committed — and is ErrStateDiverged otherwise: a confirmed carrier was
// applied by a previous run and cannot be now, so the announcement rows
// or the chain under them are not the ones that run saw.

import (
	"bytes"
	"errors"
	"fmt"

	"typecoin/internal/chain"
	"typecoin/internal/chainhash"
	"typecoin/internal/store"
)

// ErrStateDiverged reports persisted ledger state that the chain replay
// cannot reproduce — the recovered chain and ledger disagree about what
// was applied.
var ErrStateDiverged = errors.New("typecoin: persisted ledger state diverges from chain replay")

func keyKnown(h chainhash.Hash) []byte    { return append([]byte("ka"), h[:]...) }
func keySeen(h chainhash.Hash) []byte     { return append([]byte("ls"), h[:]...) }
func keyApplied(id chainhash.Hash) []byte { return append([]byte("la"), id[:]...) }

const (
	annKindList  = 'L'
	annKindBatch = 'B'
)

func encodeAnnouncement(obj interface{}) []byte {
	switch obj := obj.(type) {
	case *FallbackList:
		out := []byte{annKindList, byte(len(obj.Txs))}
		for _, tx := range obj.Txs {
			b := tx.Bytes()
			out = append(out, byte(len(b)), byte(len(b)>>8), byte(len(b)>>16))
			out = append(out, b...)
		}
		return out
	case *Batch:
		return append([]byte{annKindBatch}, obj.Bytes()...)
	default:
		return nil
	}
}

func decodeAnnouncement(b []byte) (interface{}, error) {
	bad := errors.New("typecoin: corrupt announcement row")
	if len(b) < 1 {
		return nil, bad
	}
	switch b[0] {
	case annKindList:
		if len(b) < 2 {
			return nil, bad
		}
		n := int(b[1])
		b = b[2:]
		list := &FallbackList{}
		for i := 0; i < n; i++ {
			if len(b) < 3 {
				return nil, bad
			}
			l := int(b[0]) | int(b[1])<<8 | int(b[2])<<16
			b = b[3:]
			if len(b) < l {
				return nil, bad
			}
			tx, err := DecodeBytes(b[:l])
			if err != nil {
				return nil, err
			}
			list.Txs = append(list.Txs, tx)
			b = b[l:]
		}
		if len(b) != 0 {
			return nil, bad
		}
		return list, nil
	case annKindBatch:
		return DecodeBatch(bytes.NewReader(b[1:]))
	default:
		return nil, bad
	}
}

// OpenLedger creates a ledger persisted in c's store: previously
// announced objects are reloaded, the typed state is replayed from the
// recovered chain, and the persisted applied markers are settled against
// the replay by the rule in the header comment (ErrStateDiverged when a
// confirmed carrier's marker is not reproduced). From then on every
// ledger mutation writes its own rows; nothing is read back.
func OpenLedger(c *chain.Chain, minConf int) (*Ledger, error) {
	l := newLedger(c, minConf, c.Store())
	// rows visits the 2+32-byte-keyed rows under a prefix.
	rows := func(prefix string, fn func(h chainhash.Hash, v []byte) error) error {
		return l.st.Iterate([]byte(prefix), func(k, v []byte) error {
			if len(k) != 2+32 {
				return fmt.Errorf("typecoin: malformed %s key", prefix)
			}
			var h chainhash.Hash
			copy(h[:], k[2:])
			return fn(h, v)
		})
	}
	err := rows("ka", func(h chainhash.Hash, v []byte) error {
		obj, err := decodeAnnouncement(v)
		if err != nil {
			return err
		}
		l.known[h] = obj
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The markers a previous run wrote stand in as the applied set "before"
	// the replay, so the replay's delta is exactly what the store lacks
	// (markers to add) and what it holds unjustified (markers to judge).
	err = rows("la", func(id chainhash.Hash, _ []byte) error {
		l.applied[id] = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.Subscribe(l.onChainChange)
	c.SubscribePersist(l.contribute)

	l.mu.Lock()
	defer l.mu.Unlock()
	applied, dropped := l.rebuildLocked()
	for _, id := range dropped {
		if c.Confirmations(id) >= l.minConf {
			return nil, fmt.Errorf("%w: recorded applied carrier %s not reproduced", ErrStateDiverged, id)
		}
	}
	// The seen index is redundant with the chain; cross-check what exists.
	err = rows("ls", func(h chainhash.Hash, v []byte) error {
		// The row holds the last carrier connected, the last in chain order.
		if cs := l.seen[h]; len(cs) == 0 || !bytes.Equal(cs[len(cs)-1][:], v) {
			return fmt.Errorf("%w: seen index row %s not reproduced", ErrStateDiverged, h)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	l.persistLocked(chainhash.Hash{}, nil, applied, dropped)
	return l, nil
}

// persistLocked issues the one store batch of a ledger mutation: the ka
// row of a newly announced obj (nil when the mutation announced nothing),
// a marker Put per newly applied carrier and a marker Delete per dropped
// one. Caller holds l.mu. A no-op for memory-only ledgers and for
// mutations that changed nothing persistent.
func (l *Ledger) persistLocked(h chainhash.Hash, obj interface{}, applied, dropped []chainhash.Hash) {
	if l.st == nil {
		return
	}
	b := l.unwritten
	if b == nil {
		b = store.NewBatch()
	}
	if enc := encodeAnnouncement(obj); enc != nil {
		b.Put(keyKnown(h), enc)
	}
	for _, id := range applied {
		b.Put(keyApplied(id), []byte{1})
	}
	for _, id := range dropped {
		b.Delete(keyApplied(id))
	}
	if b.Len() == 0 {
		return
	}
	// A refused Apply took nothing. Its rows are kept and retried, in
	// order, ahead of the next mutation's: a ka row must not be lost while
	// a later marker for its carrier lands, nor a Delete while its carrier
	// stays confirmed, or the next open would refuse the datadir. If the
	// process dies first, OpenLedger rewrites lost markers and peers
	// re-supply a lost announcement (tcget).
	l.unwritten = nil
	if l.st.Apply(b) != nil {
		l.unwritten = b
	}
}

// contribute adds the seen-index rows for a block to its chain commit
// batch. It runs under the chain lock and is a pure function of the
// block — it must not take l.mu (sweep holds l.mu while reading chain
// state).
func (l *Ledger) contribute(ev chain.PersistEvent, b *store.Batch) {
	for _, btx := range ev.Block.Transactions {
		h, ok := ExtractMetaHash(btx)
		if !ok {
			continue
		}
		if ev.Connected {
			b.Put(keySeen(h), btx.TxHash().Bytes())
		} else {
			// If another main-chain carrier bears the same commitment
			// hash the row briefly vanishes; the reconnects of the same
			// reorg restore it, and startup only cross-checks rows that
			// exist.
			b.Delete(keySeen(h))
		}
	}
}
