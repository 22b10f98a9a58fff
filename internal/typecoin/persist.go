package typecoin

// Ledger persistence. The typed state (global basis, unconsumed typed
// outputs) is a deterministic function of the chain and the announced
// object set, so it is never serialized: OpenLedger replays it from the
// recovered chain. What is persisted is the one input the chain cannot
// reproduce:
//
//	ka + commitment hash -> announced object ('L' fallback list / 'B'
//	                        batch). Announcements arrive out of band and
//	                        are written at Announce time.
//
// The running ledger never reads the store.

import (
	"bytes"
	"errors"

	"typecoin/internal/chain"
	"typecoin/internal/chainhash"
	"typecoin/internal/store"
)

func keyKnown(h chainhash.Hash) []byte { return append([]byte("ka"), h[:]...) }

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
// recovered chain and audited. From then on every announcement writes
// its own row; nothing is read back.
func OpenLedger(c *chain.Chain, minConf int) (*Ledger, error) {
	l := newLedger(c, minConf, c.Store())
	err := l.st.Iterate([]byte("ka"), func(k, v []byte) error {
		if len(k) != 2+32 {
			return errors.New("typecoin: malformed ka key")
		}
		obj, err := decodeAnnouncement(v)
		if err != nil {
			return err
		}
		var h chainhash.Hash
		copy(h[:], k[2:])
		l.known[h] = obj
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.Subscribe(l.onChainChange)

	l.mu.Lock()
	defer l.mu.Unlock()
	l.rebuildLocked()
	if err := l.state.AuditAffine(); err != nil {
		return nil, err
	}
	return l, nil
}

// persistLocked writes the ka row of a newly announced obj (nil when
// the caller announced nothing), behind any batch the store refused
// earlier. Caller holds l.mu. A no-op for memory-only ledgers and when
// there is nothing to write.
func (l *Ledger) persistLocked(h chainhash.Hash, obj interface{}) {
	if l.st == nil {
		return
	}
	b := l.unwritten
	if enc := encodeAnnouncement(obj); enc != nil {
		if b == nil {
			b = store.NewBatch()
		}
		b.Put(keyKnown(h), enc)
	}
	if b == nil {
		return
	}
	// A refused Apply took nothing. Its rows are kept and retried ahead
	// of the next announcement's, or on the next block connect, whichever
	// comes first. If the process dies first, peers re-supply a lost
	// announcement (tcget).
	l.unwritten = nil
	if l.st.Apply(b) != nil {
		l.unwritten = b
	}
}
