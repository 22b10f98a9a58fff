package typecoin

// Ledger persistence. The typed state (global basis, unconsumed typed
// outputs) is a deterministic function of the chain and the announced
// object set, so it is never serialized: OpenLedger replays it from the
// recovered chain. What is persisted is the one input the chain cannot
// reproduce:
//
//	ka + commitment hash -> announced object, in the one overlay object
//	                        encoding (EncodeObject). Announcements
//	                        arrive out of band and are written at
//	                        Announce time.
//
// The running ledger never reads the store.

import (
	"bytes"
	"errors"
	"fmt"

	"typecoin/internal/chain"
	"typecoin/internal/chainhash"
	"typecoin/internal/store"
)

func keyKnown(h chainhash.Hash) []byte { return append([]byte("ka"), h[:]...) }

// Object is an overlay object: a *FallbackList (an ordinary transaction
// is a singleton list) or a *Batch, named by the commitment hash its
// carrier's metadata key holds.
type Object interface{ Hash() chainhash.Hash }

// The object encoding is a kind byte, then for a list ('L') its member
// count in one byte and each member as a 3-byte little-endian length and
// the member's encoding, and for a batch ('B') the batch's encoding. It
// is both the ka row and the payload of the p2p overlay command.
const (
	objKindList  = 'L'
	objKindBatch = 'B'
	// maxListMembers bounds a fallback list's primary and fallbacks.
	maxListMembers = 64
)

// errBadObject reports an object encoding that does not decode, or
// decodes to an object that does not encode back to the same bytes.
var errBadObject = errors.New("typecoin: malformed overlay object")

// EncodeObject returns o's encoding. It fails for an object no peer
// would accept: an empty list, one of more than 64 members, or one whose
// members do not share a carrier (FallbackList.Validate).
func EncodeObject(o Object) ([]byte, error) {
	switch o := o.(type) {
	case *FallbackList:
		if len(o.Txs) > maxListMembers {
			return nil, fmt.Errorf("%w: %d list members, at most %d", errBadObject, len(o.Txs), maxListMembers)
		}
		if err := o.Validate(); err != nil {
			return nil, err
		}
		out := []byte{objKindList, byte(len(o.Txs))}
		for _, tx := range o.Txs {
			b, _, err := tx.encoded()
			if err != nil {
				return nil, err
			}
			if len(b) >= 1<<24 {
				return nil, fmt.Errorf("%w: %d-byte list member", errBadObject, len(b))
			}
			out = append(out, byte(len(b)), byte(len(b)>>8), byte(len(b)>>16))
			out = append(out, b...)
		}
		return out, nil
	case *Batch:
		var buf bytes.Buffer
		buf.WriteByte(objKindBatch)
		if err := o.Encode(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	default:
		return nil, fmt.Errorf("%w: %T", errBadObject, o)
	}
}

// DecodeObject parses an object encoding. It accepts only what
// EncodeObject produces: a list of 1 to 64 members that pass
// FallbackList.Validate, or a batch, with no trailing bytes and in the
// canonical form, so an accepted payload re-encodes to itself.
func DecodeObject(b []byte) (Object, error) {
	if len(b) < 2 {
		return nil, errBadObject
	}
	var o Object
	switch b[0] {
	case objKindList:
		list := &FallbackList{}
		for rest := b[2:]; len(list.Txs) < int(b[1]); {
			if len(rest) < 3 {
				return nil, errBadObject
			}
			l := int(rest[0]) | int(rest[1])<<8 | int(rest[2])<<16
			if len(rest) < 3+l {
				return nil, errBadObject
			}
			tx, err := DecodeBytes(rest[3 : 3+l])
			if err != nil {
				return nil, err
			}
			list.Txs = append(list.Txs, tx)
			rest = rest[3+l:]
		}
		o = list
	case objKindBatch:
		batch, err := DecodeBatch(bytes.NewReader(b[1:]))
		if err != nil {
			return nil, err
		}
		o = batch
	default:
		return nil, errBadObject
	}
	// Re-encoding runs EncodeObject's checks and rejects trailing bytes
	// and non-canonical forms at once.
	enc, err := EncodeObject(o)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(enc, b) {
		return nil, errBadObject
	}
	return o, nil
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
		obj, err := DecodeObject(v)
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
// there is nothing to write; an object EncodeObject refuses is not
// written, as it can never apply (its list fails Validate) or reach a
// peer.
func (l *Ledger) persistLocked(h chainhash.Hash, obj Object) {
	if l.st == nil {
		return
	}
	b := l.unwritten
	if obj != nil {
		if enc, err := EncodeObject(obj); err == nil {
			if b == nil {
				b = store.NewBatch()
			}
			b.Put(keyKnown(h), enc)
		}
	}
	if b == nil {
		return
	}
	// A refused Apply took nothing. Its rows are kept and retried ahead
	// of the next announcement's, or on the next block connect, whichever
	// comes first. If the process dies first, the p2p node asks its
	// peers for the object again once its carrier is on the chain.
	l.unwritten = nil
	if l.st.Apply(b) != nil {
		l.unwritten = b
	}
}
