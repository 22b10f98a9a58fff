package typecoin

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"typecoin/internal/chainhash"
	"typecoin/internal/logic"
)

// Fallback transactions (Section 5). A transaction discharging a
// volatile condition might be invalid by the time it enters the
// blockchain, and "an invalid transaction spoils its inputs". A fallback
// list is a primary transaction plus alternatives; the carrier commits to
// the hash of the whole list, and "if the primary transaction turns out
// to be invalid, the first valid fallback transaction is used instead."
//
// All transactions in the list must map onto the same Bitcoin
// transaction: they must agree on the input txouts, the output
// principals, and the input and output bitcoin amounts.

// FallbackList is a primary transaction (index 0) plus fallbacks.
type FallbackList struct {
	Txs []*Tx
}

// Fallback errors.
var (
	ErrListShape = errors.New("typecoin: fallback transactions do not map onto the same bitcoin transaction")
	ErrNoValidTx = errors.New("typecoin: no transaction in the fallback list is valid")
	ErrListEmpty = errors.New("typecoin: empty fallback list")
)

// Validate checks the same-carrier requirement.
func (f *FallbackList) Validate() error {
	if len(f.Txs) == 0 {
		return ErrListEmpty
	}
	primary := f.Txs[0]
	for n, tx := range f.Txs[1:] {
		if len(tx.Inputs) != len(primary.Inputs) || len(tx.Outputs) != len(primary.Outputs) {
			return fmt.Errorf("%w: fallback %d shape", ErrListShape, n+1)
		}
		for i := range tx.Inputs {
			if tx.Inputs[i].Source != primary.Inputs[i].Source {
				return fmt.Errorf("%w: fallback %d input %d source", ErrListShape, n+1, i)
			}
			if tx.Inputs[i].Amount != primary.Inputs[i].Amount {
				return fmt.Errorf("%w: fallback %d input %d amount", ErrListShape, n+1, i)
			}
		}
		for i := range tx.Outputs {
			if tx.Outputs[i].Amount != primary.Outputs[i].Amount {
				return fmt.Errorf("%w: fallback %d output %d amount", ErrListShape, n+1, i)
			}
			if tx.Outputs[i].Owner == nil || primary.Outputs[i].Owner == nil ||
				!bytes.Equal(tx.Outputs[i].Owner.Serialize(), primary.Outputs[i].Owner.Serialize()) {
				return fmt.Errorf("%w: fallback %d output %d owner", ErrListShape, n+1, i)
			}
		}
	}
	return nil
}

// Hash commits to the entire list; the carrier's metadata slot carries
// this hash when a fallback list is in play. A singleton list hashes
// identically to its lone transaction, so ordinary transactions are the
// special case.
func (f *FallbackList) Hash() chainhash.Hash {
	if len(f.Txs) == 1 {
		return f.Txs[0].Hash()
	}
	var buf []byte
	for _, tx := range f.Txs {
		b := tx.Bytes()
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(b)))
		buf = append(buf, b...)
	}
	return chainhash.TaggedHash("typecoin/txlist", buf)
}

// Select returns the first transaction in the list that passes CheckTx
// against the state under the oracle, along with its index. The paper's
// "typical fallback transaction simply returns all inputs to their
// original owners."
func (f *FallbackList) Select(s *State, oracle logic.Oracle) (*Tx, int, error) {
	return f.selectBy(func(_ int, tx *Tx) error {
		_, err := s.CheckTx(tx, oracle)
		return err
	})
}

// selectBy is Select with the check supplied: the ledger's answers the
// closed half from its verdict map.
func (f *FallbackList) selectBy(check func(i int, tx *Tx) error) (*Tx, int, error) {
	if err := f.Validate(); err != nil {
		return nil, -1, err
	}
	var firstErr error
	for i, tx := range f.Txs {
		if err := check(i, tx); err == nil {
			return tx, i, nil
		} else if firstErr == nil {
			firstErr = err
		}
	}
	return nil, -1, fmt.Errorf("%w (primary failed with: %v)", ErrNoValidTx, firstErr)
}
