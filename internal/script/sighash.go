package script

import (
	"encoding/binary"
	"errors"

	"typecoin/internal/chainhash"
	"typecoin/internal/wire"
)

// SigHashType selects which parts of the spending transaction a signature
// commits to. "Our open transactions are inspired by and generalize
// Bitcoin's SIGHASH rules, which erase parts of a transaction before
// checking its signatures, thereby allowing those parts to be altered."
// (paper, Section 8).
type SigHashType uint32

const (
	// SigHashAll commits to all inputs and outputs (the default).
	SigHashAll SigHashType = 0x01
	// SigHashNone commits to no outputs: anyone may redirect the value.
	SigHashNone SigHashType = 0x02
	// SigHashSingle commits only to the output with the same index as the
	// signed input.
	SigHashSingle SigHashType = 0x03
	// SigHashAnyOneCanPay is a modifier: the signature commits only to its
	// own input, letting others add inputs. This is the mechanism behind
	// Typecoin's open transactions (Section 7): the issuer leaves input
	// slots blank for anyone to fill in.
	SigHashAnyOneCanPay SigHashType = 0x80

	sigHashMask = 0x1f
)

// ErrSigHashSingleIndex is returned when SigHashSingle is used on an input
// whose index has no corresponding output.
var ErrSigHashSingleIndex = errors.New("script: sighash single index out of range")

// CalcSignatureHash computes the digest that a signature for input idx of
// tx signs, given the subscript (the pkScript of the output being spent)
// and the hash type.
//
// The digest is the double SHA-256 of the transaction's wire encoding
// with parts erased as the hash type says, followed by the hash type.
// The erased encoding is written straight into one buffer sized for it
// (on the stack for all but unusually large transactions); tx is only
// read.
func CalcSignatureHash(subscript []byte, hashType SigHashType, tx *wire.MsgTx, idx int) (chainhash.Hash, error) {
	if idx < 0 || idx >= len(tx.TxIn) {
		return chainhash.Hash{}, errors.New("script: sighash input index out of range")
	}
	mode := hashType & sigHashMask
	if mode == SigHashSingle && idx >= len(tx.TxOut) {
		return chainhash.Hash{}, ErrSigHashSingleIndex
	}

	// Nothing erased is longer than what it replaces except the signed
	// input's script, so this bounds the encoding from above.
	var scratch [1024]byte
	buf := scratch[:0]
	if need := tx.SerializeSize() + wire.VarIntSerializeSize(uint64(len(subscript))) + len(subscript) + 4; need > len(scratch) {
		buf = make([]byte, 0, need)
	}

	buf = binary.LittleEndian.AppendUint32(buf, tx.Version)

	// Inputs: every script blanked except the signed input's, which
	// carries the subscript. AnyOneCanPay keeps the signed input alone;
	// None and Single zero the other inputs' sequence numbers.
	ins, first := tx.TxIn, 0
	if hashType&SigHashAnyOneCanPay != 0 {
		ins, first = tx.TxIn[idx:idx+1], idx
	}
	buf = wire.AppendVarInt(buf, uint64(len(ins)))
	for i, ti := range ins {
		buf = append(buf, ti.PreviousOutPoint.Hash[:]...)
		buf = binary.LittleEndian.AppendUint32(buf, ti.PreviousOutPoint.Index)
		seq := ti.Sequence
		if first+i == idx {
			buf = wire.AppendVarBytes(buf, subscript)
		} else {
			buf = append(buf, 0)
			if mode == SigHashNone || mode == SigHashSingle {
				seq = 0
			}
		}
		buf = binary.LittleEndian.AppendUint32(buf, seq)
	}

	// Outputs: all of them, none, or only the signed input's own, behind
	// blank (-1 satoshi, empty script) placeholders for those before it.
	switch mode {
	case SigHashNone:
		buf = append(buf, 0)
	case SigHashSingle:
		buf = wire.AppendVarInt(buf, uint64(idx+1))
		for i := 0; i < idx; i++ {
			buf = append(buf, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0)
		}
		buf = appendTxOut(buf, tx.TxOut[idx])
	default:
		buf = wire.AppendVarInt(buf, uint64(len(tx.TxOut)))
		for _, to := range tx.TxOut {
			buf = appendTxOut(buf, to)
		}
	}

	buf = binary.LittleEndian.AppendUint32(buf, tx.LockTime)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(hashType))
	return chainhash.DoubleHashB(buf), nil
}

func appendTxOut(buf []byte, to *wire.TxOut) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(to.Value))
	return wire.AppendVarBytes(buf, to.PkScript)
}
