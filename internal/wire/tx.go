package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"typecoin/internal/chainhash"
)

// Satoshi amounts. One bitcoin is 1e8 satoshi; MaxSatoshi bounds the money
// supply for sanity checking (21 million BTC).
const (
	SatoshiPerBitcoin = 1e8
	MaxSatoshi        = 21_000_000 * SatoshiPerBitcoin
)

// OutPoint identifies a particular transaction output: the txid of the
// transaction and the index of the output within it. This is the paper's
// "txid.n" reference.
type OutPoint struct {
	Hash  chainhash.Hash
	Index uint32
}

// String renders the outpoint as "txid:n".
func (o OutPoint) String() string {
	return fmt.Sprintf("%s:%d", o.Hash, o.Index)
}

// TxIn is a transaction input: the outpoint it spends plus the unlocking
// script (the digital signature material of Section 2, condition 4).
type TxIn struct {
	PreviousOutPoint OutPoint
	SignatureScript  []byte
	Sequence         uint32
}

// TxOut is a transaction output: a satoshi amount and a locking script
// (the "public key needed to spend that output").
type TxOut struct {
	Value    int64
	PkScript []byte
}

// txMemo caches the serialized form and identifier of a transaction.
// Both are derived purely from the transaction's content, so the memo is
// computed at most once and shared by every reader; the struct is
// immutable after construction.
type txMemo struct {
	ser  []byte
	hash chainhash.Hash
}

// MsgTx is a Bitcoin transaction.
//
// The serialized form and txid are memoized on first use: a transaction
// is hashed once, not once per Bytes/TxHash call. The memo is dropped by
// AddTxIn, AddTxOut and Deserialize, and Copy starts with an empty memo,
// so the invariant callers must keep is: a transaction is immutable once
// it has been hashed. Code that mutates exported fields of an
// already-hashed transaction directly must call InvalidateCache before
// the next Bytes/TxHash.
type MsgTx struct {
	Version  uint32
	TxIn     []*TxIn
	TxOut    []*TxOut
	LockTime uint32

	memo atomic.Pointer[txMemo]
}

// TxVersion is the default transaction version.
const TxVersion = 1

// MaxTxInSequenceNum is the final sequence number.
const MaxTxInSequenceNum uint32 = 0xffffffff

// NewMsgTx returns a transaction with the given version and no inputs or
// outputs.
func NewMsgTx(version uint32) *MsgTx {
	return &MsgTx{Version: version}
}

// AddTxIn appends ti to the transaction's inputs.
func (tx *MsgTx) AddTxIn(ti *TxIn) {
	tx.TxIn = append(tx.TxIn, ti)
	tx.memo.Store(nil)
}

// AddTxOut appends to to the transaction's outputs.
func (tx *MsgTx) AddTxOut(to *TxOut) {
	tx.TxOut = append(tx.TxOut, to)
	tx.memo.Store(nil)
}

// InvalidateCache drops the memoized serialization and txid. AddTxIn,
// AddTxOut, Copy and Deserialize invalidate automatically; only code that
// writes exported fields of an already-hashed transaction needs to call
// this explicitly.
func (tx *MsgTx) InvalidateCache() { tx.memo.Store(nil) }

// memoized returns the cached serialization/txid pair, computing and
// publishing it on first use. Concurrent first calls may each serialize,
// but they produce identical memos, so whichever store wins is correct.
func (tx *MsgTx) memoized() *txMemo {
	if m := tx.memo.Load(); m != nil {
		return m
	}
	m := &txMemo{ser: tx.appendTo(make([]byte, 0, tx.SerializeSize()))}
	m.hash = chainhash.DoubleHashB(m.ser)
	tx.memo.Store(m)
	return m
}

// Serialize writes the transaction in Bitcoin wire format.
func (tx *MsgTx) Serialize(w io.Writer) error {
	_, err := w.Write(tx.appendTo(make([]byte, 0, tx.SerializeSize())))
	return err
}

// appendTo appends the wire encoding to dst.
func (tx *MsgTx) appendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, tx.Version)
	dst = AppendVarInt(dst, uint64(len(tx.TxIn)))
	for _, ti := range tx.TxIn {
		dst = append(dst, ti.PreviousOutPoint.Hash[:]...)
		dst = binary.LittleEndian.AppendUint32(dst, ti.PreviousOutPoint.Index)
		dst = AppendVarBytes(dst, ti.SignatureScript)
		dst = binary.LittleEndian.AppendUint32(dst, ti.Sequence)
	}
	dst = AppendVarInt(dst, uint64(len(tx.TxOut)))
	for _, to := range tx.TxOut {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(to.Value))
		dst = AppendVarBytes(dst, to.PkScript)
	}
	return binary.LittleEndian.AppendUint32(dst, tx.LockTime)
}

// Deserialize reads a transaction in Bitcoin wire format.
func (tx *MsgTx) Deserialize(r io.Reader) error {
	tx.memo.Store(nil)
	var err error
	if tx.Version, err = readUint32(r); err != nil {
		return err
	}
	nIn, err := ReadVarInt(r)
	if err != nil {
		return err
	}
	if nIn > maxAllocation/64 {
		return errors.New("wire: too many transaction inputs")
	}
	tx.TxIn = make([]*TxIn, 0, nIn)
	for i := uint64(0); i < nIn; i++ {
		ti := &TxIn{}
		if _, err := io.ReadFull(r, ti.PreviousOutPoint.Hash[:]); err != nil {
			return err
		}
		if ti.PreviousOutPoint.Index, err = readUint32(r); err != nil {
			return err
		}
		if ti.SignatureScript, err = ReadVarBytes(r, "signature script"); err != nil {
			return err
		}
		if ti.Sequence, err = readUint32(r); err != nil {
			return err
		}
		tx.TxIn = append(tx.TxIn, ti)
	}
	nOut, err := ReadVarInt(r)
	if err != nil {
		return err
	}
	if nOut > maxAllocation/16 {
		return errors.New("wire: too many transaction outputs")
	}
	tx.TxOut = make([]*TxOut, 0, nOut)
	for i := uint64(0); i < nOut; i++ {
		to := &TxOut{}
		if to.Value, err = readInt64(r); err != nil {
			return err
		}
		if to.PkScript, err = ReadVarBytes(r, "pk script"); err != nil {
			return err
		}
		tx.TxOut = append(tx.TxOut, to)
	}
	tx.LockTime, err = readUint32(r)
	return err
}

// Bytes returns the serialized transaction. The encoding is memoized;
// the returned slice is a fresh copy the caller may freely modify.
func (tx *MsgTx) Bytes() []byte {
	ser := tx.memoized().ser
	out := make([]byte, len(ser))
	copy(out, ser)
	return out
}

// TxHash returns the transaction identifier: the double SHA-256 of the
// serialized transaction, memoized after the first computation.
func (tx *MsgTx) TxHash() chainhash.Hash {
	return tx.memoized().hash
}

// SerializeSize returns the length in bytes of the wire encoding.
func (tx *MsgTx) SerializeSize() int {
	n := 4 + 4 // version + locktime
	n += VarIntSerializeSize(uint64(len(tx.TxIn)))
	for _, ti := range tx.TxIn {
		n += 32 + 4 + 4 // outpoint + sequence
		n += VarIntSerializeSize(uint64(len(ti.SignatureScript))) + len(ti.SignatureScript)
	}
	n += VarIntSerializeSize(uint64(len(tx.TxOut)))
	for _, to := range tx.TxOut {
		n += 8
		n += VarIntSerializeSize(uint64(len(to.PkScript))) + len(to.PkScript)
	}
	return n
}

// Copy returns a deep copy of the transaction, sharing no mutable state
// with the original (callers forge variants of a transaction from it).
func (tx *MsgTx) Copy() *MsgTx {
	out := &MsgTx{
		Version:  tx.Version,
		LockTime: tx.LockTime,
		TxIn:     make([]*TxIn, len(tx.TxIn)),
		TxOut:    make([]*TxOut, len(tx.TxOut)),
	}
	for i, ti := range tx.TxIn {
		sc := make([]byte, len(ti.SignatureScript))
		copy(sc, ti.SignatureScript)
		out.TxIn[i] = &TxIn{
			PreviousOutPoint: ti.PreviousOutPoint,
			SignatureScript:  sc,
			Sequence:         ti.Sequence,
		}
	}
	for i, to := range tx.TxOut {
		pk := make([]byte, len(to.PkScript))
		copy(pk, to.PkScript)
		out.TxOut[i] = &TxOut{Value: to.Value, PkScript: pk}
	}
	return out
}

// IsCoinBase reports whether the transaction is a coinbase: a single input
// whose previous outpoint is the zero hash with index 0xffffffff.
func (tx *MsgTx) IsCoinBase() bool {
	if len(tx.TxIn) != 1 {
		return false
	}
	prev := tx.TxIn[0].PreviousOutPoint
	return prev.Hash.IsZero() && prev.Index == 0xffffffff
}
