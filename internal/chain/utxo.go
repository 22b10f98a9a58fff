package chain

import (
	"fmt"
	"sort"

	"typecoin/internal/chainhash"
	"typecoin/internal/wire"
)

// UtxoEntry is one row of the unspent-transaction-output table.
//
// "Any Bitcoin node that verifies transactions' validity must be able to
// tell whether a particular txout has been spent already, and this
// requires maintaining a table of all unspent txouts." (paper, Section
// 3.3). The size of this table is exactly what experiment E3 measures for
// the two metadata-embedding strategies.
//
// Entries are never modified once inserted: Lookup hands out the shared
// pointer, and the undo journal keeps it after the row is spent.
type UtxoEntry struct {
	Out        wire.TxOut
	Height     int
	IsCoinBase bool
}

// UtxoView is the unspent-txout table for one chain tip. It does no
// locking of its own: the chain's view is guarded by Chain.mu, and a
// view built by a caller belongs to that caller.
type UtxoView struct {
	entries map[wire.OutPoint]*UtxoEntry
}

// NewUtxoView returns an empty table.
func NewUtxoView() *UtxoView {
	return &UtxoView{entries: make(map[wire.OutPoint]*UtxoEntry)}
}

// Lookup returns the entry for op, or nil if op is spent or unknown.
func (v *UtxoView) Lookup(op wire.OutPoint) *UtxoEntry {
	return v.entries[op]
}

// Size returns the number of unspent txouts — the table "deadweight"
// metric of Section 3.3. Provably unspendable outputs (OP_RETURN) are
// never added, matching how real nodes prune them.
func (v *UtxoView) Size() int {
	return len(v.entries)
}

// add inserts the outputs of tx at the given height.
func (v *UtxoView) add(tx *wire.MsgTx, height int) {
	txid := tx.TxHash()
	isCB := tx.IsCoinBase()
	for i, out := range tx.TxOut {
		if isUnspendable(out.PkScript) {
			continue
		}
		op := wire.OutPoint{Hash: txid, Index: uint32(i)}
		v.entries[op] = &UtxoEntry{Out: *out, Height: height, IsCoinBase: isCB}
	}
}

// spend removes op, returning the removed entry for undo journaling.
func (v *UtxoView) spend(op wire.OutPoint) (*UtxoEntry, error) {
	e, ok := v.entries[op]
	if !ok {
		return nil, fmt.Errorf("chain: outpoint %v is spent or unknown", op)
	}
	delete(v.entries, op)
	return e, nil
}

// restore reinstates a previously spent entry (startup load and block
// disconnect).
func (v *UtxoView) restore(op wire.OutPoint, e *UtxoEntry) {
	v.entries[op] = e
}

// remove deletes the outputs created by tx (block disconnect).
func (v *UtxoView) remove(tx *wire.MsgTx) {
	txid := tx.TxHash()
	for i := range tx.TxOut {
		delete(v.entries, wire.OutPoint{Hash: txid, Index: uint32(i)})
	}
}

// Outpoints returns all unspent outpoints in a deterministic order;
// intended for tests, wallet rescans and the E3 measurements.
func (v *UtxoView) Outpoints() []wire.OutPoint {
	ops := make([]wire.OutPoint, 0, len(v.entries))
	for op := range v.entries {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool {
		c := chainhash.Compare(ops[i].Hash, ops[j].Hash)
		if c != 0 {
			return c < 0
		}
		return ops[i].Index < ops[j].Index
	})
	return ops
}

// isUnspendable reports whether a locking script can never be satisfied
// (leading OP_RETURN), so the output need not occupy the table.
func isUnspendable(pkScript []byte) bool {
	return len(pkScript) > 0 && pkScript[0] == 0x6a // OP_RETURN
}

// SpendRecord journals who spent an outpoint and where. The Typecoin
// condition spent(txid.n) (paper, Section 5) needs "unambiguous evidence
// of the truth or falsity" of spending; this journal is that evidence for
// the best chain.
type SpendRecord struct {
	SpentBy wire.OutPoint // transaction input that consumed it (txid of spender, input index)
	Spender chainhash.Hash
	Height  int
}
