package wire

import (
	"encoding/binary"
	"errors"
	"io"
	"time"

	"typecoin/internal/chainhash"
)

// BlockHeader is the 80-byte Bitcoin block header. "Each block contains a
// cryptographic hash of the previous block, thereby turning the set into a
// tree" (paper, Section 1); the proof-of-work over this header is what
// makes the tree behave as a list.
type BlockHeader struct {
	Version    uint32
	PrevBlock  chainhash.Hash
	MerkleRoot chainhash.Hash
	Timestamp  time.Time
	Bits       uint32 // compact-encoded proof-of-work target
	Nonce      uint32
}

// Serialize writes the header in wire format.
func (h *BlockHeader) Serialize(w io.Writer) error {
	_, err := w.Write(h.Bytes())
	return err
}

// appendTo appends the 80-byte wire encoding to dst.
func (h *BlockHeader) appendTo(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, h.Version)
	dst = append(dst, h.PrevBlock[:]...)
	dst = append(dst, h.MerkleRoot[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(h.Timestamp.Unix()))
	dst = binary.LittleEndian.AppendUint32(dst, h.Bits)
	return binary.LittleEndian.AppendUint32(dst, h.Nonce)
}

// Deserialize reads the header in wire format.
func (h *BlockHeader) Deserialize(r io.Reader) error {
	var err error
	if h.Version, err = readUint32(r); err != nil {
		return err
	}
	if _, err = io.ReadFull(r, h.PrevBlock[:]); err != nil {
		return err
	}
	if _, err = io.ReadFull(r, h.MerkleRoot[:]); err != nil {
		return err
	}
	ts, err := readUint32(r)
	if err != nil {
		return err
	}
	h.Timestamp = time.Unix(int64(ts), 0).UTC()
	if h.Bits, err = readUint32(r); err != nil {
		return err
	}
	h.Nonce, err = readUint32(r)
	return err
}

// Bytes returns the serialized header.
func (h *BlockHeader) Bytes() []byte {
	return h.appendTo(make([]byte, 0, blockHeaderLen))
}

// BlockHash computes the block identifier: the double SHA-256 of the
// serialized header. Proof-of-work requires this hash, viewed as an
// integer, to be below the target encoded in Bits.
func (h *BlockHeader) BlockHash() chainhash.Hash {
	var buf [blockHeaderLen]byte
	return chainhash.DoubleHashB(h.appendTo(buf[:0]))
}

// MsgBlock is a block: a header plus the transactions it aggregates.
type MsgBlock struct {
	Header       BlockHeader
	Transactions []*MsgTx
}

// Serialize writes the block in wire format.
func (b *MsgBlock) Serialize(w io.Writer) error {
	_, err := w.Write(b.Bytes())
	return err
}

// Deserialize reads a block in wire format.
func (b *MsgBlock) Deserialize(r io.Reader) error {
	if err := b.Header.Deserialize(r); err != nil {
		return err
	}
	n, err := ReadVarInt(r)
	if err != nil {
		return err
	}
	if n > maxAllocation/64 {
		return errors.New("wire: too many transactions in block")
	}
	b.Transactions = make([]*MsgTx, 0, n)
	for i := uint64(0); i < n; i++ {
		tx := &MsgTx{}
		if err := tx.Deserialize(r); err != nil {
			return err
		}
		b.Transactions = append(b.Transactions, tx)
	}
	return nil
}

// Bytes returns the serialized block. Each transaction contributes its
// memoized encoding (see MsgTx), so a block whose transactions are
// already hashed is assembled by copying.
func (b *MsgBlock) Bytes() []byte {
	n := blockHeaderLen + VarIntSerializeSize(uint64(len(b.Transactions)))
	for _, tx := range b.Transactions {
		n += len(tx.memoized().ser)
	}
	out := b.Header.appendTo(make([]byte, 0, n))
	out = AppendVarInt(out, uint64(len(b.Transactions)))
	for _, tx := range b.Transactions {
		out = append(out, tx.memoized().ser...)
	}
	return out
}

// BlockHash returns the hash of the block's header.
func (b *MsgBlock) BlockHash() chainhash.Hash { return b.Header.BlockHash() }

// ComputeMerkleRoot computes the merkle root of a transaction list using
// Bitcoin's scheme (odd levels duplicate the final node).
func ComputeMerkleRoot(txs []*MsgTx) chainhash.Hash {
	if len(txs) == 0 {
		return chainhash.ZeroHash
	}
	level := make([]chainhash.Hash, len(txs))
	for i, tx := range txs {
		level[i] = tx.TxHash()
	}
	for len(level) > 1 {
		if len(level)%2 != 0 {
			level = append(level, level[len(level)-1])
		}
		next := make([]chainhash.Hash, 0, len(level)/2)
		for i := 0; i < len(level); i += 2 {
			var cat [64]byte
			copy(cat[:32], level[i][:])
			copy(cat[32:], level[i+1][:])
			next = append(next, chainhash.DoubleHashB(cat[:]))
		}
		level = next
	}
	return level[0]
}

// MerkleBranch is an inclusion proof for one transaction within a block:
// the sibling hashes from the leaf to the root plus the leaf's index.
// Batch-mode servers hand these out so thin verifiers can check that a
// carrier transaction really is in a confirmed block.
type MerkleBranch struct {
	Index    uint32
	Siblings []chainhash.Hash
}

// BuildMerkleBranch constructs the inclusion proof for the transaction at
// position index.
func BuildMerkleBranch(txs []*MsgTx, index int) (*MerkleBranch, error) {
	if index < 0 || index >= len(txs) {
		return nil, errors.New("wire: merkle branch index out of range")
	}
	level := make([]chainhash.Hash, len(txs))
	for i, tx := range txs {
		level[i] = tx.TxHash()
	}
	branch := &MerkleBranch{Index: uint32(index)}
	pos := index
	for len(level) > 1 {
		if len(level)%2 != 0 {
			level = append(level, level[len(level)-1])
		}
		sib := pos ^ 1
		branch.Siblings = append(branch.Siblings, level[sib])
		next := make([]chainhash.Hash, 0, len(level)/2)
		for i := 0; i < len(level); i += 2 {
			var cat [64]byte
			copy(cat[:32], level[i][:])
			copy(cat[32:], level[i+1][:])
			next = append(next, chainhash.DoubleHashB(cat[:]))
		}
		level = next
		pos /= 2
	}
	return branch, nil
}

// Verify recomputes the root from the leaf hash and reports whether it
// matches want.
func (mb *MerkleBranch) Verify(leaf, want chainhash.Hash) bool {
	h := leaf
	pos := mb.Index
	for _, sib := range mb.Siblings {
		var cat [64]byte
		if pos&1 == 0 {
			copy(cat[:32], h[:])
			copy(cat[32:], sib[:])
		} else {
			copy(cat[:32], sib[:])
			copy(cat[32:], h[:])
		}
		h = chainhash.DoubleHashB(cat[:])
		pos /= 2
	}
	return h == want
}
