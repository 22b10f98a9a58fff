// Package typecoin implements the paper's primary contribution: Typecoin
// transactions, whose inputs and outputs carry propositions of the affine
// authorization logic instead of (only) bitcoin amounts, together with
// transaction formation checking, chain formation, the Bitcoin embedding
// (the 1-of-2 multisig metadata encoding of Section 3.3), and the
// trust-free verifier that checks a claimed txout type from the upstream
// transaction set (Section 3).
package typecoin

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"typecoin/internal/bkey"
	"typecoin/internal/chainhash"
	"typecoin/internal/lf"
	"typecoin/internal/logic"
	"typecoin/internal/proof"
	"typecoin/internal/wire"
)

// Input is one typed transaction input: txid.n |-> A/a. The Source
// outpoint names an output of the *carrier* Bitcoin transaction of an
// earlier Typecoin transaction; Type is that output's proposition (in the
// global namespace, i.e. after its [txid/this] substitution).
type Input struct {
	Source wire.OutPoint
	Type   logic.Prop
	Amount int64
}

// Output is one typed transaction output: A/b ->> K. Type may refer to
// constants declared by this transaction's local basis via this.l
// references. Owner is the recipient's public key — the paper locks
// outputs "using Bob's public key"; the principal is its hash.
//
// When Escrow is set, the carrier output is locked with an m-of-n
// multisig over the escrow pool's keys instead of the owner's single key
// (Section 7: "we can lessen the need for trust by sending the prize to
// several escrow agents at once, using an m-of-n script"). Owner remains
// the beneficial principal for receipt purposes.
type Output struct {
	Type   logic.Prop
	Amount int64
	Owner  *bkey.PublicKey
	Escrow *EscrowLock
}

// EscrowLock describes an m-of-n escrow pool holding an output.
type EscrowLock struct {
	M    int
	Keys []*bkey.PublicKey
}

// lockKeys returns the real key slots that must appear in the carrier
// locking script, and the signature threshold.
func (o *Output) lockKeys() (int, [][]byte) {
	if o.Escrow == nil {
		return 1, [][]byte{o.Owner.Serialize()}
	}
	slots := make([][]byte, len(o.Escrow.Keys))
	for i, k := range o.Escrow.Keys {
		slots[i] = k.Serialize()
	}
	return o.Escrow.M, slots
}

// OwnerPrincipal returns the output's owner principal; the zero
// principal when the owner is an unfilled open-transaction hole.
func (o *Output) OwnerPrincipal() bkey.Principal {
	if o.Owner == nil {
		return bkey.Principal{}
	}
	return o.Owner.Principal()
}

// Tx is a Typecoin transaction (Sigma, C, inputs, outputs, M): a local
// basis of persistent definitions, an affine grant, typed inputs and
// outputs, and a proof term showing that the outputs (plus receipts) are
// derivable from the grant and inputs.
type Tx struct {
	Basis   *logic.Basis
	Grant   logic.Prop
	Inputs  []Input
	Outputs []Output
	Proof   proof.Term
}

// NewTx returns an empty transaction with a fresh local basis and a
// trivial grant.
func NewTx() *Tx {
	return &Tx{Basis: logic.NewBasis(nil), Grant: logic.One}
}

// Domain computes the proposition the proof term must consume:
// C (x) A (x) R, where A tensors the input types and R tensors the
// receipts for the outputs (left-nested; empty products are 1).
func (tx *Tx) Domain() logic.Prop {
	inTypes := make([]logic.Prop, len(tx.Inputs))
	for i, in := range tx.Inputs {
		inTypes[i] = in.Type
	}
	receipts := make([]logic.Prop, len(tx.Outputs))
	for i, out := range tx.Outputs {
		receipts[i] = logic.Receipt(out.Type, out.Amount, lf.Principal(out.OwnerPrincipal()))
	}
	return logic.Tensor(tx.Grant, logic.Tensor(inTypes...), logic.Tensor(receipts...))
}

// Codomain computes the proposition the proof term must produce before
// any top-level conditional: B, the tensor of the output types.
func (tx *Tx) Codomain() logic.Prop {
	outTypes := make([]logic.Prop, len(tx.Outputs))
	for i, out := range tx.Outputs {
		outTypes[i] = out.Type
	}
	return logic.Tensor(outTypes...)
}

// appendCommon appends everything except the proof term.
func (tx *Tx) appendCommon(dst []byte) ([]byte, error) {
	dst, err := logic.AppendBasis(dst, tx.Basis)
	if err != nil {
		return nil, err
	}
	if dst, err = logic.AppendProp(dst, tx.Grant); err != nil {
		return nil, err
	}
	dst = wire.AppendVarInt(dst, uint64(len(tx.Inputs)))
	for _, in := range tx.Inputs {
		dst = append(dst, in.Source.Hash[:]...)
		dst = wire.AppendVarInt(dst, uint64(in.Source.Index))
		if dst, err = logic.AppendProp(dst, in.Type); err != nil {
			return nil, err
		}
		dst = wire.AppendVarInt(dst, uint64(in.Amount))
	}
	dst = wire.AppendVarInt(dst, uint64(len(tx.Outputs)))
	for _, out := range tx.Outputs {
		if dst, err = logic.AppendProp(dst, out.Type); err != nil {
			return nil, err
		}
		dst = wire.AppendVarInt(dst, uint64(out.Amount))
		// Owner presence flag: 0 marks an open-transaction owner hole.
		if out.Owner == nil {
			dst = append(dst, 0)
		} else {
			dst = append(append(dst, 1), out.Owner.Serialize()...)
		}
		if out.Escrow == nil {
			dst = append(dst, 0)
			continue
		}
		dst = wire.AppendVarInt(dst, uint64(out.Escrow.M))
		dst = wire.AppendVarInt(dst, uint64(len(out.Escrow.Keys)))
		for _, k := range out.Escrow.Keys {
			dst = append(dst, k.Serialize()...)
		}
	}
	return dst, nil
}

// encoded returns the full canonical encoding in one buffer and the
// length of its SigPayload prefix: the encoding is the payload followed
// by the proof term, so a caller that needs both encodes once.
func (tx *Tx) encoded() (full []byte, payloadLen int, err error) {
	// Typical transactions (a transfer with its proof) run to a few
	// hundred bytes; larger ones grow the buffer.
	full, err = tx.appendCommon(make([]byte, 0, 1024))
	if err != nil {
		return nil, 0, err
	}
	if tx.Proof == nil {
		return nil, 0, errors.New("typecoin: transaction without proof term")
	}
	payloadLen = len(full)
	full, err = proof.Append(full, tx.Proof)
	return full, payloadLen, err
}

// SigPayload returns the canonical encoding of the transaction minus its
// proof term: the material an affine assert signature covers ("sig signs
// essentially the entire transaction in which it appears ... the proof
// term need not be signed, and indeed cannot be, since it contains the
// signatures").
func (tx *Tx) SigPayload() []byte {
	b, err := tx.appendCommon(nil)
	if err != nil {
		panic("typecoin: impossible encode failure: " + err.Error())
	}
	return b
}

// Encode writes the full transaction.
func (tx *Tx) Encode(w io.Writer) error {
	b, _, err := tx.encoded()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Bytes returns the full canonical encoding.
func (tx *Tx) Bytes() []byte {
	b, _, err := tx.encoded()
	if err != nil {
		panic("typecoin: impossible encode failure: " + err.Error())
	}
	return b
}

// Hash computes the Typecoin transaction hash that is embedded into the
// carrier Bitcoin transaction (Section 3): a tagged hash of the full
// canonical encoding, proof term included. It is recomputed on every
// call: the exported fields may change after hashing, so nothing is
// memoized on the struct, and code that already holds a transaction's
// hash passes it along instead of asking again.
func (tx *Tx) Hash() chainhash.Hash { return hashEncoded(tx.Bytes()) }

// hashEncoded is Hash for a caller that holds the encoding.
func hashEncoded(full []byte) chainhash.Hash {
	return chainhash.TaggedHash("typecoin/tx", full)
}

// Decode reads a full transaction. The local basis is reconstructed
// standalone (over the built-in globals only); checkers rebase it onto
// their global basis.
func Decode(r io.Reader) (*Tx, error) {
	basis, err := logic.DecodeBasis(r, nil)
	if err != nil {
		return nil, fmt.Errorf("typecoin: decoding basis: %w", err)
	}
	grant, err := logic.DecodeProp(r)
	if err != nil {
		return nil, fmt.Errorf("typecoin: decoding grant: %w", err)
	}
	tx := &Tx{Basis: basis, Grant: grant}
	nIn, err := wire.ReadVarInt(r)
	if err != nil {
		return nil, err
	}
	if nIn > 10000 {
		return nil, fmt.Errorf("typecoin: implausible input count %d", nIn)
	}
	for i := uint64(0); i < nIn; i++ {
		var in Input
		if _, err := io.ReadFull(r, in.Source.Hash[:]); err != nil {
			return nil, err
		}
		idx, err := wire.ReadVarInt(r)
		if err != nil {
			return nil, err
		}
		if idx > 0xffffffff {
			return nil, fmt.Errorf("typecoin: bad outpoint index %d", idx)
		}
		in.Source.Index = uint32(idx)
		if in.Type, err = logic.DecodeProp(r); err != nil {
			return nil, err
		}
		amount, err := wire.ReadVarInt(r)
		if err != nil {
			return nil, err
		}
		if amount > wire.MaxSatoshi {
			return nil, fmt.Errorf("typecoin: bad input amount %d", amount)
		}
		in.Amount = int64(amount)
		tx.Inputs = append(tx.Inputs, in)
	}
	nOut, err := wire.ReadVarInt(r)
	if err != nil {
		return nil, err
	}
	if nOut > 10000 {
		return nil, fmt.Errorf("typecoin: implausible output count %d", nOut)
	}
	for i := uint64(0); i < nOut; i++ {
		var out Output
		if out.Type, err = logic.DecodeProp(r); err != nil {
			return nil, err
		}
		amount, err := wire.ReadVarInt(r)
		if err != nil {
			return nil, err
		}
		if amount > wire.MaxSatoshi {
			return nil, fmt.Errorf("typecoin: bad output amount %d", amount)
		}
		out.Amount = int64(amount)
		hasOwner, err := wire.ReadVarInt(r)
		if err != nil {
			return nil, err
		}
		if hasOwner > 1 {
			return nil, fmt.Errorf("typecoin: bad owner flag %d", hasOwner)
		}
		if hasOwner == 1 {
			keyBytes := make([]byte, bkey.SerializedPubKeySize)
			if _, err := io.ReadFull(r, keyBytes); err != nil {
				return nil, err
			}
			if out.Owner, err = bkey.ParsePubKey(keyBytes); err != nil {
				return nil, err
			}
		}
		m, err := wire.ReadVarInt(r)
		if err != nil {
			return nil, err
		}
		if m > 0 {
			n, err := wire.ReadVarInt(r)
			if err != nil {
				return nil, err
			}
			if n < m || n > 20 {
				return nil, fmt.Errorf("typecoin: bad escrow %d-of-%d", m, n)
			}
			lock := &EscrowLock{M: int(m)}
			for j := uint64(0); j < n; j++ {
				kb := make([]byte, bkey.SerializedPubKeySize)
				if _, err := io.ReadFull(r, kb); err != nil {
					return nil, err
				}
				k, err := bkey.ParsePubKey(kb)
				if err != nil {
					return nil, err
				}
				lock.Keys = append(lock.Keys, k)
			}
			out.Escrow = lock
		}
		tx.Outputs = append(tx.Outputs, out)
	}
	if tx.Proof, err = proof.Decode(r); err != nil {
		return nil, fmt.Errorf("typecoin: decoding proof: %w", err)
	}
	return tx, nil
}

// DecodeBytes decodes a transaction from its canonical encoding,
// rejecting trailing garbage.
func DecodeBytes(b []byte) (*Tx, error) {
	r := bytes.NewReader(b)
	tx, err := Decode(r)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, errors.New("typecoin: trailing bytes after transaction")
	}
	return tx, nil
}

// inferProof infers the proof term's type against a basis and payload.
func inferProof(basis *logic.Basis, payload []byte, tx *Tx) (logic.Prop, error) {
	return proof.Infer(basis, payload, tx.Proof)
}

// ReferencedCarriers returns the carrier txids of every transaction whose
// constants this transaction mentions — in its basis, grant, input and
// output types, and proof term. A verifier needs those transactions in
// the upstream set even when no resource flows from them (basis
// dependencies).
func (tx *Tx) ReferencedCarriers() []chainhash.Hash {
	seen := make(map[chainhash.Hash]bool)
	collect := func(r lf.Ref) {
		if r.Kind == lf.RefTx {
			seen[r.Tx] = true
		}
	}
	tx.Basis.CollectBasisRefs(collect)
	logic.CollectPropRefs(tx.Grant, collect)
	for _, in := range tx.Inputs {
		logic.CollectPropRefs(in.Type, collect)
	}
	for _, out := range tx.Outputs {
		logic.CollectPropRefs(out.Type, collect)
	}
	if tx.Proof != nil {
		proof.CollectRefs(tx.Proof, collect)
	}
	out := make([]chainhash.Hash, 0, len(seen))
	for h := range seen {
		out = append(out, h)
	}
	return out
}
