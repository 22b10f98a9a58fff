package typecoin

import (
	"bytes"
	"errors"
	"fmt"

	"typecoin/internal/bkey"
	"typecoin/internal/logic"
	"typecoin/internal/proof"
	"typecoin/internal/wire"
)

// Open transactions (Section 7): "a transaction with holes that anyone
// can fill in." The issuer fixes the basis, grant, types, amounts and
// proof, but leaves some input sources and some output owners blank; a
// claimant fills the blanks. The transaction is valid only if the
// claimant's txout really has the required type, which the type-checking
// escrow agent enforces before signing (escrow package).
//
// Bitcoin-level holes are inherited from the SIGHASH rules ("our open
// transactions are inspired by and generalize Bitcoin's SIGHASH rules").

// OpenTx is a transaction template with holes.
type OpenTx struct {
	// Template carries the fixed parts. Inputs at hole positions have a
	// zero Source; outputs at hole positions have a nil Owner.
	Template *Tx
	// OpenInputs lists input indices whose Source the claimant supplies.
	OpenInputs []int
	// OpenOwners lists output indices whose Owner the claimant supplies.
	OpenOwners []int
}

// Open-transaction errors.
var (
	ErrHoleUnfilled = errors.New("typecoin: open transaction hole not filled")
	ErrNotInstance  = errors.New("typecoin: transaction is not an instance of the template")
)

// Fill instantiates the template. The inputs map supplies a source
// outpoint per open input index; the owners map supplies a key per open
// output index.
func (o *OpenTx) Fill(inputs map[int]wire.OutPoint, owners map[int]*bkey.PublicKey) (*Tx, error) {
	tx := &Tx{
		Basis:  o.Template.Basis,
		Grant:  o.Template.Grant,
		Proof:  o.Template.Proof,
		Inputs: make([]Input, len(o.Template.Inputs)),
	}
	copy(tx.Inputs, o.Template.Inputs)
	tx.Outputs = make([]Output, len(o.Template.Outputs))
	copy(tx.Outputs, o.Template.Outputs)

	for _, i := range o.OpenInputs {
		if i < 0 || i >= len(tx.Inputs) {
			return nil, fmt.Errorf("typecoin: open input index %d out of range", i)
		}
		src, ok := inputs[i]
		if !ok {
			return nil, fmt.Errorf("%w: input %d", ErrHoleUnfilled, i)
		}
		tx.Inputs[i].Source = src
	}
	for _, i := range o.OpenOwners {
		if i < 0 || i >= len(tx.Outputs) {
			return nil, fmt.Errorf("typecoin: open output index %d out of range", i)
		}
		owner, ok := owners[i]
		if !ok {
			return nil, fmt.Errorf("%w: output %d", ErrHoleUnfilled, i)
		}
		tx.Outputs[i].Owner = owner
	}
	// The proof's top-level annotation names the domain, whose receipts
	// mention the output owners; re-annotate it for the filled instance.
	// (Matches compares proofs modulo this annotation.)
	if lam, ok := tx.Proof.(proof.Lam); ok {
		lam.Ty = tx.Domain()
		tx.Proof = lam
	}
	return tx, nil
}

// Matches checks that filled is an instance of the template: identical
// everywhere except at the declared holes. Escrow agents run this before
// applying their sign-if-it-type-checks policy, so an attacker cannot
// smuggle in a different transaction.
func (o *OpenTx) Matches(filled *Tx) error {
	t := o.Template
	openIn := make(map[int]bool, len(o.OpenInputs))
	for _, i := range o.OpenInputs {
		openIn[i] = true
	}
	openOut := make(map[int]bool, len(o.OpenOwners))
	for _, i := range o.OpenOwners {
		openOut[i] = true
	}

	if len(filled.Inputs) != len(t.Inputs) || len(filled.Outputs) != len(t.Outputs) {
		return fmt.Errorf("%w: shape differs", ErrNotInstance)
	}
	// Fixed parts must agree byte-for-byte; canonical encoding decides.
	bT, err := logic.AppendBasis(nil, t.Basis)
	if err != nil {
		return err
	}
	bF, err := logic.AppendBasis(nil, filled.Basis)
	if err != nil {
		return err
	}
	if !bytes.Equal(bT, bF) {
		return fmt.Errorf("%w: basis differs", ErrNotInstance)
	}
	if !bytes.Equal(logic.PropBytes(t.Grant), logic.PropBytes(filled.Grant)) {
		return fmt.Errorf("%w: grant differs", ErrNotInstance)
	}
	for i := range t.Inputs {
		if !openIn[i] && filled.Inputs[i].Source != t.Inputs[i].Source {
			return fmt.Errorf("%w: input %d source differs", ErrNotInstance, i)
		}
		if filled.Inputs[i].Amount != t.Inputs[i].Amount {
			return fmt.Errorf("%w: input %d amount differs", ErrNotInstance, i)
		}
		if !bytes.Equal(logic.PropBytes(filled.Inputs[i].Type), logic.PropBytes(t.Inputs[i].Type)) {
			return fmt.Errorf("%w: input %d type differs", ErrNotInstance, i)
		}
	}
	for i := range t.Outputs {
		if !openOut[i] {
			if t.Outputs[i].Owner == nil || filled.Outputs[i].Owner == nil ||
				!bytes.Equal(t.Outputs[i].Owner.Serialize(), filled.Outputs[i].Owner.Serialize()) {
				return fmt.Errorf("%w: output %d owner differs", ErrNotInstance, i)
			}
		} else if filled.Outputs[i].Owner == nil {
			return fmt.Errorf("%w: output %d", ErrHoleUnfilled, i)
		}
		if filled.Outputs[i].Amount != t.Outputs[i].Amount {
			return fmt.Errorf("%w: output %d amount differs", ErrNotInstance, i)
		}
		if !bytes.Equal(logic.PropBytes(filled.Outputs[i].Type), logic.PropBytes(t.Outputs[i].Type)) {
			return fmt.Errorf("%w: output %d type differs", ErrNotInstance, i)
		}
	}
	// The proof is part of the template: the claimant may not alter it.
	// Comparison is modulo the top-level lambda annotation, which Fill
	// rewrites to the filled domain (its receipts mention filled owners).
	var pT, pF bytes.Buffer
	if err := encodeProofCanonical(&pT, t.Proof); err != nil {
		return err
	}
	if err := encodeProofCanonical(&pF, filled.Proof); err != nil {
		return err
	}
	if !bytes.Equal(pT.Bytes(), pF.Bytes()) {
		return fmt.Errorf("%w: proof differs", ErrNotInstance)
	}
	return nil
}

// encodeProofCanonical encodes a proof with its top-level lambda
// annotation normalized away.
func encodeProofCanonical(buf *bytes.Buffer, m proof.Term) error {
	if m == nil {
		return errors.New("typecoin: transaction without proof term")
	}
	if lam, ok := m.(proof.Lam); ok {
		lam.Ty = logic.One
		m = lam
	}
	return proof.Encode(buf, m)
}
