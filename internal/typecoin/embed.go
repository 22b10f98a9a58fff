package typecoin

import (
	"bytes"
	"errors"
	"fmt"

	"typecoin/internal/chainhash"
	"typecoin/internal/script"
	"typecoin/internal/wire"
)

// The Bitcoin embedding (Section 3.3). Each Typecoin transaction rides in
// a carrier Bitcoin transaction:
//
//   - carrier input i, for i < len(Inputs), spends exactly Inputs[i].Source
//     (further carrier inputs are trivial type-1 funding inputs);
//   - carrier output 0 is a standard 1-of-2 OP_CHECKMULTISIG whose first
//     key slot is Outputs[0].Owner's real key and whose second slot packs
//     the Typecoin transaction hash — spendable by the real key alone, so
//     the UTXO table entry remains garbage-collectable;
//   - carrier output i, for 0 < i < len(Outputs), is P2PKH to
//     Outputs[i].Owner (further carrier outputs are bitcoin change of
//     type 1).

// Embedding errors.
var (
	ErrNotCarrier   = errors.New("typecoin: bitcoin transaction does not carry this typecoin transaction")
	ErrCarrierShape = errors.New("typecoin: carrier transaction shape mismatch")
)

// CarrierOutputs builds the typed prefix of the carrier transaction's
// outputs for tx: the metadata-bearing 1-of-2 first, then P2PKH outputs.
func CarrierOutputs(tx *Tx) ([]*wire.TxOut, error) {
	return carrierOutputsWithHash(tx, tx.Hash())
}

// CarrierOutputsList is CarrierOutputs for a fallback list: the carrier
// commits to the list hash, and the members agree on owners and amounts
// (FallbackList.Validate), so the primary supplies the shape.
func CarrierOutputsList(list *FallbackList) ([]*wire.TxOut, error) {
	if err := list.Validate(); err != nil {
		return nil, err
	}
	return carrierOutputsWithHash(list.Txs[0], list.Hash())
}

func carrierOutputsWithHash(tx *Tx, h chainhash.Hash) ([]*wire.TxOut, error) {
	if len(tx.Outputs) == 0 {
		return nil, ErrNoOutputs
	}
	// Output 0 carries the metadata: an m-of-(n+1) multisig over the real
	// key slots plus the metadata slot. With a single owner this is the
	// paper's 1-of-2 form; with an escrow pool it is, e.g., 2-of-4 over
	// three agents and the metadata slot, which only the real keys can
	// satisfy.
	out0 := tx.Outputs[0]
	m, slots := out0.lockKeys()
	ms, err := script.MultiSigScript(m, append(slots, script.MetadataKeySlot(h))...)
	if err != nil {
		return nil, err
	}
	outs := []*wire.TxOut{{Value: out0.Amount, PkScript: ms}}
	for i := range tx.Outputs[1:] {
		o := &tx.Outputs[i+1]
		if o.Escrow != nil {
			em, eslots := o.lockKeys()
			es, err := script.MultiSigScript(em, eslots...)
			if err != nil {
				return nil, err
			}
			outs = append(outs, &wire.TxOut{Value: o.Amount, PkScript: es})
			continue
		}
		outs = append(outs, &wire.TxOut{
			Value:    o.Amount,
			PkScript: script.PayToPubKeyHash(o.OwnerPrincipal()),
		})
	}
	return outs, nil
}

// ExtractMetaHash recovers the Typecoin commitment hash a carrier
// commits to, if any: the unique metadata slot of the multisig in output
// 0. For a single owner this is the paper's 1-of-2 form; for escrowed
// output 0 it is the m-of-(n+1) generalization.
func ExtractMetaHash(carrier *wire.MsgTx) (chainhash.Hash, bool) {
	if len(carrier.TxOut) == 0 {
		return chainhash.Hash{}, false
	}
	m, slots, ok := script.ExtractMultiSig(carrier.TxOut[0].PkScript)
	if !ok || m < 1 || len(slots) < 2 {
		return chainhash.Hash{}, false
	}
	var found chainhash.Hash
	count := 0
	for _, slot := range slots {
		if h, isMeta := script.ExtractMetadataKeySlot(slot); isMeta {
			found = h
			count++
		}
	}
	if count != 1 {
		return chainhash.Hash{}, false
	}
	return found, true
}

// VerifyEmbedding checks that carrier is a well-formed carrier for tx:
// the metadata hash matches, the typed inputs are spent in order, and
// the typed outputs pay the declared owners and amounts. (Amount
// agreement with the *spent* outputs — conditions 1 and 2 of Section 2 —
// is Bitcoin's own validation job and is enforced by the chain.)
func VerifyEmbedding(tx *Tx, carrier *wire.MsgTx) error {
	return verifyEmbeddingWithHash(tx, tx.Hash(), carrier)
}

// VerifyListEmbedding checks that carrier is a well-formed carrier for a
// fallback list whose hash is listHash: the metadata commits to the list
// hash, and the shared carrier shape (identical across members) matches.
func VerifyListEmbedding(list *FallbackList, listHash chainhash.Hash, carrier *wire.MsgTx) error {
	if err := list.Validate(); err != nil {
		return err
	}
	return verifyEmbeddingWithHash(list.Txs[0], listHash, carrier)
}

func verifyEmbeddingWithHash(tx *Tx, want chainhash.Hash, carrier *wire.MsgTx) error {
	h, ok := ExtractMetaHash(carrier)
	if !ok {
		return fmt.Errorf("%w: no metadata slot", ErrNotCarrier)
	}
	if h != want {
		return fmt.Errorf("%w: metadata commits to %s, want %s",
			ErrNotCarrier, h, want)
	}
	if len(carrier.TxIn) < len(tx.Inputs) {
		return fmt.Errorf("%w: carrier has %d inputs, typecoin names %d",
			ErrCarrierShape, len(carrier.TxIn), len(tx.Inputs))
	}
	for i, in := range tx.Inputs {
		if carrier.TxIn[i].PreviousOutPoint != in.Source {
			return fmt.Errorf("%w: carrier input %d spends %v, want %v",
				ErrCarrierShape, i, carrier.TxIn[i].PreviousOutPoint, in.Source)
		}
	}
	if len(carrier.TxOut) < len(tx.Outputs) {
		return fmt.Errorf("%w: carrier has %d outputs, typecoin names %d",
			ErrCarrierShape, len(carrier.TxOut), len(tx.Outputs))
	}
	wantOuts, err := carrierOutputsWithHash(tx, want)
	if err != nil {
		return err
	}
	for i, want := range wantOuts {
		got := carrier.TxOut[i]
		if got.Value != want.Value {
			return fmt.Errorf("%w: output %d pays %d, want %d",
				ErrCarrierShape, i, got.Value, want.Value)
		}
		if !bytes.Equal(got.PkScript, want.PkScript) {
			return fmt.Errorf("%w: output %d script mismatch", ErrCarrierShape, i)
		}
	}
	return nil
}
