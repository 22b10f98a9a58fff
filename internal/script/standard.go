package script

import (
	"errors"
	"fmt"

	"typecoin/internal/bkey"
	"typecoin/internal/chainhash"
	"typecoin/internal/wire"
)

// ScriptClass classifies locking scripts into the small set of schemas
// that the network deems standard. "A very small number of script schemas
// are deemed to be standard, and most Bitcoin nodes will not forward
// transactions that use non-standard scripts." (paper, Section 3.3).
type ScriptClass int

const (
	// NonStandardTy is any script outside the standard schemas; nodes
	// refuse to relay transactions creating or spending these.
	NonStandardTy ScriptClass = iota
	// PubKeyTy pays directly to a public key.
	PubKeyTy
	// PubKeyHashTy pays to the hash of a public key (the common case).
	PubKeyHashTy
	// MultiSigTy is the m-of-n schema (BIP 11). Typecoin uses its 1-of-2
	// form to embed metadata: one key is real, the other is the hash of
	// the Typecoin transaction. Because the real key alone can spend, the
	// output remains garbage-collectable from the UTXO table.
	MultiSigTy
	// NullDataTy is a provably unspendable OP_RETURN data carrier.
	NullDataTy
)

// String names the class.
func (c ScriptClass) String() string {
	switch c {
	case PubKeyTy:
		return "pubkey"
	case PubKeyHashTy:
		return "pubkeyhash"
	case MultiSigTy:
		return "multisig"
	case NullDataTy:
		return "nulldata"
	default:
		return "nonstandard"
	}
}

// PayToPubKeyHash builds the canonical P2PKH locking script:
//
//	OP_DUP OP_HASH160 <principal> OP_EQUALVERIFY OP_CHECKSIG
func PayToPubKeyHash(p bkey.Principal) []byte {
	return NewBuilder().
		AddOp(OP_DUP).AddOp(OP_HASH160).AddData(p[:]).
		AddOp(OP_EQUALVERIFY).AddOp(OP_CHECKSIG).
		MustScript()
}

// PayToPubKey builds the P2PK locking script: <pubkey> OP_CHECKSIG.
func PayToPubKey(pk *bkey.PublicKey) []byte {
	return NewBuilder().AddData(pk.Serialize()).AddOp(OP_CHECKSIG).MustScript()
}

// MultiSigScript builds an m-of-n locking script:
//
//	OP_m <key1> ... <keyn> OP_n OP_CHECKMULTISIG
//
// Each key slot is a raw 65-byte serialized key; slots holding metadata
// rather than genuine keys are permitted (that is the whole point of the
// 1-of-2 encoding), so keys are passed as raw bytes.
func MultiSigScript(m int, keySlots ...[]byte) ([]byte, error) {
	n := len(keySlots)
	if m < 1 || m > n || n > maxPubKeysPerMultiSig {
		return nil, fmt.Errorf("script: invalid multisig %d-of-%d", m, n)
	}
	b := NewBuilder().AddInt64(int64(m))
	for _, k := range keySlots {
		if len(k) != bkey.SerializedPubKeySize {
			return nil, fmt.Errorf("script: multisig key slot has %d bytes, want %d",
				len(k), bkey.SerializedPubKeySize)
		}
		b.AddData(k)
	}
	b.AddInt64(int64(n)).AddOp(OP_CHECKMULTISIG)
	return b.Script()
}

// NullDataScript builds OP_RETURN <data>: a provably unspendable output.
// The chain can prune these, but the paper rejects pre-OP_RETURN bogus
// P2PKH outputs for metadata because they bloat the UTXO table (Section
// 3.3); experiment E3 measures that effect.
func NullDataScript(data []byte) ([]byte, error) {
	if len(data) > maxNullDataSize {
		return nil, fmt.Errorf("script: null data of %d bytes exceeds %d", len(data), maxNullDataSize)
	}
	return NewBuilder().AddOp(OP_RETURN).AddData(data).Script()
}

const maxNullDataSize = 80

// The matchers below read a script through the tokenizer and so allocate
// nothing; each requires the script to end where its schema does, which
// also makes a parse error anywhere in the script a mismatch.

// Classify determines the class of a locking script.
func Classify(pkScript []byte) ScriptClass {
	if _, ok := ExtractPubKeyHash(pkScript); ok {
		return PubKeyHashTy
	}
	if matchPubKey(pkScript) {
		return PubKeyTy
	}
	if _, _, ok := matchMultiSig(pkScript); ok {
		return MultiSigTy
	}
	if _, ok := ExtractNullData(pkScript); ok {
		return NullDataTy
	}
	return NonStandardTy
}

// matchPubKey matches <65 bytes> OP_CHECKSIG.
func matchPubKey(s []byte) bool {
	t := tokenizer{s: s}
	return t.next() && len(t.in.Data) == bkey.SerializedPubKeySize &&
		t.next() && t.in.Opcode == OP_CHECKSIG && t.atEnd()
}

// matchMultiSig matches OP_m <65 bytes>{n} OP_n OP_CHECKMULTISIG with
// 1 <= m <= n and returns m and n. The key slots are the n instructions
// after the first.
func matchMultiSig(s []byte) (m, n int, ok bool) {
	t := tokenizer{s: s}
	if !t.next() {
		return 0, 0, false
	}
	if m, ok = smallInt(t.in.Opcode); !ok || m < 1 {
		return 0, 0, false
	}
	for {
		if !t.next() {
			return 0, 0, false
		}
		if len(t.in.Data) != bkey.SerializedPubKeySize {
			break
		}
		n++
	}
	// The instruction that ended the run of key slots must be OP_n.
	if v, isInt := smallInt(t.in.Opcode); !isInt || v != n || n < m {
		return 0, 0, false
	}
	return m, n, t.next() && t.in.Opcode == OP_CHECKMULTISIG && t.atEnd()
}

// ExtractPubKeyHash returns the principal a P2PKH script pays, or false:
// OP_DUP OP_HASH160 <20 bytes> OP_EQUALVERIFY OP_CHECKSIG.
func ExtractPubKeyHash(pkScript []byte) (bkey.Principal, bool) {
	var p bkey.Principal
	t := tokenizer{s: pkScript}
	if !(t.next() && t.in.Opcode == OP_DUP &&
		t.next() && t.in.Opcode == OP_HASH160 &&
		t.next() && len(t.in.Data) == bkey.PrincipalSize) {
		return p, false
	}
	hash := t.in.Data
	if !(t.next() && t.in.Opcode == OP_EQUALVERIFY &&
		t.next() && t.in.Opcode == OP_CHECKSIG && t.atEnd()) {
		return p, false
	}
	copy(p[:], hash)
	return p, true
}

// ExtractMultiSig returns (m, keySlots) for a multisig script, or false.
func ExtractMultiSig(pkScript []byte) (int, [][]byte, bool) {
	m, n, ok := matchMultiSig(pkScript)
	if !ok {
		return 0, nil, false
	}
	keys := make([][]byte, 0, n)
	t := tokenizer{s: pkScript}
	t.next() // OP_m
	for len(keys) < n && t.next() {
		keys = append(keys, t.in.Data)
	}
	return m, keys, true
}

// ExtractNullData returns the payload of an OP_RETURN script, or false:
// OP_RETURN alone, or followed by one instruction carrying at most
// maxNullDataSize bytes.
func ExtractNullData(pkScript []byte) ([]byte, bool) {
	t := tokenizer{s: pkScript}
	if !t.next() || t.in.Opcode != OP_RETURN {
		return nil, false
	}
	if t.atEnd() {
		return nil, true
	}
	if !t.next() || len(t.in.Data) > maxNullDataSize || !t.atEnd() {
		return nil, false
	}
	return t.in.Data, true
}

// IsStandard reports whether a locking script is one of the standard
// schemas that nodes relay.
func IsStandard(pkScript []byte) bool {
	return Classify(pkScript) != NonStandardTy
}

// ErrNotMine is returned by signing helpers when the script does not pay
// the provided key.
var ErrNotMine = errors.New("script: output does not pay the provided key")

// SignatureScript builds the unlocking script for a P2PKH or P2PK output:
// <sig> [<pubkey>].
func SignatureScript(tx *wire.MsgTx, idx int, pkScript []byte, hashType SigHashType, key *bkey.PrivateKey) ([]byte, error) {
	digest, err := CalcSignatureHash(pkScript, hashType, tx, idx)
	if err != nil {
		return nil, err
	}
	sig, err := key.Sign(digest[:])
	if err != nil {
		return nil, err
	}
	sigBytes := append(sig.Serialize(), byte(hashType))
	if p, ok := ExtractPubKeyHash(pkScript); ok {
		if p != key.Principal() {
			return nil, ErrNotMine
		}
		return NewBuilder().AddData(sigBytes).AddData(key.PubKey().Serialize()).Script()
	}
	if matchPubKey(pkScript) {
		return NewBuilder().AddData(sigBytes).Script()
	}
	return nil, fmt.Errorf("script: cannot build signature script for %v", Classify(pkScript))
}

// MultiSigSignatureScript builds the unlocking script for an m-of-n
// output: OP_0 <sig1> ... <sigm>. Each key in keys must be able to satisfy
// one of the script's slots.
func MultiSigSignatureScript(tx *wire.MsgTx, idx int, pkScript []byte, hashType SigHashType, keys ...*bkey.PrivateKey) ([]byte, error) {
	m, _, ok := ExtractMultiSig(pkScript)
	if !ok {
		return nil, errors.New("script: not a multisig script")
	}
	if len(keys) != m {
		return nil, fmt.Errorf("script: multisig needs %d keys, got %d", m, len(keys))
	}
	digest, err := CalcSignatureHash(pkScript, hashType, tx, idx)
	if err != nil {
		return nil, err
	}
	b := NewBuilder().AddOp(OP_0) // the CHECKMULTISIG dummy element
	for _, key := range keys {
		sig, err := key.Sign(digest[:])
		if err != nil {
			return nil, err
		}
		b.AddData(append(sig.Serialize(), byte(hashType)))
	}
	return b.Script()
}

// MetadataKeySlot packs a 32-byte hash into a fake "public key" slot for
// the 1-of-2 multisig metadata encoding (paper, Section 3.3). The slot is
// 0x02 || hash || zero padding — 0x02 is never a valid prefix for our
// uncompressed keys, so a metadata slot can never collide with a real key.
func MetadataKeySlot(h chainhash.Hash) []byte {
	slot := make([]byte, bkey.SerializedPubKeySize)
	slot[0] = 0x02
	copy(slot[1:33], h[:])
	return slot
}

// ExtractMetadataKeySlot recovers the hash from a metadata key slot, or
// false if the slot is a genuine key.
func ExtractMetadataKeySlot(slot []byte) (chainhash.Hash, bool) {
	if len(slot) != bkey.SerializedPubKeySize || slot[0] != 0x02 {
		return chainhash.Hash{}, false
	}
	var h chainhash.Hash
	copy(h[:], slot[1:33])
	return h, true
}

// RawMultiSigSignature produces one raw multisig signature (DER plus the
// hash-type byte) for input idx of tx spending pkScript. Escrow agents
// sign independently with this; the claimant assembles the final script
// with AssembleMultiSig.
func RawMultiSigSignature(tx *wire.MsgTx, idx int, pkScript []byte, hashType SigHashType, key *bkey.PrivateKey) ([]byte, error) {
	digest, err := CalcSignatureHash(pkScript, hashType, tx, idx)
	if err != nil {
		return nil, err
	}
	sig, err := key.Sign(digest[:])
	if err != nil {
		return nil, err
	}
	return append(sig.Serialize(), byte(hashType)), nil
}

// AssembleMultiSig builds the unlocking script OP_0 <sig1> ... <sigm>
// from independently produced raw signatures. The signatures must be in
// the same order as their keys appear in the locking script.
func AssembleMultiSig(rawSigs ...[]byte) ([]byte, error) {
	if len(rawSigs) == 0 {
		return nil, errors.New("script: no signatures to assemble")
	}
	b := NewBuilder().AddOp(OP_0)
	for _, s := range rawSigs {
		if len(s) < 2 {
			return nil, errors.New("script: malformed raw signature")
		}
		b.AddData(s)
	}
	return b.Script()
}
