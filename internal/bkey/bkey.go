// Package bkey implements the key, signature and address machinery used by
// the Bitcoin substrate and by the Typecoin logic.
//
// Typecoin identifies principals with cryptographic hashes of public keys
// (paper, Section 4): the LF type "principal" is inhabited by principal
// literals K, which are hash160-style digests of serialized public keys.
// The paper's protocol is curve-agnostic — it needs signing, verification,
// and hash-of-public-key — so we use the stdlib P-256 curve (see DESIGN.md,
// Substitutions).
package bkey

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/asn1"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// PrincipalSize is the byte length of a principal identifier
// (hash of a serialized public key).
const PrincipalSize = 20

// Principal is the identity of a party: the truncated SHA-256 of its
// serialized public key, playing the role of Bitcoin's hash160. Principals
// inhabit the distinguished LF type "principal".
type Principal [PrincipalSize]byte

// String renders the principal as hex.
func (p Principal) String() string { return hex.EncodeToString(p[:]) }

// IsZero reports whether p is the zero principal.
func (p Principal) IsZero() bool { return p == Principal{} }

// ParsePrincipal parses the hex form produced by String.
func ParsePrincipal(s string) (Principal, error) {
	var p Principal
	b, err := hex.DecodeString(s)
	if err != nil {
		return p, fmt.Errorf("bkey: bad principal hex: %w", err)
	}
	if len(b) != PrincipalSize {
		return p, fmt.Errorf("bkey: bad principal length %d", len(b))
	}
	copy(p[:], b)
	return p, nil
}

// PublicKey wraps an ECDSA public key with Bitcoin-ish serialization.
type PublicKey struct {
	ec ecdsa.PublicKey
}

// PrivateKey is a signing key. The zero value is not usable; create keys
// with NewPrivateKey or ParsePrivateKey.
type PrivateKey struct {
	ec ecdsa.PrivateKey
}

// NewPrivateKey generates a fresh key pair from the given entropy source
// (crypto/rand.Reader in production; a deterministic reader in tests).
// The scalar is rejection-sampled directly from the reader rather than
// via ecdsa.GenerateKey, which deliberately randomizes its consumption
// of the reader and would defeat seeded-entropy reproducibility.
func NewPrivateKey(entropy io.Reader) (*PrivateKey, error) {
	if entropy == nil {
		entropy = rand.Reader
	}
	curve := elliptic.P256()
	buf := make([]byte, 32)
	for {
		if _, err := io.ReadFull(entropy, buf); err != nil {
			return nil, fmt.Errorf("bkey: generate: %w", err)
		}
		d := new(big.Int).SetBytes(buf)
		if d.Sign() == 0 || d.Cmp(curve.Params().N) >= 0 {
			continue
		}
		priv := ecdsa.PrivateKey{
			PublicKey: ecdsa.PublicKey{Curve: curve},
			D:         d,
		}
		priv.PublicKey.X, priv.PublicKey.Y = curve.ScalarBaseMult(buf)
		return &PrivateKey{ec: priv}, nil
	}
}

// PubKey returns the public half of the key.
func (k *PrivateKey) PubKey() *PublicKey {
	return &PublicKey{ec: k.ec.PublicKey}
}

// Serialize encodes the private scalar as 32 big-endian bytes.
func (k *PrivateKey) Serialize() []byte {
	return k.ec.D.FillBytes(make([]byte, 32))
}

// ParsePrivateKey reconstructs a private key from Serialize output.
func ParsePrivateKey(b []byte) (*PrivateKey, error) {
	if len(b) != 32 {
		return nil, fmt.Errorf("bkey: bad private key length %d", len(b))
	}
	d := new(big.Int).SetBytes(b)
	curve := elliptic.P256()
	if d.Sign() == 0 || d.Cmp(curve.Params().N) >= 0 {
		return nil, errors.New("bkey: private scalar out of range")
	}
	priv := ecdsa.PrivateKey{
		PublicKey: ecdsa.PublicKey{Curve: curve},
		D:         d,
	}
	priv.PublicKey.X, priv.PublicKey.Y = curve.ScalarBaseMult(b)
	return &PrivateKey{ec: priv}, nil
}

// Serialize encodes the public key as 0x04 || X || Y (uncompressed form).
func (p *PublicKey) Serialize() []byte {
	out := make([]byte, 1+32+32)
	out[0] = 0x04
	p.ec.X.FillBytes(out[1:33])
	p.ec.Y.FillBytes(out[33:65])
	return out
}

// SerializedPubKeySize is the length of PublicKey.Serialize output.
const SerializedPubKeySize = 65

// ParsePubKey decodes the form produced by Serialize.
func ParsePubKey(b []byte) (*PublicKey, error) {
	if len(b) != SerializedPubKeySize || b[0] != 0x04 {
		return nil, errors.New("bkey: malformed public key")
	}
	curve := elliptic.P256()
	x := new(big.Int).SetBytes(b[1:33])
	y := new(big.Int).SetBytes(b[33:65])
	if !curve.IsOnCurve(x, y) {
		return nil, errors.New("bkey: public key not on curve")
	}
	return &PublicKey{ec: ecdsa.PublicKey{Curve: curve, X: x, Y: y}}, nil
}

// Principal returns the principal literal for this key: the truncated
// SHA-256 of the serialized key. "We use hashes, rather than raw keys,
// because this is standard practice in Bitcoin." (paper, Section 4).
func (p *PublicKey) Principal() Principal {
	sum := sha256.Sum256(p.Serialize())
	var out Principal
	copy(out[:], sum[:PrincipalSize])
	return out
}

// Principal is a convenience accessor on the private key.
func (k *PrivateKey) Principal() Principal { return k.PubKey().Principal() }

// Signature is an ECDSA signature in the (r, s) representation.
type Signature struct {
	R, S *big.Int
}

type asn1Sig struct {
	R, S *big.Int
}

// Sign signs the 32-byte digest and returns the signature. Nonces are
// derived deterministically from the key and digest per RFC 6979, as
// Bitcoin implementations do: the same key and digest always produce
// the same signature, so transaction ids — and therefore block hashes —
// are replayable, which the simulation harness relies on for
// seed-exact reproduction of failing runs.
func (k *PrivateKey) Sign(digest []byte) (*Signature, error) {
	if len(digest) != 32 {
		return nil, fmt.Errorf("bkey: sign wants a 32-byte digest, got %d", len(digest))
	}
	q := k.ec.Curve.Params().N
	z := new(big.Int).SetBytes(digest) // qlen == hlen == 256 for P-256/SHA-256
	for kb := newNonceRFC6979(q, k.ec.D, digest); ; {
		nonce := kb.next()
		rx, _ := k.ec.Curve.ScalarBaseMult(nonce.FillBytes(make([]byte, 32)))
		r := new(big.Int).Mod(rx, q)
		if r.Sign() == 0 {
			continue
		}
		s := new(big.Int).Mul(r, k.ec.D)
		s.Add(s, z)
		s.Mul(s, new(big.Int).ModInverse(nonce, q))
		s.Mod(s, q)
		if s.Sign() == 0 {
			continue
		}
		return &Signature{R: r, S: s}, nil
	}
}

// nonceRFC6979 is the HMAC-SHA256 DRBG of RFC 6979 section 3.2,
// specialized to qlen == hlen == 256: it yields the deterministic
// candidate nonces for signing digest under private scalar x. K and V
// are arrays and every HMAC is computed on the stack (see mac), so the
// generator allocates only the nonce it returns.
type nonceRFC6979 struct {
	q    *big.Int
	k, v [sha256.Size]byte
}

func newNonceRFC6979(q, x *big.Int, digest []byte) *nonceRFC6979 {
	h1 := new(big.Int).SetBytes(digest)
	h1.Mod(h1, q) // bits2octets
	var seed [64]byte
	x.FillBytes(seed[:32])
	h1.FillBytes(seed[32:])

	g := &nonceRFC6979{q: q} // K = 0x00..00
	for i := range g.v {
		g.v[i] = 0x01
	}
	g.update(0x00, seed[:])
	g.update(0x01, seed[:])
	return g
}

// update performs one K/V ratchet step: K = HMAC_K(V || sep || seed),
// V = HMAC_K(V). seed is empty or the 64-byte x || h1.
func (g *nonceRFC6979) update(sep byte, seed []byte) {
	var tail [1 + 64]byte
	tail[0] = sep
	g.k = g.mac(tail[:1+copy(tail[1:], seed)])
	g.v = g.mac(nil)
}

// mac returns HMAC-SHA256_K(V || tail) (RFC 2104, with K shorter than the
// 64-byte block), for a tail of at most 65 bytes. crypto/hmac computes
// the same value but allocates two hash states per key and marshals one
// per reuse, which was half of what a signature allocated.
func (g *nonceRFC6979) mac(tail []byte) [sha256.Size]byte {
	const block = 64
	var inner [block + sha256.Size + 1 + 64]byte
	var outer [block + sha256.Size]byte
	for i := 0; i < block; i++ {
		inner[i], outer[i] = 0x36, 0x5c
	}
	for i, b := range g.k {
		inner[i] ^= b
		outer[i] ^= b
	}
	n := block + copy(inner[block:], g.v[:])
	n += copy(inner[n:], tail)
	sum := sha256.Sum256(inner[:n])
	copy(outer[block:], sum[:])
	return sha256.Sum256(outer[:])
}

// next returns the next candidate nonce in [1, q-1].
func (g *nonceRFC6979) next() *big.Int {
	for {
		g.v = g.mac(nil)
		k := new(big.Int).SetBytes(g.v[:])
		if k.Sign() > 0 && k.Cmp(g.q) < 0 {
			return k
		}
		g.update(0x00, nil)
	}
}

// Verify reports whether sig is a valid signature of digest under p. From
// p's second verification on, it runs through p's precomputed table (see
// keytables.go); the verdict is crypto/ecdsa.Verify's either way.
func (p *PublicKey) Verify(digest []byte, sig *Signature) bool {
	if sig == nil || len(digest) != 32 {
		return false
	}
	return keyTables.verify(p, digest, sig)
}

// Serialize encodes the signature as DER (via ASN.1), matching Bitcoin's
// on-the-wire signature encoding.
func (s *Signature) Serialize() []byte {
	b, err := asn1.Marshal(asn1Sig{R: s.R, S: s.S})
	if err != nil {
		// asn1.Marshal of two big.Ints cannot fail for valid signatures.
		panic("bkey: impossible asn1 marshal failure: " + err.Error())
	}
	return b
}

// ParseSignature decodes DER signatures produced by Serialize.
func ParseSignature(b []byte) (*Signature, error) {
	var raw asn1Sig
	rest, err := asn1.Unmarshal(b, &raw)
	if err != nil {
		return nil, fmt.Errorf("bkey: bad signature encoding: %w", err)
	}
	if len(rest) != 0 {
		return nil, errors.New("bkey: trailing bytes after signature")
	}
	if raw.R == nil || raw.S == nil || raw.R.Sign() <= 0 || raw.S.Sign() <= 0 {
		return nil, errors.New("bkey: non-positive signature component")
	}
	return &Signature{R: raw.R, S: raw.S}, nil
}
