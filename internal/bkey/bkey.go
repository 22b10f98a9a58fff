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
	"bytes"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
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

// PublicKey is a P-256 public key: a point on the curve, held as the
// bytes of its coordinates, with its principal computed once.
type PublicKey struct {
	xy        [64]byte // X‖Y, big-endian
	principal Principal
}

func newPublicKey(xy *[64]byte) *PublicKey {
	p := &PublicKey{xy: *xy}
	sum := sha256.Sum256(p.Serialize())
	copy(p.principal[:], sum[:])
	return p
}

// PrivateKey is a signing key. The zero value is not usable; create keys
// with NewPrivateKey or ParsePrivateKey.
type PrivateKey struct {
	d   [32]byte // the private scalar, big-endian
	dR  scalar   // d·R mod n, d in the Montgomery domain
	pub *PublicKey
}

// newPrivateKey returns the key with private scalar d, or nil if d is
// not in [1, n−1].
func newPrivateKey(d *[32]byte) *PrivateKey {
	ds := scalarFromBytes(d)
	if ds.isZero() || !ds.lessThanN() {
		return nil
	}
	k := &PrivateKey{d: *d}
	k.dR.montMul(&ds, &scalarRR)
	x, y := elliptic.P256().ScalarBaseMult(d[:])
	var xy [64]byte
	x.FillBytes(xy[:32])
	y.FillBytes(xy[32:])
	k.pub = newPublicKey(&xy)
	return k
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
	var d [32]byte
	for {
		if _, err := io.ReadFull(entropy, d[:]); err != nil {
			return nil, fmt.Errorf("bkey: generate: %w", err)
		}
		if k := newPrivateKey(&d); k != nil {
			return k, nil
		}
	}
}

// PubKey returns the public half of the key.
func (k *PrivateKey) PubKey() *PublicKey { return k.pub }

// Serialize encodes the private scalar as 32 big-endian bytes.
func (k *PrivateKey) Serialize() []byte {
	d := k.d
	return d[:]
}

// ParsePrivateKey reconstructs a private key from Serialize output.
func ParsePrivateKey(b []byte) (*PrivateKey, error) {
	if len(b) != 32 {
		return nil, fmt.Errorf("bkey: bad private key length %d", len(b))
	}
	k := newPrivateKey((*[32]byte)(b))
	if k == nil {
		return nil, errors.New("bkey: private scalar out of range")
	}
	return k, nil
}

// Serialize encodes the public key as 0x04 || X || Y (uncompressed form).
func (p *PublicKey) Serialize() []byte {
	out := make([]byte, SerializedPubKeySize)
	out[0] = 0x04
	copy(out[1:], p.xy[:])
	return out
}

// SerializedPubKeySize is the length of PublicKey.Serialize output.
const SerializedPubKeySize = 65

// ParsePubKey decodes the form produced by Serialize.
func ParsePubKey(b []byte) (*PublicKey, error) {
	if len(b) != SerializedPubKeySize || b[0] != 0x04 {
		return nil, errors.New("bkey: malformed public key")
	}
	xy := (*[64]byte)(b[1:])
	if !onCurve(xy) {
		return nil, errors.New("bkey: public key not on curve")
	}
	return newPublicKey(xy), nil
}

// Principal returns the principal literal for this key: the truncated
// SHA-256 of the serialized key. "We use hashes, rather than raw keys,
// because this is standard practice in Bitcoin." (paper, Section 4).
func (p *PublicKey) Principal() Principal { return p.principal }

// Principal is a convenience accessor on the private key.
func (k *PrivateKey) Principal() Principal { return k.pub.principal }

// Sign signs the 32-byte digest and returns the signature. Nonces are
// derived deterministically from the key and digest per RFC 6979, as
// Bitcoin implementations do: the same key and digest always produce
// the same signature, so transaction ids — and therefore block hashes —
// are replayable, which the simulation harness relies on for
// seed-exact reproduction of failing runs.
//
// s = k⁻¹·(z + r·d) is computed as b·(k·b)⁻¹·(z + r·d), for a blinding
// scalar b drawn from the nonce generator: the one variable-time step,
// the inversion, sees k·b, which is uniform and independent of k. The
// nonce and d meet only the constant-time scalar arithmetic and
// crypto/elliptic's constant-time base multiplication (DESIGN.md,
// "Signature verification").
func (k *PrivateKey) Sign(digest []byte) (*Signature, error) {
	if len(digest) != 32 {
		return nil, fmt.Errorf("bkey: sign wants a 32-byte digest, got %d", len(digest))
	}
	z := scalarFromBytes((*[32]byte)(digest)) // qlen == hlen == 256
	z.reduce(&z, 0)
	g := newNonceRFC6979(&k.d, &z)
	for {
		nonce := g.next()
		rx, _ := elliptic.P256().ScalarBaseMult(nonce[:])
		var buf [32]byte
		r := scalarFromBytes((*[32]byte)(rx.FillBytes(buf[:])))
		r.reduce(&r, 0)
		if r.isZero() {
			continue
		}
		b := g.blind()
		kn := scalarFromBytes(&nonce)
		var bR, kb, inv, s scalar
		bR.montMul(&b, &scalarRR)    // b·R
		kb.montMul(&kn, &bR)         // k·b
		inv = kb.inverse()           // (k·b)⁻¹
		inv.montMul(&inv, &scalarRR) // (k·b)⁻¹·R
		s.montMul(&r, &k.dR)         // r·d
		s.add(&s, &z)                // z + r·d
		s.montMul(&s, &bR)           // b·(z + r·d)
		s.montMul(&s, &inv)          // b·(z + r·d)·(k·b)⁻¹
		if s.isZero() {
			continue
		}
		var rb, sb [32]byte
		r.fillBytes(&rb)
		s.fillBytes(&sb)
		return newSignature(bytes.TrimLeft(rb[:], "\x00"), bytes.TrimLeft(sb[:], "\x00")), nil
	}
}

// nonceRFC6979 is the HMAC-SHA256 DRBG of RFC 6979 section 3.2,
// specialized to qlen == hlen == 256: it yields the deterministic
// candidate nonces for signing a digest under a private scalar. K and V
// are arrays and every HMAC is computed on the stack (see mac), so the
// generator allocates nothing.
type nonceRFC6979 struct {
	k, v  [sha256.Size]byte
	drawn bool // a candidate has been returned
}

// newNonceRFC6979 seeds the generator with the private scalar x and h1,
// the digest reduced mod n.
func newNonceRFC6979(x *[32]byte, h1 *scalar) *nonceRFC6979 {
	var seed [64]byte
	copy(seed[:32], x[:])
	h1.fillBytes((*[32]byte)(seed[32:])) // bits2octets

	g := &nonceRFC6979{} // K = 0x00..00
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

// next returns the next candidate nonce in [1, n−1], as 32 big-endian
// bytes. Every candidate after the first, whether the previous one was
// out of range or gave r = 0 or s = 0, follows a K/V update (RFC 6979
// step h.3).
func (g *nonceRFC6979) next() [32]byte {
	for {
		if g.drawn {
			g.update(0x00, nil)
		}
		g.drawn = true
		g.v = g.mac(nil)
		if k := scalarFromBytes(&g.v); !k.isZero() && k.lessThanN() {
			return g.v
		}
	}
}

// blind returns the blinding scalar for the candidate just drawn:
// HMAC_K(V || 0x02) mod n, or 1 should that be zero. The separator
// 0x02 is one RFC 6979 never uses, and blind leaves K and V as they
// are, so the candidates next returns do not change.
func (g *nonceRFC6979) blind() scalar {
	sum := g.mac([]byte{0x02})
	b := scalarFromBytes(&sum)
	b.reduce(&b, 0)
	if b.isZero() {
		b[0] = 1
	}
	return b
}

// Verify reports whether sig is a valid signature of digest under p. It
// takes the same path as VerifyBytes, without parsing.
func (p *PublicKey) Verify(digest []byte, sig *Signature) bool {
	return keyTables.verifySig(p, digest, sig)
}

// VerifyBytes reports whether sig, a DER signature, is a valid
// signature of digest under the serialized public key pubKey: false if
// either does not parse, and otherwise crypto/ecdsa.Verify's verdict.
// The script engine verifies through it, so that a key already tabled
// (see keytables.go) is never parsed; the signature's DER is parsed in
// place, and such a verification allocates only inside the one
// modular inversion.
func VerifyBytes(pubKey, digest, sig []byte) bool {
	return keyTables.verifyBytes(pubKey, digest, sig)
}
