package bkey

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/hmac"
	"crypto/sha256"
	"math/big"
	"testing"
)

// TestSignMatchesStdlib holds Sign and Serialize to Go's deterministic
// RFC 6979 signer, crypto/ecdsa's Sign with a nil random source, byte
// for byte over 2000 keys. Every fourth digest is one of the values at
// or above n, which the nonce generator and z reduce mod n.
func TestSignMatchesStdlib(t *testing.T) {
	entropy := &detEntropy{state: sha256.Sum256([]byte(t.Name()))}
	n := p256Params.N
	high := [][]byte{
		scalarBytes(n),
		scalarBytes(new(big.Int).Add(n, big.NewInt(1))),
		bytes.Repeat([]byte{0xff}, 32),
	}
	for i := 0; i < 2000; i++ {
		k, err := NewPrivateKey(entropy)
		if err != nil {
			t.Fatal(err)
		}
		d := sha256.Sum256([]byte{byte(i), byte(i >> 8)})
		digest := d[:]
		if i%4 == 3 {
			digest = high[i/4%len(high)]
		}
		sig, err := k.Sign(digest)
		if err != nil {
			t.Fatal(err)
		}
		std := &ecdsa.PrivateKey{PublicKey: *ecdsaPub(k.PubKey()), D: new(big.Int).SetBytes(k.d[:])}
		want, err := std.Sign(nil, digest, crypto.SHA256)
		if err != nil {
			t.Fatal(err)
		}
		if got := sig.Serialize(); !bytes.Equal(got, want) {
			t.Fatalf("key %d: signature %x, crypto/ecdsa %x", i, got, want)
		}
	}
}

// refCandidates returns the first count in-range candidates of RFC
// 6979's generator (section 3.2, qlen = hlen = 256) for private scalar
// x and h1, computed with crypto/hmac. After each candidate, used or
// not, K and V are updated (step h.3).
func refCandidates(x, h1 []byte, count int) [][]byte {
	mac := func(key []byte, parts ...[]byte) []byte {
		h := hmac.New(sha256.New, key)
		for _, p := range parts {
			h.Write(p)
		}
		return h.Sum(nil)
	}
	k, v := make([]byte, 32), bytes.Repeat([]byte{0x01}, 32)
	k = mac(k, v, []byte{0x00}, x, h1)
	v = mac(k, v)
	k = mac(k, v, []byte{0x01}, x, h1)
	v = mac(k, v)
	var out [][]byte
	for len(out) < count {
		v = mac(k, v)
		if c := new(big.Int).SetBytes(v); c.Sign() > 0 && c.Cmp(p256Params.N) < 0 {
			out = append(out, v)
		}
		k = mac(k, v, []byte{0x00})
		v = mac(k, v)
	}
	return out
}

// TestBlindLeavesCandidates checks that drawing the blinding scalar
// does not move the nonce generator: with or without a draw after each
// candidate, the candidates are RFC 6979's, the second included, which
// a signature needs when its first candidate gives r = 0 or s = 0.
func TestBlindLeavesCandidates(t *testing.T) {
	x := sha256.Sum256([]byte("x"))
	h1 := scalarOf(new(big.Int).SetBytes(x[:]).Rsh(new(big.Int).SetBytes(x[:]), 1))
	var h1b [32]byte
	h1.fillBytes(&h1b)
	want := refCandidates(x[:], h1b[:], 3)
	for _, blind := range []bool{false, true} {
		g := newNonceRFC6979(&x, &h1)
		for i, w := range want {
			if c := g.next(); !bytes.Equal(c[:], w) {
				t.Errorf("blinding draws %v: candidate %d is %x, want %x", blind, i+1, c, w)
			}
			if blind {
				g.blind()
			}
		}
	}
}

// TestBlindScalar checks that the blinding scalar is HMAC_K(V || 0x02)
// reduced mod n, nonzero, and not the nonce.
func TestBlindScalar(t *testing.T) {
	x := sha256.Sum256([]byte("x"))
	var h1 scalar
	g := newNonceRFC6979(&x, &h1)
	nonce := g.next()
	ref := hmac.New(sha256.New, g.k[:])
	ref.Write(g.v[:])
	ref.Write([]byte{0x02})
	want := new(big.Int).SetBytes(ref.Sum(nil))
	want.Mod(want, p256Params.N)
	b := g.blind()
	if intOf(&b).Cmp(want) != 0 || b.isZero() || intOf(&b).Cmp(new(big.Int).SetBytes(nonce[:])) == 0 {
		t.Errorf("blind = %x, want %x", intOf(&b), want)
	}
}

func TestSignAllocatesLittle(t *testing.T) {
	key := newKey(t)
	digest := sha256.Sum256([]byte("digest"))
	// What is left is crypto/elliptic's base multiplication, the
	// inversion's math/big and the signature itself; before the scalar
	// arithmetic left math/big a signature made 50 allocations.
	if got := testing.AllocsPerRun(100, func() { key.Sign(digest[:]) }); got > 30 {
		t.Errorf("Sign allocates %v times, want at most 30", got)
	}
}

// TestVerifyBytesAllocatesLittle checks that a verification under a
// tabled key allocates only inside the inversion.
func TestVerifyBytesAllocatesLittle(t *testing.T) {
	key := newKey(t)
	digest := sha256.Sum256([]byte("digest"))
	sig, err := key.Sign(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	pk, der := key.PubKey().Serialize(), sig.Serialize()
	c := newKeyCache(maxKeyTables)
	c.verifyBytes(pk, digest[:], der)
	c.verifyBytes(pk, digest[:], der)
	// The inversion's allocations depend on its input, 2s.
	var w scalar
	s, _ := scalarFromMagnitude(sig.s)
	w.add(&s, &s)
	inv := testing.AllocsPerRun(100, func() { w.inverse() })
	if got := testing.AllocsPerRun(100, func() { c.verifyBytes(pk, digest[:], der) }); got > inv {
		t.Errorf("a warm verification allocates %v times, its inversion %v", got, inv)
	}
}

// BenchmarkSign signs and serializes, as the wallet does per input.
func BenchmarkSign(b *testing.B) {
	k := keyFromScalar(b, big.NewInt(0xbe4c))
	d := sha256.Sum256([]byte("bench"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sig, err := k.Sign(d[:])
		if err != nil {
			b.Fatal(err)
		}
		sig.Serialize()
	}
}
