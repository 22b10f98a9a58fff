package bkey

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// scalar is an integer modulo the P-256 group order n in four 64-bit
// limbs, least significant first. Signing and verification do their
// arithmetic mod n on it rather than on math/big: montMul, add and
// reduce run in constant time, so the private scalar and the nonce may
// pass through them. Only inverse is variable-time.
type scalar [4]uint64

var (
	// scalarN is n.
	scalarN = scalar{0xf3b9cac2fc632551, 0xbce6faada7179e84, 0xffffffffffffffff, 0xffffffff00000000}
	// scalarRR is R² mod n for R = 2^256, as in Go's p256_ordinv.go:
	// montMul by it puts a value into the Montgomery domain.
	scalarRR = scalar{0x83244c95be79eea2, 0x4699799c49bd6fa6, 0x2845b2392b6bec59, 0x66e12d94f3d95620}
)

// montK0 is −n⁻¹ mod 2^64.
const montK0 = 0xccd1c8aaee00bc4f

// scalarFromBytes loads 32 big-endian bytes. The value is below 2^256
// but not necessarily below n; reduce brings it there.
func scalarFromBytes(b *[32]byte) scalar {
	var s scalar
	for i := range s {
		s[i] = binary.BigEndian.Uint64(b[24-8*i:])
	}
	return s
}

// scalarFromMagnitude loads a big-endian magnitude of at most 32 bytes;
// it reports false for a longer one, whose value is at least 2^256 if
// it has no leading zero.
func scalarFromMagnitude(b []byte) (scalar, bool) {
	if len(b) > 32 {
		return scalar{}, false
	}
	var buf [32]byte
	copy(buf[32-len(b):], b)
	return scalarFromBytes(&buf), true
}

// fillBytes writes s as 32 big-endian bytes.
func (s *scalar) fillBytes(b *[32]byte) {
	for i, l := range s {
		binary.BigEndian.PutUint64(b[24-8*i:], l)
	}
}

func (s *scalar) isZero() bool { return s[0]|s[1]|s[2]|s[3] == 0 }

// lessThanN reports whether s < n.
func (s *scalar) lessThanN() bool {
	var b uint64
	for i := range s {
		_, b = bits.Sub64(s[i], scalarN[i], b)
	}
	return b == 1
}

// reduce sets s to (carry·2^256 + t) mod n, for a value below 2n: it
// subtracts n and keeps the difference unless that borrowed, selecting
// by mask rather than by branch.
func (s *scalar) reduce(t *scalar, carry uint64) {
	var d scalar
	var b uint64
	for i := range d {
		d[i], b = bits.Sub64(t[i], scalarN[i], b)
	}
	_, b = bits.Sub64(carry, 0, b)
	keep := -b // all ones iff t < n
	for i := range s {
		s[i] = t[i]&keep | d[i]&^keep
	}
}

// add sets s = x + y mod n, for x, y < n.
func (s *scalar) add(x, y *scalar) {
	var t scalar
	var c uint64
	for i := range t {
		t[i], c = bits.Add64(x[i], y[i], c)
	}
	s.reduce(&t, c)
}

// montMul sets s = x·y·R⁻¹ mod n for R = 2^256, for x < 2^256 and y < n:
// a Montgomery multiplication, coarsely integrated operand scanning
// (CIOS). The pre-reduction result is below 2n, and one masked
// subtraction reduces it. With one factor in the Montgomery domain
// (a·R), the product leaves it: montMul(x, a·R) = x·a.
func (s *scalar) montMul(x, y *scalar) {
	var t [6]uint64
	for i := 0; i < 4; i++ {
		var c uint64
		for j := 0; j < 4; j++ {
			hi, lo := bits.Mul64(x[j], y[i])
			var cc uint64
			lo, cc = bits.Add64(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			hi += cc
			t[j], c = lo, hi
		}
		var cc uint64
		t[4], cc = bits.Add64(t[4], c, 0)
		t[5] = cc

		m := t[0] * montK0
		hi, lo := bits.Mul64(m, scalarN[0])
		_, cc = bits.Add64(lo, t[0], 0)
		c = hi + cc
		for j := 1; j < 4; j++ {
			hi, lo := bits.Mul64(m, scalarN[j])
			lo, cc = bits.Add64(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			hi += cc
			t[j-1], c = lo, hi
		}
		t[3], cc = bits.Add64(t[4], c, 0)
		t[4] = t[5] + cc
	}
	s.reduce((*scalar)(t[:4]), t[4])
}

// orderN is n for inverse.
var orderN = p256Params.N

// inverse returns s⁻¹ mod n for 0 < s < n through math/big's
// ModInverse, which is variable-time: s must be public, as in
// verification, or blinded, as in signing. Its input and output cross
// over as words, not bytes.
func (s *scalar) inverse() scalar {
	const wordsPerLimb = 64 / bits.UintSize
	words := make([]big.Word, 4*wordsPerLimb)
	for i := range words {
		words[i] = big.Word(s[i/wordsPerLimb] >> (i % wordsPerLimb * bits.UintSize))
	}
	v := new(big.Int).SetBits(words)
	v.ModInverse(v, orderN)
	var out scalar
	for i, w := range v.Bits() {
		out[i/wordsPerLimb] |= uint64(w) << (i % wordsPerLimb * bits.UintSize)
	}
	return out
}
