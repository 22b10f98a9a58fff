//go:build !purego

package fiat

import (
	"math/big"
	"math/rand"
	"testing"
)

// TestFieldKernelMatchesFiat holds the amd64 Montgomery multiplication and
// squaring to fiat's p256Mul and p256Square, limb for limb: on edge
// elements (0, 1, 2, p−1, p−2, R mod p and, per limb, the largest element
// below p that is zero elsewhere) in every pairing, and on 10⁵ pairs drawn
// from a fixed seed whose limbs are biased towards 0 and 2^64−1.
func TestFieldKernelMatchesFiat(t *testing.T) {
	p, _ := new(big.Int).SetString("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff", 16)
	limbs := func(v *big.Int) p256MontgomeryDomainFieldElement {
		var e p256MontgomeryDomainFieldElement
		for i := range e {
			e[i] = new(big.Int).Rsh(v, uint(64*i)).Uint64()
		}
		return e
	}
	rModP := new(big.Int).Mod(new(big.Int).Lsh(big.NewInt(1), 256), p)
	var edges []p256MontgomeryDomainFieldElement
	for _, v := range []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2),
		new(big.Int).Sub(p, big.NewInt(1)), new(big.Int).Sub(p, big.NewInt(2)), rModP} {
		edges = append(edges, limbs(v))
	}
	maxLimb := new(big.Int).SetUint64(^uint64(0))
	for i := 0; i < 4; i++ {
		v := new(big.Int).Rsh(new(big.Int).Sub(p, big.NewInt(1)), uint(64*i))
		if v.Cmp(maxLimb) > 0 {
			v = maxLimb
		}
		edges = append(edges, limbs(v.Lsh(v, uint(64*i))))
	}

	check := func(a, b *p256MontgomeryDomainFieldElement) {
		t.Helper()
		var want, got P256Element
		p256Mul(&want.x, a, b)
		got.Mul(&P256Element{x: *a}, &P256Element{x: *b})
		if got.x != want.x {
			t.Fatalf("Mul(%x, %x) = %x, fiat %x", *a, *b, got.x, want.x)
		}
		p256Square(&want.x, a)
		got.Square(&P256Element{x: *a})
		if got.x != want.x {
			t.Fatalf("Square(%x) = %x, fiat %x", *a, got.x, want.x)
		}
	}
	for i := range edges {
		for j := range edges {
			check(&edges[i], &edges[j])
		}
	}

	const seed = 0x5eed
	t.Logf("random inputs from seed %#x", seed)
	rng := rand.New(rand.NewSource(seed))
	random := func() p256MontgomeryDomainFieldElement {
		v := new(big.Int)
		for i := 0; i < 4; i++ {
			var l uint64
			switch rng.Intn(4) {
			case 0:
			case 1:
				l = ^uint64(0)
			default:
				l = rng.Uint64()
			}
			v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(l))
		}
		return limbs(v.Mod(v, p))
	}
	for i := 0; i < 100000; i++ {
		a, b := random(), random()
		check(&a, &b)
	}
}
