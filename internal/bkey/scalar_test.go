package bkey

import (
	"math/big"
	"math/rand"
	"testing"
	"time"
)

// scalarEdges are the values whose every pair the scalar arithmetic is
// checked on: 0, 1, 2, n−1, n−2, 2^255 and R mod n.
func scalarEdges() []*big.Int {
	n := p256Params.N
	r := new(big.Int).Lsh(big.NewInt(1), 256)
	return []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		new(big.Int).Sub(n, big.NewInt(1)), new(big.Int).Sub(n, big.NewInt(2)),
		new(big.Int).Lsh(big.NewInt(1), 255), r.Mod(r, n),
	}
}

// checkScalarOps holds montMul, add and reduce on x and y, both below n,
// to math/big.
func checkScalarOps(t *testing.T, x, y *big.Int) {
	t.Helper()
	n := p256Params.N
	rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), 256), n)
	xs, ys := scalarOf(x), scalarOf(y)

	var got scalar
	got.montMul(&xs, &ys)
	want := new(big.Int).Mul(x, y)
	want.Mul(want, rInv).Mod(want, n)
	if intOf(&got).Cmp(want) != 0 {
		t.Fatalf("montMul(%x, %x) = %x, want %x", x, y, intOf(&got), want)
	}
	got.add(&xs, &ys)
	want.Add(x, y).Mod(want, n)
	if intOf(&got).Cmp(want) != 0 {
		t.Fatalf("add(%x, %x) = %x, want %x", x, y, intOf(&got), want)
	}
	// x + y, a value below 2n, as 256 bits and a carry.
	sum := new(big.Int).Add(x, y)
	low := scalarOf(new(big.Int).And(sum, new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))))
	got.reduce(&low, uint64(sum.Bit(256)))
	if want.Mod(sum, n); intOf(&got).Cmp(want) != 0 {
		t.Fatalf("reduce(%x) = %x, want %x", sum, intOf(&got), want)
	}
}

// TestScalarReduce covers the values below 2^256 but not below n that
// a digest or an x-coordinate can take.
func TestScalarReduce(t *testing.T) {
	n := p256Params.N
	top := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
	for _, v := range append(scalarEdges(), n, new(big.Int).Add(n, big.NewInt(1)), top) {
		s := scalarOf(v)
		s.reduce(&s, 0)
		if want := new(big.Int).Mod(v, n); intOf(&s).Cmp(want) != 0 {
			t.Errorf("reduce(%x) = %x, want %x", v, intOf(&s), want)
		}
	}
}

func TestScalarEdgePairs(t *testing.T) {
	for _, x := range scalarEdges() {
		for _, y := range scalarEdges() {
			checkScalarOps(t, x, y)
		}
	}
}

// TestScalarRandomPairs checks 10⁵ random pairs. The seed differs run to
// run and is logged, so a failure can be replayed.
func TestScalarRandomPairs(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	n := p256Params.N
	for i := 0; i < 100000; i++ {
		x, y := new(big.Int).Rand(rng, n), new(big.Int).Rand(rng, n)
		checkScalarOps(t, x, y)
	}
}

// TestScalarConstants checks n, R² mod n, −n⁻¹ mod 2^64 and the comb
// offset against math/big.
func TestScalarConstants(t *testing.T) {
	n := p256Params.N
	if intOf(&scalarN).Cmp(n) != 0 {
		t.Errorf("scalarN = %x", intOf(&scalarN))
	}
	rr := new(big.Int).Lsh(big.NewInt(1), 512)
	if intOf(&scalarRR).Cmp(rr.Mod(rr, n)) != 0 {
		t.Errorf("scalarRR = %x, want %x", intOf(&scalarRR), rr)
	}
	if scalarN[0]*montK0 != 1<<64-1 {
		t.Errorf("n·k0 = %x mod 2^64, want −1", scalarN[0]*montK0)
	}
	half := new(big.Int).ModInverse(big.NewInt(2), n)
	all := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), teeth*columns), big.NewInt(1))
	if want := all.Mul(all, half).Mod(all, n); intOf(&combOffset).Cmp(want) != 0 {
		t.Errorf("combOffset = %x, want %x", intOf(&combOffset), want)
	}
}

// TestScalarMontMulUnreducedFactor covers verification's digest, which
// enters montMul reduced but may be anything below 2^256 in the first
// factor's position: 2^256 − 1 and n times every edge value.
func TestScalarMontMulUnreducedFactor(t *testing.T) {
	n := p256Params.N
	rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), 256), n)
	top := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
	for _, x := range []*big.Int{top, n, new(big.Int).Add(n, big.NewInt(1))} {
		for _, y := range scalarEdges() {
			xs, ys := scalarOf(x), scalarOf(y)
			var got scalar
			got.montMul(&xs, &ys)
			want := new(big.Int).Mul(x, y)
			want.Mul(want, rInv).Mod(want, n)
			if intOf(&got).Cmp(want) != 0 {
				t.Fatalf("montMul(%x, %x) = %x, want %x", x, y, intOf(&got), want)
			}
		}
	}
}

func TestScalarInverse(t *testing.T) {
	n := p256Params.N
	rng := rand.New(rand.NewSource(1))
	vals := scalarEdges()[1:]
	for i := 0; i < 100; i++ {
		vals = append(vals, new(big.Int).Add(new(big.Int).Rand(rng, new(big.Int).Sub(n, big.NewInt(1))), big.NewInt(1)))
	}
	for _, v := range vals {
		s := scalarOf(v)
		got := s.inverse()
		if want := new(big.Int).ModInverse(v, n); intOf(&got).Cmp(want) != 0 {
			t.Fatalf("inverse(%x) = %x, want %x", v, intOf(&got), want)
		}
	}
}

func TestScalarCompare(t *testing.T) {
	n := p256Params.N
	for _, c := range []struct {
		v    *big.Int
		less bool
	}{
		{big.NewInt(0), true},
		{new(big.Int).Sub(n, big.NewInt(1)), true},
		{n, false},
		{new(big.Int).Add(n, big.NewInt(1)), false},
		{new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1)), false},
	} {
		s := scalarOf(c.v)
		if s.lessThanN() != c.less {
			t.Errorf("lessThanN(%x) = %v", c.v, !c.less)
		}
	}
}
