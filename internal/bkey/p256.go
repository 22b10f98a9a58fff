package bkey

import (
	"crypto/elliptic"
	"math/big"
	"math/bits"

	"typecoin/internal/bkey/internal/fiat"
)

// This file verifies P-256 ECDSA signatures through precomputed signed
// comb tables: Lim–Lee's comb in Hamburg's signed all-bits form, the
// layout of libsecp256k1's ecmult_gen. A scalar u is recoded as
// e = (u + 2^260 − 1)/2 mod n, so that u = Σ_j (2·e_j − 1)·2^j mod n
// over the 260 bits e_j of e, each read as ±1 and never 0. Those bits
// are 10 teeth of 26: with B_i = 2^(26·i)·P,
//
//	u·P = Σ_c 2^c · Σ_i (2·e_(26·i+c) − 1)·B_i,
//
// so column c of e (bit i is e_(26·i+c)) names one of the 1024 sums
// ±B_0 ± ··· ± B_9. A point's table holds the 512 with +B_9; the others
// are their negations. G and every key share the layout, so
// R = u1·G + u2·Q is one Horner loop over the 26 columns: 25 doublings
// and 51 mixed additions. Every input (key, digest, signature) is
// public, so the code is variable-time; signing never reaches it.

const (
	teeth      = 10
	columns    = 26 // teeth·columns = 260 ≥ 256 bits
	combPoints = 1 << (teeth - 1)
)

type fe = fiat.P256Element

// affinePoint is a finite point (x, y).
type affinePoint struct{ x, y fe }

// jacobianPoint is the point (X/Z², Y/Z³). Z = 0 is the point at
// infinity, so the zero value is the identity.
type jacobianPoint struct{ x, y, z fe }

// combTable holds, for a point P, B_9 + Σ_(i<9) (2·bit_i(low) − 1)·B_i
// at index low: 512 affine points, 32 KiB.
type combTable [combPoints]affinePoint

var (
	p256Params = elliptic.P256().Params()
	// combOffset is (2^260 − 1)/2 mod n, so e = u/2 + combOffset.
	combOffset = scalar{0xdc0e8f499b186820, 0xf73ba7e99acedb1a, 0x8000000000000001, 0x800000077ffffff8}
	// baseTable is the generator's table, built once by the same code as
	// every key's.
	baseTable = newCombTable(feFromInt(p256Params.Gx), feFromInt(p256Params.Gy))
	// curveB is the curve's b in y² = x³ − 3x + b.
	curveB = feFromInt(p256Params.B)
)

// feFromInt converts v ∈ [0, p) to a field element. Only the package's
// initialisation and its tests use it.
func feFromInt(v *big.Int) *fe {
	var b [32]byte
	e, err := new(fe).SetBytes(v.FillBytes(b[:]))
	if err != nil {
		panic("bkey: field element out of range")
	}
	return e
}

// feFromScalar converts s to a field element; it reports false if
// s ≥ p.
func feFromScalar(s *scalar) (fe, bool) {
	var b [32]byte
	s.fillBytes(&b)
	var e fe
	_, err := e.SetBytes(b[:])
	return e, err == nil
}

// onCurve reports whether X‖Y = xy is a point on the curve, with
// X, Y < p.
func onCurve(xy *[64]byte) bool {
	var x, y, rhs, t fe
	if _, err := x.SetBytes(xy[:32]); err != nil {
		return false
	}
	if _, err := y.SetBytes(xy[32:]); err != nil {
		return false
	}
	rhs.Square(&x)
	rhs.Mul(&rhs, &x)
	t.Add(&x, &x)
	t.Add(&t, &x)
	rhs.Sub(&rhs, &t)
	rhs.Add(&rhs, curveB) // x³ − 3x + b
	return t.Square(&y).Equal(&rhs) == 1
}

// negate sets q = −q.
func (q *affinePoint) negate() {
	var zero fe
	q.y.Sub(&zero, &q.y)
}

// double sets p = 2p with the a = −3 formulas (dbl-2001-b). The point at
// infinity stays there: Z3 = (Y+Z)² − Y² − Z² = 0 when Z = 0.
func (p *jacobianPoint) double() {
	var delta, gamma, beta, alpha, t fe
	delta.Square(&p.z)
	gamma.Square(&p.y)
	beta.Mul(&p.x, &gamma)
	t.Sub(&p.x, &delta)
	alpha.Add(&p.x, &delta)
	alpha.Mul(&alpha, &t)
	t.Add(&alpha, &alpha)
	alpha.Add(&alpha, &t) // α = 3(X−δ)(X+δ)
	p.z.Add(&p.y, &p.z)
	p.z.Square(&p.z)
	p.z.Sub(&p.z, &gamma)
	p.z.Sub(&p.z, &delta)
	t.Add(&beta, &beta)
	t.Add(&t, &t) // 4β
	p.x.Square(&alpha)
	p.x.Sub(&p.x, &t)
	p.x.Sub(&p.x, &t)
	t.Sub(&t, &p.x)
	p.y.Mul(&alpha, &t)
	gamma.Square(&gamma)
	gamma.Add(&gamma, &gamma)
	gamma.Add(&gamma, &gamma)
	gamma.Add(&gamma, &gamma) // 8γ²
	p.y.Sub(&p.y, &gamma)
}

// addAffine sets p = p + q (mixed addition, 8M + 3S). It handles p = ∞,
// p = q and p = −q.
func (p *jacobianPoint) addAffine(q *affinePoint) {
	if p.z.IsZero() == 1 {
		p.x, p.y = q.x, q.y
		p.z.One()
		return
	}
	var zz, u2, s2, h, r fe
	zz.Square(&p.z)
	u2.Mul(&q.x, &zz)
	s2.Mul(&q.y, &zz)
	s2.Mul(&s2, &p.z)
	h.Sub(&u2, &p.x)
	r.Sub(&s2, &p.y)
	if h.IsZero() == 1 { // equal points double, opposite points cancel
		if r.IsZero() == 1 {
			p.double()
		} else {
			*p = jacobianPoint{}
		}
		return
	}
	var h2, h3, s1h3, v fe
	h2.Square(&h)
	h3.Mul(&h, &h2)
	v.Mul(&p.x, &h2)
	s1h3.Mul(&p.y, &h3)
	p.z.Mul(&p.z, &h)
	p.x.Square(&r)
	p.x.Sub(&p.x, &h3)
	p.x.Sub(&p.x, &v)
	p.x.Sub(&p.x, &v) // X3 = R² − H³ − 2·X1·H²
	v.Sub(&v, &p.x)
	p.y.Mul(&r, &v)
	p.y.Sub(&p.y, &s1h3) // Y3 = R·(X1·H² − X3) − Y1·H³
}

// normalize sets dst[k] to the affine form of the finite point src[k].
// Montgomery's trick: the prefix product Z_0···Z_(k−1) is kept in
// dst[k].x until the backward pass overwrites it, so one inversion of
// the full product yields every 1/Z_k.
func normalize(dst []affinePoint, src []jacobianPoint) {
	var acc, inv, zinv, zinv2 fe
	acc.One()
	for k := range src {
		dst[k].x = acc
		acc.Mul(&acc, &src[k].z)
	}
	inv.Invert(&acc)
	for k := len(src) - 1; k >= 0; k-- {
		a := &dst[k]
		zinv.Mul(&inv, &a.x)
		inv.Mul(&inv, &src[k].z)
		zinv2.Square(&zinv)
		a.x.Mul(&src[k].x, &zinv2)
		a.y.Mul(&src[k].y, &zinv2)
		a.y.Mul(&a.y, &zinv)
	}
}

// newCombTable builds the table of the finite point P = (x, y). 234
// doublings make B_1, …, B_9, and 2·B_0, …, 2·B_8 on the way; one batch
// normalisation makes them affine. Then T[0] = B_9 − B_0 − ··· − B_8,
// and T[low] = T[low − 2^k] + 2·B_k, where k is low's top bit, since
// setting bit k turns −B_k into +B_k: 520 mixed additions, and a second
// batch normalisation. No Z is zero: every point is m·P with
// 0 < m < 2^235 < n.
func newCombTable(x, y *fe) *combTable {
	var b [2*teeth - 1]jacobianPoint // B_0, …, B_9, then 2·B_0, …, 2·B_8
	b[0].addAffine(&affinePoint{x: *x, y: *y})
	for i := 1; i < teeth; i++ {
		b[i] = b[i-1]
		for j := 0; j < columns; j++ {
			b[i].double()
			if j == 0 {
				b[teeth+i-1] = b[i]
			}
		}
	}
	var ab [len(b)]affinePoint
	normalize(ab[:], b[:])

	pts := make([]jacobianPoint, combPoints)
	pts[0].addAffine(&ab[teeth-1])
	for i := 0; i < teeth-1; i++ {
		q := ab[i]
		q.negate()
		pts[0].addAffine(&q)
	}
	for low := 1; low < combPoints; low++ {
		k := bits.Len(uint(low)) - 1
		pts[low] = pts[low-1<<k]
		pts[low].addAffine(&ab[teeth+k])
	}
	t := new(combTable)
	normalize(t[:], pts)
	return t
}

// combColumns returns the 26 column indices of e ∈ [0, n): bit i of
// column c is bit 26·i + c of e. Bits 256–259 are zero.
func combColumns(e *scalar) (cols [columns]uint) {
	for c := range cols {
		for i := 0; i < teeth; i++ {
			if j := columns*i + c; j < 256 {
				cols[c] |= uint(e[j/64]>>(j%64)&1) << i
			}
		}
	}
	return cols
}

// entry returns the sum that column index col names: T[col & 511] when
// B_9's bit is set, and otherwise −T[^col & 511], since flipping every
// sign negates the sum.
func (t *combTable) entry(col uint) affinePoint {
	if col&combPoints != 0 {
		return t[col&(combPoints-1)]
	}
	q := t[^col&(combPoints-1)]
	q.negate()
	return q
}

// mulAdd returns u1·G + u2·P, where t is P's table and e1 and e2 are the
// recodings of u1 and u2.
func (t *combTable) mulAdd(e1, e2 *scalar) jacobianPoint {
	c1, c2 := combColumns(e1), combColumns(e2)
	var p jacobianPoint
	for c := columns - 1; c >= 0; c-- {
		if c < columns-1 {
			p.double()
		}
		q := baseTable.entry(c1[c])
		p.addAffine(&q)
		q = t.entry(c2[c])
		p.addAffine(&q)
	}
	return p
}

// verify reports whether (r, s), given as big-endian magnitudes, is a
// signature of the 32-byte digest under the key whose table is q. Its
// verdict is crypto/ecdsa.Verify's on every input.
func (q *combTable) verify(digest, rb, sb []byte) bool {
	r, okR := scalarFromMagnitude(rb)
	s, okS := scalarFromMagnitude(sb)
	if !okR || !okS || r.isZero() || s.isZero() || !r.lessThanN() || !s.lessThanN() {
		return false
	}
	// w = (2s)⁻¹ folds the recoding's halving into u1 = z·s⁻¹ and
	// u2 = r·s⁻¹: e1 = z·w + combOffset and e2 = r·w + combOffset.
	var w, e1, e2 scalar
	w.add(&s, &s)
	w = w.inverse()
	w.montMul(&w, &scalarRR) // w·R, so that montMul(x, w·R) = x·w
	e1 = scalarFromBytes((*[32]byte)(digest))
	e1.reduce(&e1, 0)
	e1.montMul(&e1, &w)
	e1.add(&e1, &combOffset)
	e2.montMul(&r, &w)
	e2.add(&e2, &combOffset)
	sum := q.mulAdd(&e1, &e2)
	if sum.z.IsZero() == 1 {
		return false
	}
	// x(R) ∈ [0, p) and x(R) mod n = r iff x(R) is r or r + n. Comparing
	// X with r·Z² (and (r+n)·Z²) avoids inverting Z.
	var zz, t fe
	zz.Square(&sum.z)
	rf, _ := feFromScalar(&r) // r < n < p
	if t.Mul(&rf, &zz).Equal(&sum.x) == 1 {
		return true
	}
	var carry uint64
	for i := range r {
		r[i], carry = bits.Add64(r[i], scalarN[i], carry)
	}
	rf, below := feFromScalar(&r) // r + n < p, unless it carried
	return carry == 0 && below && t.Mul(&rf, &zz).Equal(&sum.x) == 1
}
