package bkey

import (
	"crypto/elliptic"
	"math/big"

	"typecoin/internal/bkey/internal/fiat"
)

// This file verifies P-256 ECDSA signatures through precomputed comb
// tables. A key's table holds every signed 4-bit-window multiple of the
// key, so R = u1·G + u2·Q is a sum of table entries, one mixed addition
// per non-zero digit of each scalar, and no doubling runs at verify time.
// Every input (key, digest, signature) is public, so the code is
// variable-time; signing never reaches it.

const (
	combWindows = 64 // 4-bit windows of a 256-bit scalar
	combPoints  = 8  // |digit| ∈ [1, 8] under signed (Booth) recoding
)

type fe = fiat.P256Element

// affinePoint is a finite point (x, y).
type affinePoint struct{ x, y fe }

// jacobianPoint is the point (X/Z², Y/Z³). Z = 0 is the point at
// infinity, so the zero value is the identity.
type jacobianPoint struct{ x, y, z fe }

// combTable holds (j+1)·16^i·P at index i·8 + j for a point P: 64
// windows of 8 affine points, 32 KiB.
type combTable [combWindows * combPoints]affinePoint

var (
	p256Params = elliptic.P256().Params()
	// halfN is (n−1)/2. addComb negates a scalar above it, which keeps
	// the scalar below 2^255 so that the top window never carries out.
	halfN = new(big.Int).Rsh(p256Params.N, 1)
	// baseTable is the generator's table, built once by the same code
	// as every key's.
	baseTable = newCombTable(feFromInt(p256Params.Gx), feFromInt(p256Params.Gy))
)

// feFromInt converts v ∈ [0, p) to a field element.
func feFromInt(v *big.Int) *fe {
	var b [32]byte
	e, err := new(fe).SetBytes(v.FillBytes(b[:]))
	if err != nil {
		panic("bkey: field element out of range")
	}
	return e
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
	if p.collapse(&h, &r) {
		return
	}
	p.finishAdd(&p.x, &p.y, &h, &r)
}

// add sets p = p + q for two Jacobian points. Only the table build uses
// it: its three additions per window would otherwise each need q affine.
func (p *jacobianPoint) add(q *jacobianPoint) {
	if q.z.IsZero() == 1 {
		return
	}
	if p.z.IsZero() == 1 {
		*p = *q
		return
	}
	var z1z1, z2z2, u1, u2, s1, s2, h, r fe
	z1z1.Square(&p.z)
	z2z2.Square(&q.z)
	u1.Mul(&p.x, &z2z2)
	u2.Mul(&q.x, &z1z1)
	s1.Mul(&p.y, &q.z)
	s1.Mul(&s1, &z2z2)
	s2.Mul(&q.y, &p.z)
	s2.Mul(&s2, &z1z1)
	h.Sub(&u2, &u1)
	r.Sub(&s2, &s1)
	if p.collapse(&h, &r) {
		return
	}
	p.z.Mul(&p.z, &q.z)
	p.finishAdd(&u1, &s1, &h, &r)
}

// collapse handles an addition whose operands share an x-coordinate
// (H = U2 − U1 = 0): equal points double, opposite points cancel. It
// reports whether it did either.
func (p *jacobianPoint) collapse(h, r *fe) bool {
	if h.IsZero() == 0 {
		return false
	}
	if r.IsZero() == 1 {
		p.double()
	} else {
		*p = jacobianPoint{}
	}
	return true
}

// finishAdd completes an addition from U1, S1, H = U2 − U1 and
// R = S2 − S1, with p.z holding Z1·Z2. u1 and s1 may alias p.x and p.y.
func (p *jacobianPoint) finishAdd(u1, s1, h, r *fe) {
	var h2, h3, s1h3, v fe
	h2.Square(h)
	h3.Mul(h, &h2)
	v.Mul(u1, &h2)
	s1h3.Mul(s1, &h3)
	p.z.Mul(&p.z, h)
	p.x.Square(r)
	p.x.Sub(&p.x, &h3)
	p.x.Sub(&p.x, &v)
	p.x.Sub(&p.x, &v) // X3 = R² − H³ − 2·U1·H²
	v.Sub(&v, &p.x)
	p.y.Mul(r, &v)
	p.y.Sub(&p.y, &s1h3) // Y3 = R·(U1·H² − X3) − S1·H³
}

// newCombTable builds the table of the finite point (x, y). Each window
// costs five doublings and three additions in Jacobian coordinates; one
// batch normalisation, with a single field inversion, then makes all 512
// points affine.
func newCombTable(x, y *fe) *combTable {
	pts := make([]jacobianPoint, combWindows*combPoints)
	var b jacobianPoint
	b.addAffine(&affinePoint{x: *x, y: *y})
	for i := 0; i < combWindows; i++ {
		row := pts[i*combPoints : (i+1)*combPoints]
		row[0] = b
		for j := 1; j < combPoints; j++ {
			if j%2 == 1 { // (j+1)·B = 2·((j+1)/2)·B
				row[j] = row[(j-1)/2]
				row[j].double()
			} else {
				row[j] = row[j-1]
				row[j].add(&b)
			}
		}
		b = row[combPoints-1]
		b.double() // 16·B, the next window's base
	}

	// Montgomery's trick: prefix[k] = Z_0···Z_{k−1}, so one inversion of
	// the full product yields every 1/Z_k. No Z is zero: every entry is
	// a multiple m·P with 0 < m ≤ 8·16^63 = 2^255 < n.
	prefix := make([]fe, len(pts))
	var acc, inv, zinv, zinv2 fe
	acc.One()
	for k := range pts {
		prefix[k] = acc
		acc.Mul(&acc, &pts[k].z)
	}
	inv.Invert(&acc)
	t := new(combTable)
	for k := len(pts) - 1; k >= 0; k-- {
		zinv.Mul(&inv, &prefix[k])
		inv.Mul(&inv, &pts[k].z)
		zinv2.Square(&zinv)
		t[k].x.Mul(&pts[k].x, &zinv2)
		t[k].y.Mul(&pts[k].y, &zinv2)
		t[k].y.Mul(&t[k].y, &zinv)
	}
	return t
}

// addComb adds k·P to p, where t is P's table and 0 ≤ k < n: one mixed
// addition per non-zero signed 4-bit digit of k.
func (p *jacobianPoint) addComb(t *combTable, k *big.Int) {
	neg := k.Cmp(halfN) > 0
	if neg {
		k = new(big.Int).Sub(p256Params.N, k) // k·P = −((n−k)·P)
	}
	var b [32]byte
	k.FillBytes(b[:])
	var zero fe
	carry := 0
	for i := 0; i < combWindows; i++ {
		d := int(b[31-i/2]>>(4*(i%2))&15) + carry
		carry = 0
		if d > 8 {
			d -= 16
			carry = 1
		}
		if d == 0 {
			continue
		}
		negate := neg
		if d < 0 {
			d, negate = -d, !negate
		}
		q := t[i*combPoints+d-1]
		if negate {
			q.y.Sub(&zero, &q.y)
		}
		p.addAffine(&q)
	}
}

// verify reports whether (r, s) is a signature of the 32-byte digest
// under the key whose table is q. Its verdict is crypto/ecdsa.Verify's
// on every input.
func (q *combTable) verify(digest []byte, r, s *big.Int) bool {
	n := p256Params.N
	if r.Sign() <= 0 || s.Sign() <= 0 || r.Cmp(n) >= 0 || s.Cmp(n) >= 0 {
		return false
	}
	w := new(big.Int).ModInverse(s, n)
	u1 := new(big.Int).SetBytes(digest)
	u1.Mul(u1, w).Mod(u1, n)
	u2 := w.Mul(w, r).Mod(w, n)
	var sum jacobianPoint
	sum.addComb(baseTable, u1)
	sum.addComb(q, u2)
	if sum.z.IsZero() == 1 {
		return false
	}
	// x(R) ∈ [0, p) and x(R) mod n = r iff x(R) is r or r + n. Comparing
	// X with r·Z² (and (r+n)·Z²) avoids inverting Z.
	var zz, t fe
	zz.Square(&sum.z)
	if t.Mul(feFromInt(r), &zz).Equal(&sum.x) == 1 {
		return true
	}
	rn := new(big.Int).Add(r, n)
	return rn.Cmp(p256Params.P) < 0 && t.Mul(feFromInt(rn), &zz).Equal(&sum.x) == 1
}
