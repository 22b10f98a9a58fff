package bkey

import (
	"crypto/elliptic"
	"math/big"

	"typecoin/internal/bkey/internal/fiat"
)

// This file verifies P-256 ECDSA signatures through precomputed comb
// tables. A point's table holds every signed w-bit-window multiple of the
// point, so R = u1·G + u2·Q is a sum of table entries, one mixed addition
// per non-zero digit of each scalar, and no doubling runs at verify time.
// Every input (key, digest, signature) is public, so the code is
// variable-time; signing never reaches it.

const (
	keyWindow  = 4 // a key's table: 64 windows of 8 points, 32 KiB
	baseWindow = 8 // G's table: 32 windows of 128 points, 256 KiB
)

type fe = fiat.P256Element

// affinePoint is a finite point (x, y).
type affinePoint struct{ x, y fe }

// jacobianPoint is the point (X/Z², Y/Z³). Z = 0 is the point at
// infinity, so the zero value is the identity.
type jacobianPoint struct{ x, y, z fe }

// combTable holds, for a point P and a window width w dividing 8,
// (j+1)·2^(w·i)·P at index i·2^(w−1) + j: 256/w windows of the 2^(w−1)
// affine points that signed (Booth) digits of magnitude at most 2^(w−1)
// need.
type combTable struct {
	w   uint
	pts []affinePoint
}

var (
	p256Params = elliptic.P256().Params()
	// halfN is (n−1)/2. addComb negates a scalar above it, which keeps
	// the scalar below 2^255 so that the top window never carries out.
	halfN = new(big.Int).Rsh(p256Params.N, 1)
	// baseTable is the generator's table, built once by the same code
	// as every key's but with a wider window: it is shared by every
	// verification, so its 256 KiB halve the additions for u1·G.
	baseTable = newCombTable(feFromInt(p256Params.Gx), feFromInt(p256Params.Gy), baseWindow)
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

// newCombTable builds the w-bit-window table of the finite point (x, y).
// Each window of 2^(w−1) points costs 2^(w−2) + 1 doublings (one makes
// the next window's base) and 2^(w−2) − 1 additions in Jacobian
// coordinates; one batch normalisation, with a single field inversion,
// then makes every point affine.
func newCombTable(x, y *fe, w uint) *combTable {
	windows, points := 256/int(w), 1<<(w-1)
	pts := make([]jacobianPoint, windows*points)
	var b jacobianPoint
	b.addAffine(&affinePoint{x: *x, y: *y})
	for i := 0; i < windows; i++ {
		row := pts[i*points : (i+1)*points]
		row[0] = b
		for j := 1; j < points; j++ {
			if j%2 == 1 { // (j+1)·B = 2·((j+1)/2)·B
				row[j] = row[(j-1)/2]
				row[j].double()
			} else {
				row[j] = row[j-1]
				row[j].add(&b)
			}
		}
		b = row[points-1]
		b.double() // 2^w·B, the next window's base
	}

	// Montgomery's trick: the prefix product Z_0···Z_{k−1}, kept in entry
	// k's x until the backward pass overwrites it, so one inversion of the
	// full product yields every 1/Z_k. No Z is zero: every entry is a
	// multiple m·P with 0 < m ≤ 2^(w−1)·2^(w·(256/w−1)) = 2^255 < n.
	t := &combTable{w: w, pts: make([]affinePoint, len(pts))}
	var acc, inv, zinv, zinv2 fe
	acc.One()
	for k := range pts {
		t.pts[k].x = acc
		acc.Mul(&acc, &pts[k].z)
	}
	inv.Invert(&acc)
	for k := len(pts) - 1; k >= 0; k-- {
		a := &t.pts[k]
		zinv.Mul(&inv, &a.x)
		inv.Mul(&inv, &pts[k].z)
		zinv2.Square(&zinv)
		a.x.Mul(&pts[k].x, &zinv2)
		a.y.Mul(&pts[k].y, &zinv2)
		a.y.Mul(&a.y, &zinv)
	}
	return t
}

// addComb adds k·P to p, where t is P's table and 0 ≤ k < n: one mixed
// addition per non-zero signed w-bit digit of k.
func (p *jacobianPoint) addComb(t *combTable, k *big.Int) {
	neg := k.Cmp(halfN) > 0
	if neg {
		k = new(big.Int).Sub(p256Params.N, k) // k·P = −((n−k)·P)
	}
	var b [32]byte
	k.FillBytes(b[:])
	w := t.w
	points, mask := 1<<(w-1), 1<<w-1
	var zero fe
	carry := 0
	for i := 0; i < 256/int(w); i++ {
		bit := uint(i) * w // a window never straddles a byte, as w divides 8
		d := int(b[31-bit/8]>>(bit%8))&mask + carry
		carry = 0
		if d > points {
			d -= 1 << w
			carry = 1
		}
		if d == 0 {
			continue
		}
		negate := neg
		if d < 0 {
			d, negate = -d, !negate
		}
		q := t.pts[i*points+d-1]
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
