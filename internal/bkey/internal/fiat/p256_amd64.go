// Copyright 2021 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

//go:build !purego

package fiat

// Mul sets e = t1 * t2, and returns e.
func (e *P256Element) Mul(t1, t2 *P256Element) *P256Element {
	p256MulAsm(&e.x, &t1.x, &t2.x)
	return e
}

// Square sets e = t * t, and returns e.
func (e *P256Element) Square(t *P256Element) *P256Element {
	p256SqrAsm(&e.x, &t.x, 1)
	return e
}

// p256MulAsm and p256SqrAsm are Go's amd64 Montgomery multiplication and
// n-fold squaring (p256_amd64.s). They share fiat's domain (R = 2^256) and
// little-endian limbs, and end with a conditional subtraction of p, so
// their results are fully reduced as fiat's are.
//
//go:noescape
func p256MulAsm(res, in1, in2 *p256MontgomeryDomainFieldElement)

//go:noescape
func p256SqrAsm(res, in *p256MontgomeryDomainFieldElement, n int)
