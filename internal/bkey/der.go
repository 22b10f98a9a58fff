package bkey

import "errors"

// This file is the DER codec of signatures: SEQUENCE { INTEGER r,
// INTEGER s }. It accepts exactly what encoding/asn1.Unmarshal into a
// struct of two *big.Int accepts with nothing after it, and encodes
// exactly as encoding/asn1.Marshal does, so it changes neither a
// verdict nor a byte. FuzzParseSignatureMatchesASN1 holds it to
// encoding/asn1.

const (
	derSequence = 0x30
	derInteger  = 0x02
)

var (
	errDERTruncated = errors.New("bkey: bad signature encoding: truncated")
	errDERTag       = errors.New("bkey: bad signature encoding: unexpected tag")
	errDERLength    = errors.New("bkey: bad signature encoding: length not in DER form")
	errDERInteger   = errors.New("bkey: bad signature encoding: integer empty or not minimally encoded")
	errDERTrailing  = errors.New("bkey: trailing bytes after signature")
	errNonPositive  = errors.New("bkey: non-positive signature component")
)

// derElement splits b into the contents of its first element, whose tag
// byte must be tag, and what follows it. Lengths are definite and
// minimal: the long form only from 128 on, with no leading zero byte,
// and encoding/asn1's guard against lengths of 2^31 and more.
func derElement(b []byte, tag byte) (contents, rest []byte, err error) {
	if len(b) < 2 {
		return nil, nil, errDERTruncated
	}
	if b[0] != tag {
		return nil, nil, errDERTag
	}
	n, off := int(b[1]), 2
	if n&0x80 != 0 {
		size := n & 0x7f
		if size == 0 { // the indefinite form
			return nil, nil, errDERLength
		}
		n = 0
		for i := 0; i < size; i++ {
			if off >= len(b) {
				return nil, nil, errDERTruncated
			}
			if n >= 1<<23 {
				return nil, nil, errDERLength
			}
			n = n<<8 | int(b[off])
			off++
			if n == 0 {
				return nil, nil, errDERLength
			}
		}
		if n < 0x80 {
			return nil, nil, errDERLength
		}
	}
	if n > len(b)-off {
		return nil, nil, errDERTruncated
	}
	return b[off : off+n], b[off+n:], nil
}

// derInt splits off the INTEGER at the front of b. It returns the
// magnitude of a positive value, with the sign byte dropped; positive
// reports whether the value is positive.
func derInt(b []byte) (mag, rest []byte, positive bool, err error) {
	c, rest, err := derElement(b, derInteger)
	if err != nil {
		return nil, nil, false, err
	}
	if len(c) == 0 || len(c) > 1 && (c[0] == 0 && c[1]&0x80 == 0 || c[0] == 0xff && c[1]&0x80 != 0) {
		return nil, nil, false, errDERInteger
	}
	if c[0]&0x80 != 0 || len(c) == 1 && c[0] == 0 {
		return nil, rest, false, nil
	}
	if c[0] == 0 {
		c = c[1:]
	}
	return c, rest, true, nil
}

// parseDER returns the magnitudes of r and s in the DER signature b, as
// sub-slices of b. Anything after s inside the SEQUENCE is ignored,
// because encoding/asn1 ignores elements after a struct's last field.
// That makes such padding a way to change a signature's bytes, and so a
// carrier's txid, without changing what it signs (ROADMAP item 3); the
// codec keeps it so as not to change consensus.
func parseDER(b []byte) (r, s []byte, err error) {
	seq, rest, err := derElement(b, derSequence)
	if err != nil {
		return nil, nil, err
	}
	r, seq, rPos, err := derInt(seq)
	if err != nil {
		return nil, nil, err
	}
	s, _, sPos, err := derInt(seq)
	if err != nil {
		return nil, nil, err
	}
	if len(rest) != 0 {
		return nil, nil, errDERTrailing
	}
	if !rPos || !sPos {
		return nil, nil, errNonPositive
	}
	return r, s, nil
}

// derLenSize is the size of the DER length field for n.
func derLenSize(n int) int {
	size := 1
	if n >= 0x80 {
		for ; n > 0; n >>= 8 {
			size++
		}
	}
	return size
}

// appendDERLen appends the DER length field for n.
func appendDERLen(dst []byte, n int) []byte {
	size := derLenSize(n)
	if size == 1 {
		return append(dst, byte(n))
	}
	dst = append(dst, 0x80|byte(size-1))
	for i := size - 2; i >= 0; i-- {
		dst = append(dst, byte(n>>(8*i)))
	}
	return dst
}

// derIntSize is the size of the contents of the INTEGER whose positive
// value has magnitude mag: a zero sign byte precedes a high bit.
func derIntSize(mag []byte) int {
	if mag[0]&0x80 != 0 {
		return len(mag) + 1
	}
	return len(mag)
}

func appendDERInt(dst, mag []byte) []byte {
	dst = append(dst, derInteger)
	dst = appendDERLen(dst, derIntSize(mag))
	if mag[0]&0x80 != 0 {
		dst = append(dst, 0)
	}
	return append(dst, mag...)
}

// Signature is an ECDSA signature (r, s). It holds r and s as the
// minimal big-endian magnitudes of positive integers. Those may be
// wider than 32 bytes, which never verify, so that Serialize re-encodes
// every signature ParseSignature accepts.
type Signature struct {
	r, s []byte
}

// Serialize encodes the signature as DER, Bitcoin's on-the-wire
// signature encoding, byte for byte as encoding/asn1 would.
func (sig *Signature) Serialize() []byte {
	rn, sn := derIntSize(sig.r), derIntSize(sig.s)
	body := 1 + derLenSize(rn) + rn + 1 + derLenSize(sn) + sn
	out := make([]byte, 0, 1+derLenSize(body)+body)
	out = appendDERLen(append(out, derSequence), body)
	out = appendDERInt(out, sig.r)
	return appendDERInt(out, sig.s)
}

// ParseSignature decodes a DER signature. It accepts exactly what
// encoding/asn1 accepts for SEQUENCE { r, s } with nothing after it,
// provided r and s are positive (see parseDER).
func ParseSignature(b []byte) (*Signature, error) {
	r, s, err := parseDER(b)
	if err != nil {
		return nil, err
	}
	return newSignature(r, s), nil
}

// newSignature returns a Signature holding copies of the magnitudes r
// and s, in one buffer.
func newSignature(r, s []byte) *Signature {
	buf := make([]byte, len(r)+len(s))
	copy(buf[copy(buf, r):], s)
	return &Signature{r: buf[:len(r):len(r)], s: buf[len(r):]}
}
