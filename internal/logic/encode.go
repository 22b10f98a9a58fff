package logic

import (
	"errors"
	"fmt"
	"io"

	"typecoin/internal/chainhash"
	"typecoin/internal/lf"
	"typecoin/internal/wire"
)

// Canonical binary encoding of propositions, conditions and bases,
// building on the LF encoding. Used for hashing (the Typecoin transaction
// hash embedded into Bitcoin), signing (assert/assert! payloads) and
// transport.

const (
	tagPAtom    byte = 0x40
	tagPLolli   byte = 0x41
	tagPTensor  byte = 0x42
	tagPWith    byte = 0x43
	tagPPlus    byte = 0x44
	tagPZero    byte = 0x45
	tagPOne     byte = 0x46
	tagPBang    byte = 0x47
	tagPForall  byte = 0x48
	tagPExists  byte = 0x49
	tagPSays    byte = 0x4a
	tagPReceipt byte = 0x4b
	tagPIf      byte = 0x4c

	tagCTrue   byte = 0x50
	tagCAnd    byte = 0x51
	tagCNot    byte = 0x52
	tagCBefore byte = 0x53
	tagCSpent  byte = 0x54

	tagDeclFam  byte = 0x60
	tagDeclTerm byte = 0x61
	tagDeclProp byte = 0x62
)

// ErrBadEncoding reports a malformed logic encoding.
var ErrBadEncoding = errors.New("logic: malformed encoding")

// errTooDeep bounds Prop/Cond recursion, mirroring the lf decoder cap.
var errTooDeep = fmt.Errorf("%w: nesting deeper than %d", ErrBadEncoding, lf.MaxDecodeDepth)

func readByte(r io.Reader) (byte, error) {
	var b [1]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// EncodeProp writes a proposition.
func EncodeProp(w io.Writer, p Prop) error {
	b, err := AppendProp(nil, p)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// AppendProp appends the encoding of a proposition to dst (see the lf
// encoders: one buffer per encoded object).
func AppendProp(dst []byte, p Prop) ([]byte, error) {
	var err error
	switch p := p.(type) {
	case PAtom:
		return lf.AppendFamily(append(dst, tagPAtom), p.Fam)
	case PLolli:
		return appendBinary(dst, tagPLolli, p.A, p.B)
	case PTensor:
		return appendBinary(dst, tagPTensor, p.A, p.B)
	case PWith:
		return appendBinary(dst, tagPWith, p.A, p.B)
	case PPlus:
		return appendBinary(dst, tagPPlus, p.A, p.B)
	case PZero:
		return append(dst, tagPZero), nil
	case POne:
		return append(dst, tagPOne), nil
	case PBang:
		return AppendProp(append(dst, tagPBang), p.A)
	case PForall:
		return appendBinder(dst, tagPForall, p.Ty, p.Body)
	case PExists:
		return appendBinder(dst, tagPExists, p.Ty, p.Body)
	case PSays:
		if dst, err = lf.AppendTerm(append(dst, tagPSays), p.Prin); err != nil {
			return nil, err
		}
		return AppendProp(dst, p.Body)
	case PReceipt:
		if p.Res == nil {
			dst = append(dst, tagPReceipt, 0)
		} else if dst, err = AppendProp(append(dst, tagPReceipt, 1), p.Res); err != nil {
			return nil, err
		}
		return lf.AppendTerm(wire.AppendVarInt(dst, uint64(p.Amount)), p.To)
	case PIf:
		if dst, err = AppendCond(append(dst, tagPIf), p.Cond); err != nil {
			return nil, err
		}
		return AppendProp(dst, p.Body)
	default:
		return nil, fmt.Errorf("logic: unknown proposition %T", p)
	}
}

func appendBinary(dst []byte, tag byte, a, b Prop) ([]byte, error) {
	dst, err := AppendProp(append(dst, tag), a)
	if err != nil {
		return nil, err
	}
	return AppendProp(dst, b)
}

func appendBinder(dst []byte, tag byte, ty lf.Family, body Prop) ([]byte, error) {
	dst, err := lf.AppendFamily(append(dst, tag), ty)
	if err != nil {
		return nil, err
	}
	return AppendProp(dst, body)
}

// DecodeProp reads a proposition.
func DecodeProp(r io.Reader) (Prop, error) { return decodeProp(r, 0) }

func decodeProp(r io.Reader, depth int) (Prop, error) {
	if depth > lf.MaxDecodeDepth {
		return nil, errTooDeep
	}
	tag, err := readByte(r)
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagPAtom:
		f, err := lf.DecodeFamily(r)
		if err != nil {
			return nil, err
		}
		return PAtom{Fam: f}, nil
	case tagPLolli, tagPTensor, tagPWith, tagPPlus:
		a, err := decodeProp(r, depth+1)
		if err != nil {
			return nil, err
		}
		b, err := decodeProp(r, depth+1)
		if err != nil {
			return nil, err
		}
		switch tag {
		case tagPLolli:
			return PLolli{A: a, B: b}, nil
		case tagPTensor:
			return PTensor{A: a, B: b}, nil
		case tagPWith:
			return PWith{A: a, B: b}, nil
		default:
			return PPlus{A: a, B: b}, nil
		}
	case tagPZero:
		return PZero{}, nil
	case tagPOne:
		return POne{}, nil
	case tagPBang:
		a, err := decodeProp(r, depth+1)
		if err != nil {
			return nil, err
		}
		return PBang{A: a}, nil
	case tagPForall, tagPExists:
		ty, err := lf.DecodeFamily(r)
		if err != nil {
			return nil, err
		}
		body, err := decodeProp(r, depth+1)
		if err != nil {
			return nil, err
		}
		if tag == tagPForall {
			return PForall{Hint: "u", Ty: ty, Body: body}, nil
		}
		return PExists{Hint: "u", Ty: ty, Body: body}, nil
	case tagPSays:
		prin, err := lf.DecodeTerm(r)
		if err != nil {
			return nil, err
		}
		body, err := decodeProp(r, depth+1)
		if err != nil {
			return nil, err
		}
		return PSays{Prin: prin, Body: body}, nil
	case tagPReceipt:
		hasRes, err := readByte(r)
		if err != nil {
			return nil, err
		}
		var res Prop
		if hasRes == 1 {
			if res, err = decodeProp(r, depth+1); err != nil {
				return nil, err
			}
		} else if hasRes != 0 {
			return nil, fmt.Errorf("%w: receipt flag %d", ErrBadEncoding, hasRes)
		}
		amount, err := wire.ReadVarInt(r)
		if err != nil {
			return nil, err
		}
		if amount > wire.MaxSatoshi {
			return nil, fmt.Errorf("%w: receipt amount %d", ErrBadEncoding, amount)
		}
		to, err := lf.DecodeTerm(r)
		if err != nil {
			return nil, err
		}
		return PReceipt{Res: res, Amount: int64(amount), To: to}, nil
	case tagPIf:
		cond, err := decodeCond(r, depth+1)
		if err != nil {
			return nil, err
		}
		body, err := decodeProp(r, depth+1)
		if err != nil {
			return nil, err
		}
		return PIf{Cond: cond, Body: body}, nil
	default:
		return nil, fmt.Errorf("%w: prop tag %#02x", ErrBadEncoding, tag)
	}
}

// AppendCond appends the encoding of a condition.
func AppendCond(dst []byte, c Cond) ([]byte, error) {
	switch c := c.(type) {
	case CTrue:
		return append(dst, tagCTrue), nil
	case CAnd:
		dst, err := AppendCond(append(dst, tagCAnd), c.L)
		if err != nil {
			return nil, err
		}
		return AppendCond(dst, c.R)
	case CNot:
		return AppendCond(append(dst, tagCNot), c.C)
	case CBefore:
		return lf.AppendTerm(append(dst, tagCBefore), c.T)
	case CSpent:
		dst = append(append(dst, tagCSpent), c.Out.Hash[:]...)
		return wire.AppendVarInt(dst, uint64(c.Out.Index)), nil
	default:
		return nil, fmt.Errorf("logic: unknown condition %T", c)
	}
}

// DecodeCond reads a condition.
func DecodeCond(r io.Reader) (Cond, error) { return decodeCond(r, 0) }

func decodeCond(r io.Reader, depth int) (Cond, error) {
	if depth > lf.MaxDecodeDepth {
		return nil, errTooDeep
	}
	tag, err := readByte(r)
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagCTrue:
		return CTrue{}, nil
	case tagCAnd:
		l, err := decodeCond(r, depth+1)
		if err != nil {
			return nil, err
		}
		rr, err := decodeCond(r, depth+1)
		if err != nil {
			return nil, err
		}
		return CAnd{L: l, R: rr}, nil
	case tagCNot:
		c, err := decodeCond(r, depth+1)
		if err != nil {
			return nil, err
		}
		return CNot{C: c}, nil
	case tagCBefore:
		t, err := lf.DecodeTerm(r)
		if err != nil {
			return nil, err
		}
		return CBefore{T: t}, nil
	case tagCSpent:
		var out wire.OutPoint
		if _, err := io.ReadFull(r, out.Hash[:]); err != nil {
			return nil, err
		}
		idx, err := wire.ReadVarInt(r)
		if err != nil {
			return nil, err
		}
		if idx > 0xffffffff {
			return nil, fmt.Errorf("%w: outpoint index %d", ErrBadEncoding, idx)
		}
		out.Index = uint32(idx)
		return CSpent{Out: out}, nil
	default:
		return nil, fmt.Errorf("%w: condition tag %#02x", ErrBadEncoding, tag)
	}
}

// AppendBasis appends the local declarations of b in declaration order:
// families, then terms, then proof constants.
func AppendBasis(dst []byte, b *Basis) ([]byte, error) {
	dst = wire.AppendVarInt(dst, uint64(len(b.fams)+len(b.terms)+len(b.props)))
	var err error
	for _, r := range b.fams {
		if dst, err = lf.AppendRef(append(dst, tagDeclFam), r); err != nil {
			return nil, err
		}
		if dst, err = lf.AppendKind(dst, b.decls[r].kind); err != nil {
			return nil, err
		}
	}
	for _, r := range b.terms {
		if dst, err = lf.AppendRef(append(dst, tagDeclTerm), r); err != nil {
			return nil, err
		}
		if dst, err = lf.AppendFamily(dst, b.decls[r].fam); err != nil {
			return nil, err
		}
	}
	for _, r := range b.props {
		if dst, err = lf.AppendRef(append(dst, tagDeclProp), r); err != nil {
			return nil, err
		}
		if dst, err = AppendProp(dst, b.decls[r].prop); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// DecodeBasis reads local declarations into a fresh basis over parent.
func DecodeBasis(r io.Reader, parent *Basis) (*Basis, error) {
	n, err := wire.ReadVarInt(r)
	if err != nil {
		return nil, err
	}
	if n > 10000 {
		return nil, fmt.Errorf("%w: %d declarations", ErrBadEncoding, n)
	}
	b := NewBasis(parent)
	for i := uint64(0); i < n; i++ {
		tag, err := readByte(r)
		if err != nil {
			return nil, err
		}
		ref, err := lf.DecodeRef(r)
		if err != nil {
			return nil, err
		}
		switch tag {
		case tagDeclFam:
			k, err := lf.DecodeKind(r)
			if err != nil {
				return nil, err
			}
			if err := b.DeclareFam(ref, k); err != nil {
				return nil, err
			}
		case tagDeclTerm:
			f, err := lf.DecodeFamily(r)
			if err != nil {
				return nil, err
			}
			if err := b.DeclareTerm(ref, f); err != nil {
				return nil, err
			}
		case tagDeclProp:
			p, err := DecodeProp(r)
			if err != nil {
				return nil, err
			}
			if err := b.DeclareProp(ref, p); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: declaration tag %#02x", ErrBadEncoding, tag)
		}
	}
	return b, nil
}

// PropBytes returns the canonical encoding of a proposition.
func PropBytes(p Prop) []byte {
	b, err := AppendProp(nil, p)
	if err != nil {
		panic("logic: impossible encode failure: " + err.Error())
	}
	return b
}

// PropHash returns a tagged hash of a proposition; assert! signatures
// sign this digest (the signature covers only the proposition, so the
// affirmation is portable across transactions — Section 4).
func PropHash(p Prop) chainhash.Hash {
	return chainhash.TaggedHash("typecoin/assert-persistent", PropBytes(p))
}
