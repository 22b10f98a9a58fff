package lf

import (
	"errors"
	"fmt"
	"io"

	"typecoin/internal/chainhash"
	"typecoin/internal/wire"
)

// Canonical binary encoding of LF syntax. Typecoin hashes and signs
// encoded propositions and transactions, so the encoding must be
// deterministic and injective; it is also used to ship Typecoin
// transactions between parties and batch servers.

// Encoding tags.
const (
	tagRefGlobal byte = 0x01
	tagRefThis   byte = 0x02
	tagRefTx     byte = 0x03

	tagKType byte = 0x10
	tagKProp byte = 0x11
	tagKPi   byte = 0x12

	tagFConst byte = 0x20
	tagFApp   byte = 0x21
	tagFPi    byte = 0x22

	tagTVar       byte = 0x30
	tagTConst     byte = 0x31
	tagTLam       byte = 0x32
	tagTApp       byte = 0x33
	tagTPrincipal byte = 0x34
	tagTNat       byte = 0x35
)

// ErrBadEncoding reports a malformed LF encoding.
var ErrBadEncoding = errors.New("lf: malformed encoding")

// MaxDecodeDepth bounds decoder recursion. Honest objects are shallow
// (proof trees a few dozen levels deep at most); without a cap a crafted
// byte string one tag per level could drive the mutually recursive
// decoders arbitrarily deep and exhaust the stack.
const MaxDecodeDepth = 512

var errTooDeep = fmt.Errorf("%w: nesting deeper than %d", ErrBadEncoding, MaxDecodeDepth)

func readByte(r io.Reader) (byte, error) {
	var b [1]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// The encoders append to a caller's buffer and return it extended, so a
// whole transaction is encoded into one allocation. They fail only on a
// value outside the syntax (a nil or foreign node).

// AppendRef appends the encoding of a constant reference.
func AppendRef(dst []byte, r Ref) ([]byte, error) {
	switch r.Kind {
	case RefGlobal:
		dst = append(dst, tagRefGlobal)
	case RefThis:
		dst = append(dst, tagRefThis)
	case RefTx:
		dst = append(append(dst, tagRefTx), r.Tx[:]...)
	default:
		return nil, fmt.Errorf("lf: unknown ref kind %d", r.Kind)
	}
	return append(wire.AppendVarInt(dst, uint64(len(r.Label))), r.Label...), nil
}

// DecodeRef reads a constant reference.
func DecodeRef(r io.Reader) (Ref, error) {
	tag, err := readByte(r)
	if err != nil {
		return Ref{}, err
	}
	var out Ref
	switch tag {
	case tagRefGlobal:
		out.Kind = RefGlobal
	case tagRefThis:
		out.Kind = RefThis
	case tagRefTx:
		out.Kind = RefTx
		var h chainhash.Hash
		if _, err := io.ReadFull(r, h[:]); err != nil {
			return Ref{}, err
		}
		out.Tx = h
	default:
		return Ref{}, fmt.Errorf("%w: ref tag %#02x", ErrBadEncoding, tag)
	}
	label, err := wire.ReadVarBytes(r, "ref label")
	if err != nil {
		return Ref{}, err
	}
	out.Label = string(label)
	return out, nil
}

// AppendKind appends the encoding of a kind.
func AppendKind(dst []byte, k Kind) ([]byte, error) {
	switch k := k.(type) {
	case KType:
		return append(dst, tagKType), nil
	case KProp:
		return append(dst, tagKProp), nil
	case KPi:
		dst, err := AppendFamily(append(dst, tagKPi), k.Arg)
		if err != nil {
			return nil, err
		}
		return AppendKind(dst, k.Body)
	default:
		return nil, fmt.Errorf("lf: unknown kind %T", k)
	}
}

// DecodeKind reads a kind.
func DecodeKind(r io.Reader) (Kind, error) { return decodeKind(r, 0) }

func decodeKind(r io.Reader, depth int) (Kind, error) {
	if depth > MaxDecodeDepth {
		return nil, errTooDeep
	}
	tag, err := readByte(r)
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagKType:
		return KType{}, nil
	case tagKProp:
		return KProp{}, nil
	case tagKPi:
		arg, err := decodeFamily(r, depth+1)
		if err != nil {
			return nil, err
		}
		body, err := decodeKind(r, depth+1)
		if err != nil {
			return nil, err
		}
		return KPi{Hint: "u", Arg: arg, Body: body}, nil
	default:
		return nil, fmt.Errorf("%w: kind tag %#02x", ErrBadEncoding, tag)
	}
}

// AppendFamily appends the encoding of a family. Binder hints are NOT
// encoded: two alpha-equivalent families encode identically.
func AppendFamily(dst []byte, f Family) ([]byte, error) {
	switch f := f.(type) {
	case FConst:
		return AppendRef(append(dst, tagFConst), f.Ref)
	case FApp:
		dst, err := AppendFamily(append(dst, tagFApp), f.Fam)
		if err != nil {
			return nil, err
		}
		return AppendTerm(dst, f.Arg)
	case FPi:
		dst, err := AppendFamily(append(dst, tagFPi), f.Arg)
		if err != nil {
			return nil, err
		}
		return AppendFamily(dst, f.Body)
	default:
		return nil, fmt.Errorf("lf: unknown family %T", f)
	}
}

// DecodeFamily reads a family.
func DecodeFamily(r io.Reader) (Family, error) { return decodeFamily(r, 0) }

func decodeFamily(r io.Reader, depth int) (Family, error) {
	if depth > MaxDecodeDepth {
		return nil, errTooDeep
	}
	tag, err := readByte(r)
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagFConst:
		ref, err := DecodeRef(r)
		if err != nil {
			return nil, err
		}
		return FConst{Ref: ref}, nil
	case tagFApp:
		fam, err := decodeFamily(r, depth+1)
		if err != nil {
			return nil, err
		}
		arg, err := decodeTerm(r, depth+1)
		if err != nil {
			return nil, err
		}
		return FApp{Fam: fam, Arg: arg}, nil
	case tagFPi:
		arg, err := decodeFamily(r, depth+1)
		if err != nil {
			return nil, err
		}
		body, err := decodeFamily(r, depth+1)
		if err != nil {
			return nil, err
		}
		return FPi{Hint: "u", Arg: arg, Body: body}, nil
	default:
		return nil, fmt.Errorf("%w: family tag %#02x", ErrBadEncoding, tag)
	}
}

// AppendTerm appends the encoding of a term.
func AppendTerm(dst []byte, t Term) ([]byte, error) {
	switch t := t.(type) {
	case TVar:
		return wire.AppendVarInt(append(dst, tagTVar), uint64(t.Index)), nil
	case TConst:
		return AppendRef(append(dst, tagTConst), t.Ref)
	case TLam:
		dst, err := AppendFamily(append(dst, tagTLam), t.Arg)
		if err != nil {
			return nil, err
		}
		return AppendTerm(dst, t.Body)
	case TApp:
		dst, err := AppendTerm(append(dst, tagTApp), t.Fn)
		if err != nil {
			return nil, err
		}
		return AppendTerm(dst, t.Arg)
	case TPrincipal:
		return append(append(dst, tagTPrincipal), t.K[:]...), nil
	case TNat:
		return wire.AppendVarInt(append(dst, tagTNat), t.N), nil
	default:
		return nil, fmt.Errorf("lf: unknown term %T", t)
	}
}

// DecodeTerm reads a term.
func DecodeTerm(r io.Reader) (Term, error) { return decodeTerm(r, 0) }

func decodeTerm(r io.Reader, depth int) (Term, error) {
	if depth > MaxDecodeDepth {
		return nil, errTooDeep
	}
	tag, err := readByte(r)
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagTVar:
		idx, err := wire.ReadVarInt(r)
		if err != nil {
			return nil, err
		}
		if idx > 1<<20 {
			return nil, fmt.Errorf("%w: implausible variable index %d", ErrBadEncoding, idx)
		}
		return TVar{Index: int(idx), Hint: "u"}, nil
	case tagTConst:
		ref, err := DecodeRef(r)
		if err != nil {
			return nil, err
		}
		return TConst{Ref: ref}, nil
	case tagTLam:
		arg, err := decodeFamily(r, depth+1)
		if err != nil {
			return nil, err
		}
		body, err := decodeTerm(r, depth+1)
		if err != nil {
			return nil, err
		}
		return TLam{Hint: "u", Arg: arg, Body: body}, nil
	case tagTApp:
		fn, err := decodeTerm(r, depth+1)
		if err != nil {
			return nil, err
		}
		arg, err := decodeTerm(r, depth+1)
		if err != nil {
			return nil, err
		}
		return TApp{Fn: fn, Arg: arg}, nil
	case tagTPrincipal:
		var t TPrincipal
		if _, err := io.ReadFull(r, t.K[:]); err != nil {
			return nil, err
		}
		return t, nil
	case tagTNat:
		n, err := wire.ReadVarInt(r)
		if err != nil {
			return nil, err
		}
		return TNat{N: n}, nil
	default:
		return nil, fmt.Errorf("%w: term tag %#02x", ErrBadEncoding, tag)
	}
}

// TermBytes returns the canonical encoding of a term.
func TermBytes(t Term) []byte {
	b, err := AppendTerm(nil, t)
	if err != nil {
		panic("lf: impossible encode failure: " + err.Error())
	}
	return b
}

// FamilyBytes returns the canonical encoding of a family.
func FamilyBytes(f Family) []byte {
	b, err := AppendFamily(nil, f)
	if err != nil {
		panic("lf: impossible encode failure: " + err.Error())
	}
	return b
}
