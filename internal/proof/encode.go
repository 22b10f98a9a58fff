package proof

import (
	"errors"
	"fmt"
	"io"

	"typecoin/internal/bkey"
	"typecoin/internal/lf"
	"typecoin/internal/logic"
	"typecoin/internal/wire"
)

// Canonical binary encoding of proof terms. The Typecoin transaction
// hash covers the proof term ("the full Typecoin transaction, including
// inputs, outputs, a proof term, and other material, is cryptographically
// hashed"), and transactions travel between parties and batch servers in
// this encoding.
//
// Variable names ARE encoded (unlike LF binder hints): proof terms refer
// to hypotheses by name, so names are semantically significant.

const (
	tagVar       byte = 0x70
	tagConst     byte = 0x71
	tagLam       byte = 0x72
	tagApp       byte = 0x73
	tagPair      byte = 0x74
	tagLetPair   byte = 0x75
	tagUnit      byte = 0x76
	tagLetUnit   byte = 0x77
	tagWithPair  byte = 0x78
	tagFst       byte = 0x79
	tagSnd       byte = 0x7a
	tagInl       byte = 0x7b
	tagInr       byte = 0x7c
	tagCase      byte = 0x7d
	tagAbort     byte = 0x7e
	tagBangI     byte = 0x7f
	tagLetBang   byte = 0x80
	tagTLam      byte = 0x81
	tagTApp      byte = 0x82
	tagPack      byte = 0x83
	tagUnpack    byte = 0x84
	tagSayReturn byte = 0x85
	tagSayBind   byte = 0x86
	tagAssert    byte = 0x87
	tagIfReturn  byte = 0x88
	tagIfBind    byte = 0x89
	tagIfWeaken  byte = 0x8a
	tagIfSay     byte = 0x8b
)

// ErrBadEncoding reports a malformed proof-term encoding.
var ErrBadEncoding = errors.New("proof: malformed encoding")

// errTooDeep bounds proof-term recursion, mirroring the lf decoder cap.
var errTooDeep = fmt.Errorf("%w: nesting deeper than %d", ErrBadEncoding, lf.MaxDecodeDepth)

func readByte(r io.Reader) (byte, error) {
	var b [1]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

func readName(r io.Reader) (string, error) {
	b, err := wire.ReadVarBytes(r, "name")
	if err != nil {
		return "", err
	}
	if len(b) > 256 {
		return "", fmt.Errorf("%w: name too long", ErrBadEncoding)
	}
	return string(b), nil
}

// Encode writes a proof term.
func Encode(w io.Writer, m Term) error {
	b, err := Append(nil, m)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

func appendName(dst []byte, s string) []byte {
	return append(wire.AppendVarInt(dst, uint64(len(s))), s...)
}

// Append appends the encoding of a proof term to dst (see the lf
// encoders: one buffer per encoded object).
func Append(dst []byte, m Term) ([]byte, error) {
	var err error
	switch m := m.(type) {
	case Var:
		return appendName(append(dst, tagVar), m.Name), nil
	case Const:
		return lf.AppendRef(append(dst, tagConst), m.Ref)
	case Lam:
		if dst, err = logic.AppendProp(appendName(append(dst, tagLam), m.Name), m.Ty); err != nil {
			return nil, err
		}
		return Append(dst, m.Body)
	case App:
		return append2(append(dst, tagApp), m.Fn, m.Arg)
	case Pair:
		return append2(append(dst, tagPair), m.L, m.R)
	case LetPair:
		return append2(appendName(appendName(append(dst, tagLetPair), m.LName), m.RName), m.Of, m.Body)
	case Unit:
		return append(dst, tagUnit), nil
	case LetUnit:
		return append2(append(dst, tagLetUnit), m.Of, m.Body)
	case WithPair:
		return append2(append(dst, tagWithPair), m.L, m.R)
	case Fst:
		return Append(append(dst, tagFst), m.Of)
	case Snd:
		return Append(append(dst, tagSnd), m.Of)
	case Inl:
		return appendAs(append(dst, tagInl), m.As, m.Of)
	case Inr:
		return appendAs(append(dst, tagInr), m.As, m.Of)
	case Case:
		if dst, err = Append(append(dst, tagCase), m.Of); err != nil {
			return nil, err
		}
		if dst, err = Append(appendName(dst, m.LName), m.L); err != nil {
			return nil, err
		}
		return Append(appendName(dst, m.RName), m.R)
	case Abort:
		return appendAs(append(dst, tagAbort), m.As, m.Of)
	case BangI:
		return Append(append(dst, tagBangI), m.Of)
	case LetBang:
		return append2(appendName(append(dst, tagLetBang), m.Name), m.Of, m.Body)
	case TLam:
		if dst, err = lf.AppendFamily(append(dst, tagTLam), m.Ty); err != nil {
			return nil, err
		}
		return Append(dst, m.Body)
	case TApp:
		if dst, err = Append(append(dst, tagTApp), m.Fn); err != nil {
			return nil, err
		}
		return lf.AppendTerm(dst, m.Arg)
	case Pack:
		if dst, err = lf.AppendTerm(append(dst, tagPack), m.Witness); err != nil {
			return nil, err
		}
		return appendAs(dst, m.As, m.Of)
	case Unpack:
		return append2(appendName(append(dst, tagUnpack), m.Name), m.Of, m.Body)
	case SayReturn:
		if dst, err = lf.AppendTerm(append(dst, tagSayReturn), m.Prin); err != nil {
			return nil, err
		}
		return Append(dst, m.Of)
	case SayBind:
		return append2(appendName(append(dst, tagSayBind), m.Name), m.Of, m.Body)
	case Assert:
		if m.Key == nil || m.Sig == nil {
			return nil, errors.New("proof: encoding assert without key or signature")
		}
		persistent := byte(0)
		if m.Persistent {
			persistent = 1
		}
		dst = append(append(dst, tagAssert, persistent), m.Key.Serialize()...)
		return logic.AppendProp(wire.AppendVarBytes(dst, m.Sig.Serialize()), m.Prop)
	case IfReturn:
		return appendCond(append(dst, tagIfReturn), m.Cond, m.Of)
	case IfBind:
		return append2(appendName(append(dst, tagIfBind), m.Name), m.Of, m.Body)
	case IfWeaken:
		return appendCond(append(dst, tagIfWeaken), m.Cond, m.Of)
	case IfSay:
		return Append(append(dst, tagIfSay), m.Of)
	default:
		return nil, fmt.Errorf("proof: unknown term %T", m)
	}
}

// append2 appends two subterms.
func append2(dst []byte, a, b Term) ([]byte, error) {
	dst, err := Append(dst, a)
	if err != nil {
		return nil, err
	}
	return Append(dst, b)
}

// appendAs appends a type annotation and the term it annotates.
func appendAs(dst []byte, as logic.Prop, of Term) ([]byte, error) {
	dst, err := logic.AppendProp(dst, as)
	if err != nil {
		return nil, err
	}
	return Append(dst, of)
}

// appendCond appends a condition and the term under it.
func appendCond(dst []byte, c logic.Cond, of Term) ([]byte, error) {
	dst, err := logic.AppendCond(dst, c)
	if err != nil {
		return nil, err
	}
	return Append(dst, of)
}

// Decode reads a proof term.
func Decode(r io.Reader) (Term, error) { return decode(r, 0) }

func decode(r io.Reader, depth int) (Term, error) {
	if depth > lf.MaxDecodeDepth {
		return nil, errTooDeep
	}
	tag, err := readByte(r)
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagVar:
		name, err := readName(r)
		if err != nil {
			return nil, err
		}
		return Var{Name: name}, nil
	case tagConst:
		ref, err := lf.DecodeRef(r)
		if err != nil {
			return nil, err
		}
		return Const{Ref: ref}, nil
	case tagLam:
		name, err := readName(r)
		if err != nil {
			return nil, err
		}
		ty, err := logic.DecodeProp(r)
		if err != nil {
			return nil, err
		}
		body, err := decode(r, depth+1)
		if err != nil {
			return nil, err
		}
		return Lam{Name: name, Ty: ty, Body: body}, nil
	case tagApp:
		a, b, err := decode2(r, depth)
		return App{Fn: a, Arg: b}, err
	case tagPair:
		a, b, err := decode2(r, depth)
		return Pair{L: a, R: b}, err
	case tagLetPair:
		lname, err := readName(r)
		if err != nil {
			return nil, err
		}
		rname, err := readName(r)
		if err != nil {
			return nil, err
		}
		of, body, err := decode2(r, depth)
		return LetPair{LName: lname, RName: rname, Of: of, Body: body}, err
	case tagUnit:
		return Unit{}, nil
	case tagLetUnit:
		a, b, err := decode2(r, depth)
		return LetUnit{Of: a, Body: b}, err
	case tagWithPair:
		a, b, err := decode2(r, depth)
		return WithPair{L: a, R: b}, err
	case tagFst:
		a, err := decode(r, depth+1)
		return Fst{Of: a}, err
	case tagSnd:
		a, err := decode(r, depth+1)
		return Snd{Of: a}, err
	case tagInl:
		as, err := logic.DecodeProp(r)
		if err != nil {
			return nil, err
		}
		of, err := decode(r, depth+1)
		return Inl{As: as, Of: of}, err
	case tagInr:
		as, err := logic.DecodeProp(r)
		if err != nil {
			return nil, err
		}
		of, err := decode(r, depth+1)
		return Inr{As: as, Of: of}, err
	case tagCase:
		of, err := decode(r, depth+1)
		if err != nil {
			return nil, err
		}
		lname, err := readName(r)
		if err != nil {
			return nil, err
		}
		l, err := decode(r, depth+1)
		if err != nil {
			return nil, err
		}
		rname, err := readName(r)
		if err != nil {
			return nil, err
		}
		rr, err := decode(r, depth+1)
		return Case{Of: of, LName: lname, L: l, RName: rname, R: rr}, err
	case tagAbort:
		as, err := logic.DecodeProp(r)
		if err != nil {
			return nil, err
		}
		of, err := decode(r, depth+1)
		return Abort{As: as, Of: of}, err
	case tagBangI:
		a, err := decode(r, depth+1)
		return BangI{Of: a}, err
	case tagLetBang:
		name, err := readName(r)
		if err != nil {
			return nil, err
		}
		of, body, err := decode2(r, depth)
		return LetBang{Name: name, Of: of, Body: body}, err
	case tagTLam:
		ty, err := lf.DecodeFamily(r)
		if err != nil {
			return nil, err
		}
		body, err := decode(r, depth+1)
		return TLam{Hint: "u", Ty: ty, Body: body}, err
	case tagTApp:
		fn, err := decode(r, depth+1)
		if err != nil {
			return nil, err
		}
		arg, err := lf.DecodeTerm(r)
		return TApp{Fn: fn, Arg: arg}, err
	case tagPack:
		witness, err := lf.DecodeTerm(r)
		if err != nil {
			return nil, err
		}
		as, err := logic.DecodeProp(r)
		if err != nil {
			return nil, err
		}
		of, err := decode(r, depth+1)
		return Pack{Witness: witness, As: as, Of: of}, err
	case tagUnpack:
		name, err := readName(r)
		if err != nil {
			return nil, err
		}
		of, body, err := decode2(r, depth)
		return Unpack{Hint: "u", Name: name, Of: of, Body: body}, err
	case tagSayReturn:
		prin, err := lf.DecodeTerm(r)
		if err != nil {
			return nil, err
		}
		of, err := decode(r, depth+1)
		return SayReturn{Prin: prin, Of: of}, err
	case tagSayBind:
		name, err := readName(r)
		if err != nil {
			return nil, err
		}
		of, body, err := decode2(r, depth)
		return SayBind{Name: name, Of: of, Body: body}, err
	case tagAssert:
		persistent, err := readByte(r)
		if err != nil {
			return nil, err
		}
		if persistent > 1 {
			return nil, fmt.Errorf("%w: assert flag %d", ErrBadEncoding, persistent)
		}
		keyBytes := make([]byte, bkey.SerializedPubKeySize)
		if _, err := io.ReadFull(r, keyBytes); err != nil {
			return nil, err
		}
		key, err := bkey.ParsePubKey(keyBytes)
		if err != nil {
			return nil, err
		}
		sigBytes, err := wire.ReadVarBytes(r, "assert signature")
		if err != nil {
			return nil, err
		}
		sig, err := bkey.ParseSignature(sigBytes)
		if err != nil {
			return nil, err
		}
		p, err := logic.DecodeProp(r)
		if err != nil {
			return nil, err
		}
		return Assert{Key: key, Prop: p, Sig: sig, Persistent: persistent == 1}, nil
	case tagIfReturn:
		cond, err := logic.DecodeCond(r)
		if err != nil {
			return nil, err
		}
		of, err := decode(r, depth+1)
		return IfReturn{Cond: cond, Of: of}, err
	case tagIfBind:
		name, err := readName(r)
		if err != nil {
			return nil, err
		}
		of, body, err := decode2(r, depth)
		return IfBind{Name: name, Of: of, Body: body}, err
	case tagIfWeaken:
		cond, err := logic.DecodeCond(r)
		if err != nil {
			return nil, err
		}
		of, err := decode(r, depth+1)
		return IfWeaken{Cond: cond, Of: of}, err
	case tagIfSay:
		of, err := decode(r, depth+1)
		return IfSay{Of: of}, err
	default:
		return nil, fmt.Errorf("%w: term tag %#02x", ErrBadEncoding, tag)
	}
}

func decode2(r io.Reader, depth int) (Term, Term, error) {
	a, err := decode(r, depth+1)
	if err != nil {
		return nil, nil, err
	}
	b, err := decode(r, depth+1)
	if err != nil {
		return nil, nil, err
	}
	return a, b, nil
}
