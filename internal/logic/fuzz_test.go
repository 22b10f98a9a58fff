package logic

import (
	"bytes"
	"testing"

	"typecoin/internal/bkey"
	"typecoin/internal/chainhash"
	"typecoin/internal/lf"
	"typecoin/internal/wire"
)

// FuzzLogicDecode feeds arbitrary bytes to the proposition and condition
// decoders. Neither may panic or recurse without bound, and any input
// that decodes must round trip through the canonical encoding.
func FuzzLogicDecode(f *testing.F) {
	var alice bkey.Principal
	alice[3] = 9
	op := wire.OutPoint{Hash: chainhash.HashB([]byte("x")), Index: 2}
	seeds := []Prop{
		One, Zero,
		Atom(lf.This("coin"), lf.Nat(5)),
		Lolli(One, Tensor(One, Zero)),
		With(One, Plus(One, Zero)),
		Bang(One),
		Forall("n", lf.NatFam, Atom(lf.This("coin"), lf.Var(0, "n"))),
		Exists("x", lf.FamApp(lf.PlusFam, lf.Nat(1), lf.Nat(2), lf.Nat(3)), One),
		Says(lf.Principal(alice), One),
		Receipt(One, 42, lf.Principal(alice)),
		If(And(Before(99), Unspent(op)), One),
	}
	for _, p := range seeds {
		var buf bytes.Buffer
		if err := EncodeProp(&buf, p); err != nil {
			f.Fatalf("seed encode %s: %v", p, err)
		}
		f.Add(buf.Bytes())
	}
	// A condition encoding, so the fuzzer starts with DecodeCond-shaped
	// bytes too (both decoders run on every input).
	cbuf, err := AppendCond(nil, And(Spent(op), Before(7)))
	if err != nil {
		f.Fatalf("seed encode cond: %v", err)
	}
	f.Add(cbuf)
	// Depth bomb: nesting past the decoder cap must be rejected, not
	// recursed into.
	deep := One
	for i := 0; i < lf.MaxDecodeDepth+64; i++ {
		deep = Bang(deep)
	}
	var bomb bytes.Buffer
	if err := EncodeProp(&bomb, deep); err != nil {
		f.Fatalf("encode depth bomb: %v", err)
	}
	f.Add(bomb.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := DecodeProp(bytes.NewReader(data)); err == nil {
			var out bytes.Buffer
			if err := EncodeProp(&out, p); err != nil {
				t.Fatalf("decoded prop fails to encode: %v", err)
			}
			back, err := DecodeProp(bytes.NewReader(out.Bytes()))
			if err != nil {
				t.Fatalf("re-decode prop failed: %v", err)
			}
			eq, err := PropEqual(p, back)
			if err != nil || !eq {
				t.Fatalf("prop round trip mismatch (eq=%v err=%v)", eq, err)
			}
		}
		if c, err := DecodeCond(bytes.NewReader(data)); err == nil {
			out, err := AppendCond(nil, c)
			if err != nil {
				t.Fatalf("decoded cond fails to encode: %v", err)
			}
			if _, err := DecodeCond(bytes.NewReader(out)); err != nil {
				t.Fatalf("re-decode cond failed: %v", err)
			}
		}
	})
}
