package lf

import (
	"bytes"
	"testing"
	"testing/quick"

	"typecoin/internal/bkey"
	"typecoin/internal/chainhash"
)

func termRoundTrip(t *testing.T, m Term) {
	t.Helper()
	enc, err := AppendTerm(nil, m)
	buf := bytes.NewBuffer(enc)
	if err != nil {
		t.Fatalf("AppendTerm(%s): %v", m, err)
	}
	back, err := DecodeTerm(buf)
	if err != nil {
		t.Fatalf("DecodeTerm(%s): %v", m, err)
	}
	if buf.Len() != 0 {
		t.Fatalf("trailing bytes after %s", m)
	}
	eq, err := TermEqual(m, back)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("round trip changed %s -> %s", m, back)
	}
}

func TestTermEncodeRoundTrip(t *testing.T) {
	var k bkey.Principal
	k[7] = 9
	txid := chainhash.HashB([]byte("tx"))
	terms := []Term{
		Nat(0),
		Nat(1 << 40),
		Principal(k),
		Const(Global("add")),
		Const(This("coin")),
		Const(TxRef(txid, "coin")),
		Var(3, "u"),
		Lam("n", NatFam, Add(Var(0, "n"), Nat(1))),
		App(PlusIntro, Nat(2), Nat(3)),
		Lam("f", Arrow(NatFam, NatFam), App(Var(0, "f"), Nat(9))),
	}
	for _, m := range terms {
		termRoundTrip(t, m)
	}
}

func TestFamilyKindEncodeRoundTrip(t *testing.T) {
	fams := []Family{
		NatFam,
		PrincipalFam,
		FamApp(PlusFam, Nat(1), Nat(2), Nat(3)),
		Pi("n", NatFam, FamApp(PlusFam, Var(0, "n"), Nat(0), Var(0, "n"))),
		Arrow(NatFam, Arrow(PrincipalFam, NatFam)),
	}
	for _, f := range fams {
		enc, err := AppendFamily(nil, f)
		buf := bytes.NewBuffer(enc)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeFamily(buf)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := FamilyEqual(f, back)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("family round trip changed %s -> %s", f, back)
		}
	}
	kinds := []Kind{
		KType{}, KProp{},
		KArrow(NatFam, KProp{}),
		KPi{Hint: "n", Arg: NatFam, Body: KArrow(FamApp(PlusFam, Var(0, "n"), Nat(0), Var(0, "n")), KType{})},
	}
	for _, k := range kinds {
		enc, err := AppendKind(nil, k)
		buf := bytes.NewBuffer(enc)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeKind(buf)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := KindEqual(k, back)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("kind round trip changed %s -> %s", k, back)
		}
	}
}

// TestEncodingAlphaInvariant: two alpha-equivalent terms encode
// identically (hints are not encoded), so hashes of propositions do not
// depend on bound-variable names.
func TestEncodingAlphaInvariant(t *testing.T) {
	a := Lam("n", NatFam, Add(Var(0, "n"), Nat(1)))
	b := Lam("m", NatFam, Add(Var(0, "m"), Nat(1)))
	if !bytes.Equal(TermBytes(a), TermBytes(b)) {
		t.Error("alpha-equivalent terms encode differently")
	}
}

func TestEncodeInjectiveOnSamples(t *testing.T) {
	// Distinct terms encode distinctly.
	samples := []Term{
		Nat(0), Nat(1), Var(0, "u"), Var(1, "u"),
		Const(Global("add")), Const(This("add")),
		App(Const(Global("add")), Nat(0)),
		Lam("n", NatFam, Nat(0)),
	}
	seen := map[string]Term{}
	for _, m := range samples {
		key := string(TermBytes(m))
		if prev, dup := seen[key]; dup {
			t.Errorf("%s and %s encode identically", prev, m)
		}
		seen[key] = m
	}
}

func TestPropertyTermEncodeRoundTrip(t *testing.T) {
	var build func(depth, binders int, seed uint64) Term
	build = func(depth, binders int, seed uint64) Term {
		if depth == 0 {
			switch seed % 3 {
			case 0:
				return Nat(seed)
			case 1:
				if binders > 0 {
					return Var(int(seed)%binders, "u")
				}
				return Const(Global("add"))
			default:
				return Const(This("c"))
			}
		}
		switch seed % 3 {
		case 0:
			return Lam("x", NatFam, build(depth-1, binders+1, seed/3))
		case 1:
			return TApp{Fn: build(depth-1, binders, seed/3), Arg: build(depth-1, binders, seed/3+1)}
		default:
			return Add(build(depth-1, binders, seed/3), Nat(seed%10))
		}
	}
	f := func(seed uint64) bool {
		m := build(4, 0, seed)
		enc, err := AppendTerm(nil, m)
		buf := bytes.NewBuffer(enc)
		if err != nil {
			return false
		}
		back, err := DecodeTerm(buf)
		if err != nil {
			return false
		}
		return bytes.Equal(TermBytes(m), TermBytes(back))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	bad := [][]byte{
		{},
		{0xee},             // unknown tag
		{0x30},             // var without index
		{0x31, 0x09},       // const with bad ref tag
		{0x34, 0x01, 0x02}, // truncated principal
	}
	for _, raw := range bad {
		if _, err := DecodeTerm(bytes.NewReader(raw)); err == nil {
			t.Errorf("malformed % x decoded", raw)
		}
	}
}
