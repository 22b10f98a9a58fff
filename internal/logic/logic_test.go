package logic

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"typecoin/internal/bkey"
	"typecoin/internal/chainhash"
	"typecoin/internal/lf"
	"typecoin/internal/wire"
)

// newcoinBasis declares the Section 6 constants: coin : nat -> prop plus
// merge and split.
func newcoinBasis(t testing.TB) *Basis {
	t.Helper()
	b := NewBasis(nil)
	coin := lf.This("coin")
	if err := b.DeclareFam(coin, lf.KArrow(lf.NatFam, lf.KProp{})); err != nil {
		t.Fatal(err)
	}
	coinP := func(m lf.Term) Prop { return Atom(coin, m) }
	// merge : all N,M,P:nat. (some x:plus N M P. 1) -o coin N * coin M -o coin P
	merge := Forall("N", lf.NatFam, Forall("M", lf.NatFam, Forall("P", lf.NatFam,
		Lolli(
			Exists("x", lf.FamApp(lf.PlusFam, lf.Var(2, "N"), lf.Var(1, "M"), lf.Var(0, "P")), One),
			Tensor(coinP(lf.Var(2, "N")), coinP(lf.Var(1, "M"))),
			coinP(lf.Var(0, "P")),
		))))
	if err := b.DeclareProp(lf.This("merge"), merge); err != nil {
		t.Fatal(err)
	}
	split := Forall("N", lf.NatFam, Forall("M", lf.NatFam, Forall("P", lf.NatFam,
		Lolli(
			Exists("x", lf.FamApp(lf.PlusFam, lf.Var(2, "N"), lf.Var(1, "M"), lf.Var(0, "P")), One),
			coinP(lf.Var(0, "P")),
			Tensor(coinP(lf.Var(2, "N")), coinP(lf.Var(1, "M"))),
		))))
	if err := b.DeclareProp(lf.This("split"), split); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPropFormation(t *testing.T) {
	b := newcoinBasis(t)
	coin5 := Atom(lf.This("coin"), lf.Nat(5))
	if err := CheckProp(b, nil, coin5); err != nil {
		t.Errorf("coin 5 prop: %v", err)
	}
	// Under-applied atom is not a prop.
	if err := CheckProp(b, nil, Atom(lf.This("coin"))); err == nil {
		t.Error("coin (no argument) accepted as prop")
	}
	// nat is a type, not a prop.
	if err := CheckProp(b, nil, AtomF(lf.NatFam)); err == nil {
		t.Error("nat accepted as prop")
	}
	// Wrong index sort.
	var k bkey.Principal
	if err := CheckProp(b, nil, Atom(lf.This("coin"), lf.Principal(k))); err == nil {
		t.Error("coin K accepted")
	}
	// Declared rules are well-formed.
	merge, _ := b.LookupProp(lf.This("merge"))
	if err := CheckProp(b, nil, merge); err != nil {
		t.Errorf("merge formation: %v", err)
	}
}

func TestQuantifierFormation(t *testing.T) {
	b := newcoinBasis(t)
	// all n:nat. coin n
	good := Forall("n", lf.NatFam, Atom(lf.This("coin"), lf.Var(0, "n")))
	if err := CheckProp(b, nil, good); err != nil {
		t.Errorf("forall formation: %v", err)
	}
	// all n:nat. coin m with m unbound.
	bad := Forall("n", lf.NatFam, Atom(lf.This("coin"), lf.Var(1, "m")))
	if err := CheckProp(b, nil, bad); err == nil {
		t.Error("unbound index variable accepted")
	}
	// Quantifying over a prop-kinded family is malformed.
	badDomain := Forall("x", lf.FamApp(lf.FamConst(lf.This("coin")), lf.Nat(1)), One)
	if err := CheckProp(b, nil, badDomain); err == nil {
		t.Error("quantification over a proposition accepted")
	}
}

func TestSaysReceiptIfFormation(t *testing.T) {
	b := newcoinBasis(t)
	var alice bkey.Principal
	alice[0] = 0xa1
	coin1 := Atom(lf.This("coin"), lf.Nat(1))
	if err := CheckProp(b, nil, Says(lf.Principal(alice), coin1)); err != nil {
		t.Errorf("says formation: %v", err)
	}
	// Affirmation by a nat is malformed.
	if err := CheckProp(b, nil, Says(lf.Nat(5), coin1)); err == nil {
		t.Error("<5>A accepted")
	}
	if err := CheckProp(b, nil, Receipt(coin1, 100, lf.Principal(alice))); err != nil {
		t.Errorf("receipt formation: %v", err)
	}
	if err := CheckProp(b, nil, Receipt(nil, -5, lf.Principal(alice))); err == nil {
		t.Error("negative receipt accepted")
	}
	cond := And(Before(1000), Unspent(wire.OutPoint{Hash: chainhash.HashB([]byte("r"))}))
	if err := CheckProp(b, nil, If(cond, coin1)); err != nil {
		t.Errorf("if formation: %v", err)
	}
	// before over a principal is malformed.
	bad := If(BeforeTerm(lf.Principal(alice)), coin1)
	if err := CheckProp(b, nil, bad); err == nil {
		t.Error("before(principal) accepted")
	}
}

func TestPropEqualModuloNormalization(t *testing.T) {
	b := newcoinBasis(t)
	_ = b
	// coin (add 2 3) == coin 5.
	a := Atom(lf.This("coin"), lf.Add(lf.Nat(2), lf.Nat(3)))
	bb := Atom(lf.This("coin"), lf.Nat(5))
	eq, err := PropEqual(a, bb)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("coin (add 2 3) != coin 5")
	}
	ne, err := PropEqual(a, Atom(lf.This("coin"), lf.Nat(6)))
	if err != nil {
		t.Fatal(err)
	}
	if ne {
		t.Error("coin 5 == coin 6")
	}
	// Connective mismatch.
	eq2, err := PropEqual(Tensor(a, bb), With(a, bb))
	if err != nil {
		t.Fatal(err)
	}
	if eq2 {
		t.Error("tensor == with")
	}
}

func TestFreshness(t *testing.T) {
	var alice bkey.Principal
	localCoin := Atom(lf.This("coin"), lf.Nat(1))
	foreign := Atom(lf.TxRef(chainhash.HashB([]byte("other")), "prize"))

	cases := []struct {
		name  string
		p     Prop
		fresh bool
	}{
		{"local atom", localCoin, true},
		{"foreign atom", foreign, false},
		{"global atom", AtomF(lf.FamApp(lf.PlusFam, lf.Nat(1), lf.Nat(1), lf.Nat(2))), false},
		{"one", One, true},
		{"zero", Zero, false},
		{"affirmation", Says(lf.Principal(alice), localCoin), false},
		{"receipt", Receipt(localCoin, 0, lf.Principal(alice)), false},
		{"foreign left of lolli", Lolli(foreign, localCoin), true},
		{"foreign right of lolli", Lolli(localCoin, foreign), false},
		{"affirmation left of lolli", Lolli(Says(lf.Principal(alice), localCoin), localCoin), true},
		{"tensor needs both", Tensor(localCoin, foreign), false},
		{"with needs both", With(localCoin, foreign), false},
		{"plus needs both", Plus(foreign, localCoin), false},
		{"bang", Bang(localCoin), true},
		{"bang of foreign", Bang(foreign), false},
		{"forall body", Forall("n", lf.NatFam, Lolli(foreign, localCoin)), true},
		{"if body fresh", If(Before(10), localCoin), true},
		{"if body stale", If(Before(10), foreign), false},
		{"exists local witness", Exists("x", lf.FamConst(lf.This("tok")), One), true},
		{"exists global witness", Exists("x", lf.FamApp(lf.PlusFam, lf.Nat(1), lf.Nat(1), lf.Nat(2)), One), false},
		// The paper's idiom: the existential side condition appears to
		// the LEFT of a lolli, so it is unrestricted.
		{"plus guard left of lolli",
			Lolli(Exists("x", lf.FamApp(lf.PlusFam, lf.Nat(1), lf.Nat(1), lf.Nat(2)), One), localCoin),
			true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := FreshProp(tc.p)
			if tc.fresh && err != nil {
				t.Errorf("want fresh, got %v", err)
			}
			if !tc.fresh && err == nil {
				t.Error("want restricted, got fresh")
			}
			if !tc.fresh {
				var nf *ErrNotFresh
				if err != nil && !errors.As(err, &nf) {
					t.Errorf("error is not ErrNotFresh: %v", err)
				}
			}
		})
	}
}

func TestFreshBasis(t *testing.T) {
	// Declaring a term constant whose type is another transaction's
	// family forges an inhabitant and must be rejected.
	b := NewBasis(nil)
	foreignTy := lf.FamConst(lf.TxRef(chainhash.HashB([]byte("x")), "solution"))
	if err := b.DeclareTerm(lf.This("forged"), foreignTy); err != nil {
		t.Fatal(err)
	}
	if err := FreshBasis(b); err == nil {
		t.Error("forged term declaration passed freshness")
	}

	// Declaring a proof constant of a foreign proposition is likewise
	// rejected; of a local one, accepted.
	b2 := newcoinBasis(t)
	if err := FreshBasis(b2); err != nil {
		t.Errorf("newcoin basis not fresh: %v", err)
	}
	if err := b2.DeclareProp(lf.This("evil"),
		Says(lf.Principal(bkey.Principal{1}), One)); err != nil {
		t.Fatal(err)
	}
	if err := FreshBasis(b2); err == nil {
		t.Error("affirmation declaration passed freshness")
	}
}

func TestCheckLocalDecls(t *testing.T) {
	b := NewBasis(nil)
	if err := b.DeclareFam(lf.TxRef(chainhash.HashB([]byte("x")), "c"), lf.KProp{}); err != nil {
		t.Fatal(err)
	}
	if err := CheckLocalDecls(b); err == nil {
		t.Error("non-local declaration accepted")
	}
}

func TestEntailment(t *testing.T) {
	op1 := wire.OutPoint{Hash: chainhash.HashB([]byte("1"))}
	op2 := wire.OutPoint{Hash: chainhash.HashB([]byte("2"))}
	cases := []struct {
		name string
		l, r Cond
		want bool
	}{
		{"identity", Spent(op1), Spent(op1), true},
		{"different outpoints", Spent(op1), Spent(op2), false},
		{"true right", Spent(op1), True, true},
		{"before monotone", Before(5), Before(10), true},
		{"before equal", Before(5), Before(5), true},
		{"before reverse", Before(10), Before(5), false},
		{"and left projection", And(Spent(op1), Before(5)), Spent(op1), true},
		{"and right", Spent(op1), And(Spent(op1), True), true},
		{"and right fails", Spent(op1), And(Spent(op1), Spent(op2)), false},
		{"negation", Not(Spent(op1)), Not(Spent(op1)), true},
		{"contrapositive", Not(Before(10)), Not(Before(5)), true},
		{"contrapositive reverse", Not(Before(5)), Not(Before(10)), false},
		{"double negation elim", Not(Not(Spent(op1))), Spent(op1), true},
		{"double negation intro", Spent(op1), Not(Not(Spent(op1))), true},
		{"explosion", And(Spent(op1), Not(Spent(op1))), Spent(op2), true},
		{"merge conjuncts", And(Not(Spent(op1)), Before(20)), And(Before(30), Not(Spent(op1))), true},
		{"true does not prove atom", True, Spent(op1), false},
		// The Figure 3 weakening: ~spent(R) /\ before(T) => ~spent(R) and
		// => before(T') for T <= T'.
		{"figure3 weaken to unspent", And(Not(Spent(op1)), Before(100)), Not(Spent(op1)), true},
		{"figure3 weaken to before", And(Not(Spent(op1)), Before(100)), Before(150), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := EntailsCond(tc.l, tc.r); got != tc.want {
				t.Errorf("%s => %s: got %v, want %v", tc.l, tc.r, got, tc.want)
			}
		})
	}
}

func TestEntailmentOpenBefore(t *testing.T) {
	// Symbolic times entail only on equality.
	tvar := lf.Var(0, "t")
	if !EntailsCond(BeforeTerm(tvar), BeforeTerm(tvar)) {
		t.Error("before(t) !=> before(t)")
	}
	if EntailsCond(BeforeTerm(tvar), Before(10)) {
		t.Error("before(t) => before(10) for open t")
	}
}

func TestEvalCond(t *testing.T) {
	op := wire.OutPoint{Hash: chainhash.HashB([]byte("r"))}
	oracle := &MapOracle{Time: 100, SpentOuts: map[wire.OutPoint]bool{op: true}}
	cases := []struct {
		c    Cond
		want bool
	}{
		{True, true},
		{Before(101), true},
		{Before(100), false}, // strictly before
		{Before(99), false},
		{Spent(op), true},
		{Unspent(op), false},
		{And(Before(200), Spent(op)), true},
		{And(Before(50), Spent(op)), false},
		{Not(Before(50)), true},
	}
	for _, tc := range cases {
		got, err := EvalCond(tc.c, oracle)
		if err != nil {
			t.Errorf("EvalCond(%s): %v", tc.c, err)
			continue
		}
		if got != tc.want {
			t.Errorf("EvalCond(%s) = %v, want %v", tc.c, got, tc.want)
		}
	}
	// Open time term errors.
	if _, err := EvalCond(BeforeTerm(lf.Var(0, "t")), oracle); err == nil {
		t.Error("open before evaluated")
	}
}

func TestSubstIntoProp(t *testing.T) {
	// (all n:nat. coin n)[5] -> coin 5
	body := Atom(lf.This("coin"), lf.Var(0, "n"))
	inst := SubstProp(body, 0, lf.Nat(5))
	eq, err := PropEqual(inst, Atom(lf.This("coin"), lf.Nat(5)))
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("substitution produced %s", inst)
	}
	// Substitution respects binder shifts: all m:nat. coin n with n free.
	nested := Forall("m", lf.NatFam, Atom(lf.This("coin"), lf.Var(1, "n")))
	inst2 := SubstProp(nested, 0, lf.Nat(7))
	want := Forall("m", lf.NatFam, Atom(lf.This("coin"), lf.Nat(7)))
	eq2, err := PropEqual(inst2, want)
	if err != nil {
		t.Fatal(err)
	}
	if !eq2 {
		t.Errorf("nested substitution produced %s", inst2)
	}
}

func TestSubstRefProp(t *testing.T) {
	txid := chainhash.HashB([]byte("committed"))
	p := Lolli(Atom(lf.This("coin"), lf.Nat(1)), Atom(lf.This("coin"), lf.Nat(1)))
	got := SubstRefProp(p, lf.TxRef(txid, ""))
	want := Lolli(Atom(lf.TxRef(txid, "coin"), lf.Nat(1)), Atom(lf.TxRef(txid, "coin"), lf.Nat(1)))
	eq, err := PropEqual(got, want)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("ref substitution produced %s", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	var alice bkey.Principal
	alice[3] = 9
	op := wire.OutPoint{Hash: chainhash.HashB([]byte("x")), Index: 2}
	props := []Prop{
		One, Zero,
		Atom(lf.This("coin"), lf.Nat(5)),
		Lolli(One, Tensor(One, Zero)),
		With(One, Plus(One, Zero)),
		Bang(One),
		Forall("n", lf.NatFam, Atom(lf.This("coin"), lf.Var(0, "n"))),
		Exists("x", lf.FamApp(lf.PlusFam, lf.Nat(1), lf.Nat(2), lf.Nat(3)), One),
		Says(lf.Principal(alice), One),
		Receipt(One, 42, lf.Principal(alice)),
		Receipt(nil, 42, lf.Principal(alice)),
		If(And(Before(99), Unspent(op)), One),
	}
	for _, p := range props {
		var buf bytes.Buffer
		if err := EncodeProp(&buf, p); err != nil {
			t.Fatalf("encode %s: %v", p, err)
		}
		back, err := DecodeProp(&buf)
		if err != nil {
			t.Fatalf("decode %s: %v", p, err)
		}
		eq, err := PropEqual(p, back)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("round trip changed %s -> %s", p, back)
		}
		if buf.Len() != 0 {
			t.Errorf("trailing bytes after %s", p)
		}
	}
}

func TestEncodeBasisRoundTrip(t *testing.T) {
	b := newcoinBasis(t)
	enc, err := AppendBasis(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBasis(bytes.NewReader(enc), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.LocalFamRefs()) != 1 || len(back.LocalPropRefs()) != 2 {
		t.Errorf("decoded basis has %d fams, %d props",
			len(back.LocalFamRefs()), len(back.LocalPropRefs()))
	}
	merge, ok := back.LookupProp(lf.This("merge"))
	if !ok {
		t.Fatal("merge lost in round trip")
	}
	orig, _ := b.LookupProp(lf.This("merge"))
	eq, err := PropEqual(merge, orig)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("merge changed in round trip")
	}
}

func TestPropHashInjective(t *testing.T) {
	a := Atom(lf.This("coin"), lf.Nat(5))
	b := Atom(lf.This("coin"), lf.Nat(6))
	if PropHash(a) == PropHash(b) {
		t.Error("distinct propositions hash equal")
	}
	if PropHash(a) != PropHash(Atom(lf.This("coin"), lf.Nat(5))) {
		t.Error("equal propositions hash differently")
	}
}

func TestPrinting(t *testing.T) {
	var alice bkey.Principal
	p := Lolli(
		Tensor(Atom(lf.This("bread")), Atom(lf.This("ham"))),
		Atom(lf.This("sandwich")))
	s := p.String()
	if !strings.Contains(s, "-o") || !strings.Contains(s, "*") {
		t.Errorf("printing: %q", s)
	}
	q := Forall("K", lf.PrincipalFam,
		Says(lf.Principal(alice), Atom(lf.This("may-read"), lf.Var(0, "K"))))
	qs := q.String()
	if !strings.Contains(qs, "all K:principal") {
		t.Errorf("quantifier printing: %q", qs)
	}
	c := And(Before(10), Not(Spent(wire.OutPoint{})))
	if !strings.Contains(c.String(), "before(10)") || !strings.Contains(c.String(), "~spent") {
		t.Errorf("condition printing: %q", c.String())
	}
	// Precedence: -o binds loosest; A -o B * C needs no parens on B * C,
	// and (A * B) -o C must not print parens confusingly.
	r := Lolli(One, Tensor(One, One)).String()
	if r != "1 -o 1 * 1" {
		t.Errorf("precedence printing: %q", r)
	}
}

func TestBasisCrossSortDuplicates(t *testing.T) {
	b := NewBasis(nil)
	if err := b.DeclareProp(lf.This("x"), One); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareFam(lf.This("x"), lf.KProp{}); err == nil {
		t.Error("family redeclared over a prop constant")
	}
	if err := b.DeclareTerm(lf.This("x"), lf.NatFam); err == nil {
		t.Error("term redeclared over a prop constant")
	}
	// And the other direction, already covered by DeclareProp.
	b2 := NewBasis(nil)
	if err := b2.DeclareFam(lf.This("y"), lf.KProp{}); err != nil {
		t.Fatal(err)
	}
	if err := b2.DeclareProp(lf.This("y"), One); err == nil {
		t.Error("prop redeclared over a family constant")
	}
	// Layered: a child basis may not shadow its parent's prop constants.
	child := NewBasis(b)
	if err := child.DeclareProp(lf.This("x"), One); err == nil {
		t.Error("child shadowed parent prop constant")
	}
}

func TestRebaseAndSubstRef(t *testing.T) {
	parent := NewBasis(nil)
	if err := parent.DeclareFam(lf.This("base"), lf.KProp{}); err != nil {
		t.Fatal(err)
	}
	child := NewBasis(nil)
	if err := child.DeclareFam(lf.This("coin"), lf.KArrow(lf.NatFam, lf.KProp{})); err != nil {
		t.Fatal(err)
	}
	if err := child.DeclareProp(lf.This("seed"), Atom(lf.This("coin"), lf.Nat(1))); err != nil {
		t.Fatal(err)
	}
	rebased, err := child.Rebase(parent)
	if err != nil {
		t.Fatalf("Rebase: %v", err)
	}
	if _, ok := rebased.LookupFamConst(lf.This("base")); !ok {
		t.Error("rebased basis lost parent constant")
	}
	if _, ok := rebased.LookupProp(lf.This("seed")); !ok {
		t.Error("rebased basis lost child prop")
	}

	txid := chainhash.HashB([]byte("committed"))
	global, err := child.SubstRef(lf.TxRef(txid, ""), parent)
	if err != nil {
		t.Fatalf("SubstRef: %v", err)
	}
	if _, ok := global.LookupFamConst(lf.TxRef(txid, "coin")); !ok {
		t.Error("constant not renamed into txid namespace")
	}
	seed, ok := global.LookupProp(lf.TxRef(txid, "seed"))
	if !ok {
		t.Fatal("prop not renamed")
	}
	want := Atom(lf.TxRef(txid, "coin"), lf.Nat(1))
	if eq, _ := PropEqual(seed, want); !eq {
		t.Errorf("seed body = %s, want %s", seed, want)
	}
	// this.* must be gone from the renamed body.
	if _, ok := global.LookupProp(lf.This("seed")); ok {
		t.Error("this-relative name survived accumulation")
	}
}

// TestEntailmentSoundness: whenever Entails(l, r) holds, every oracle
// satisfying l satisfies r — checked over randomized conditions and
// randomized worlds. (The converse — completeness — is checked on the
// hand-picked cases in TestEntailment.)
func TestEntailmentSoundness(t *testing.T) {
	ops := []wire.OutPoint{
		{Hash: chainhash.HashB([]byte("s0"))},
		{Hash: chainhash.HashB([]byte("s1"))},
	}
	var build func(depth int, seed uint64) Cond
	build = func(depth int, seed uint64) Cond {
		if depth == 0 {
			switch seed % 4 {
			case 0:
				return True
			case 1:
				return Before(100 * (seed % 5))
			default:
				return Spent(ops[seed%2])
			}
		}
		switch seed % 3 {
		case 0:
			return And(build(depth-1, seed/3), build(depth-1, seed/3+1))
		case 1:
			return Not(build(depth-1, seed/3))
		default:
			return build(depth-1, seed/3)
		}
	}
	worlds := []*MapOracle{}
	for _, time := range []uint64{0, 99, 100, 250, 400, 1000} {
		for mask := 0; mask < 4; mask++ {
			worlds = append(worlds, &MapOracle{
				Time: time,
				SpentOuts: map[wire.OutPoint]bool{
					ops[0]: mask&1 != 0,
					ops[1]: mask&2 != 0,
				},
			})
		}
	}
	checked, entailed := 0, 0
	for seed := uint64(0); seed < 4000; seed++ {
		l := build(3, seed*2+1)
		r := build(3, seed*3+7)
		if !EntailsCond(l, r) {
			continue
		}
		entailed++
		for _, w := range worlds {
			lv, err := EvalCond(l, w)
			if err != nil {
				t.Fatal(err)
			}
			rv, err := EvalCond(r, w)
			if err != nil {
				t.Fatal(err)
			}
			checked++
			if lv && !rv {
				t.Fatalf("unsound: %s => %s but world(t=%d) satisfies only the left",
					l, r, w.Time)
			}
		}
	}
	if entailed == 0 {
		t.Fatal("no entailments generated; test is vacuous")
	}
	t.Logf("checked %d worlds over %d entailed pairs", checked, entailed)
}

// TestDecodersNeverPanic: random bytes must produce errors, not panics.
func TestDecodersNeverPanic(t *testing.T) {
	rnd := []byte{}
	state := chainhash.HashB([]byte("fuzz"))
	for i := 0; i < 200; i++ {
		state = chainhash.HashB(state[:])
		rnd = append(rnd, state[:]...)
		for _, n := range []int{1, 7, 32, len(rnd) / 2, len(rnd)} {
			if n > len(rnd) {
				continue
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("DecodeProp panicked on %d bytes: %v", n, r)
					}
				}()
				_, _ = DecodeProp(bytes.NewReader(rnd[:n]))
			}()
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("DecodeCond panicked on %d bytes: %v", n, r)
					}
				}()
				_, _ = DecodeCond(bytes.NewReader(rnd[:n]))
			}()
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("DecodeBasis panicked on %d bytes: %v", n, r)
					}
				}()
				_, _ = DecodeBasis(bytes.NewReader(rnd[:n]), nil)
			}()
		}
	}
}
