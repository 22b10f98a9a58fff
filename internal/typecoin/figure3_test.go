package typecoin

import (
	"testing"

	"typecoin/internal/chainhash"
	"typecoin/internal/lf"
	"typecoin/internal/logic"
	"typecoin/internal/proof"
	"typecoin/internal/wire"
)

// TestFigure3 reproduces the paper's Figure 3: the proof term for
// purchasing newcoins from the banker under a revocable, expiring offer
// (Section 6.1). The full cast:
//
//   - the bank publishes the newcoin basis (coin, print, issue,
//     appoint, is_banker, confirm);
//   - the President appoints a banker until time T (affine assert);
//   - the banker publishes a signed order (persistent assert!):
//     sending N_btc bitcoins to address D yields an order to print
//     N_nc newcoins, revocable via txout R;
//   - the customer builds the purchase transaction whose proof term is
//     exactly Figure 3 (extended with the payment output pairing), and
//     discharges the top-level condition ~spent(R) /\ before(T).
func TestFigure3(t *testing.T) {
	president := newKey(t, "president")
	banker := newKey(t, "banker")
	customer := newKey(t, "customer")
	bankAddr := newKey(t, "bank-address") // the deposit address D

	const (
		T    = uint64(5000) // banker's term
		Nbtc = int64(75_000)
		Nnc  = uint64(250)
	)
	// R: the revocation anchor txout the banker controls.
	anchor := wire.OutPoint{Hash: chainhash.HashB([]byte("revocation anchor")), Index: 0}

	s := NewState()
	oracle := &logic.MapOracle{Time: 1000, SpentOuts: map[wire.OutPoint]bool{}}

	// --- T0: the bank publishes the basis. ---
	t0 := NewTx()
	b := t0.Basis
	mustDeclareFam := func(name string, k lf.Kind) {
		t.Helper()
		if err := b.DeclareFam(lf.This(name), k); err != nil {
			t.Fatal(err)
		}
	}
	mustDeclareProp := func(name string, p logic.Prop) {
		t.Helper()
		if err := b.DeclareProp(lf.This(name), p); err != nil {
			t.Fatal(err)
		}
	}
	mustDeclareFam("coin", lf.KArrow(lf.NatFam, lf.KProp{}))
	mustDeclareFam("print", lf.KArrow(lf.NatFam, lf.KProp{}))
	mustDeclareFam("appoint", lf.KArrow(lf.PrincipalFam, lf.KArrow(lf.NatFam, lf.KProp{})))
	mustDeclareFam("is_banker", lf.KArrow(lf.PrincipalFam, lf.KArrow(lf.NatFam, lf.KProp{})))
	coinP := func(m lf.Term) logic.Prop { return logic.Atom(lf.This("coin"), m) }
	printP := func(m lf.Term) logic.Prop { return logic.Atom(lf.This("print"), m) }
	// confirm : all K:principal. all t:time.
	//   <President>(appoint K t) -o is_banker K t
	mustDeclareProp("confirm",
		logic.Forall("K", lf.PrincipalFam, logic.Forall("t", lf.NatFam,
			logic.Lolli(
				logic.Says(lf.Principal(president.Principal()),
					logic.Atom(lf.This("appoint"), lf.Var(1, "K"), lf.Var(0, "t"))),
				logic.Atom(lf.This("is_banker"), lf.Var(1, "K"), lf.Var(0, "t"))))))
	// issue : all K. all t. all N.
	//   is_banker K t -o <K>(print N) -o if(before(t), coin N)
	mustDeclareProp("issue",
		logic.Forall("K", lf.PrincipalFam, logic.Forall("t", lf.NatFam, logic.Forall("N", lf.NatFam,
			logic.Lolli(
				logic.Atom(lf.This("is_banker"), lf.Var(2, "K"), lf.Var(1, "t")),
				logic.Says(lf.Var(2, "K"), printP(lf.Var(0, "N"))),
				logic.If(logic.BeforeTerm(lf.Var(1, "t")), coinP(lf.Var(0, "N"))))))))
	// The bank routes a trivial output to itself to anchor the basis.
	t0.Outputs = []Output{{Type: logic.One, Amount: 1000, Owner: bankAddr.PubKey()}}
	t0.Proof = proof.Lam{Name: "d", Ty: t0.Domain(), Body: proof.Unit{}}
	if _, err := s.CheckTx(t0, oracle); err != nil {
		t.Fatalf("T0: %v", err)
	}
	basisID := chainhash.HashB([]byte("carrier-basis"))
	if err := s.Apply(t0, t0.Hash(), basisID); err != nil {
		t.Fatal(err)
	}
	ref := func(label string) lf.Ref { return lf.TxRef(basisID, label) }
	coinG := func(m lf.Term) logic.Prop { return logic.Atom(ref("coin"), m) }
	printG := func(m lf.Term) logic.Prop { return logic.Atom(ref("print"), m) }
	isBankerG := logic.Atom(ref("is_banker"), lf.Principal(banker.Principal()), lf.Nat(T))

	// --- T1: the President appoints the banker. ---
	t1 := NewTx()
	appointProp := logic.Atom(ref("appoint"), lf.Principal(banker.Principal()), lf.Nat(T))
	t1.Outputs = []Output{{Type: isBankerG, Amount: 1000, Owner: banker.PubKey()}}
	appointSig, err := proof.SignAffine(president, appointProp, t1.SigPayload())
	if err != nil {
		t.Fatal(err)
	}
	t1.Proof = proof.Lam{Name: "d", Ty: t1.Domain(),
		Body: proof.Apply(
			proof.TApply(proof.Const{Ref: ref("confirm")},
				lf.Principal(banker.Principal()), lf.Nat(T)),
			proof.Assert{Key: president.PubKey(), Prop: appointProp, Sig: appointSig})}
	if _, err := s.CheckTx(t1, oracle); err != nil {
		t.Fatalf("T1: %v", err)
	}
	appointID := chainhash.HashB([]byte("carrier-appoint"))
	if err := s.Apply(t1, t1.Hash(), appointID); err != nil {
		t.Fatal(err)
	}
	isBankerOut := wire.OutPoint{Hash: appointID, Index: 0}

	// --- The banker publishes the order (persistent assert!). ---
	// order : receipt(1/N_btc ->> D) -o if(~spent(R), print N_nc)
	order := logic.Lolli(
		logic.Receipt(logic.One, Nbtc, lf.Principal(bankAddr.Principal())),
		logic.If(logic.Unspent(anchor), printG(lf.Nat(Nnc))))
	orderSig, err := proof.SignPersistent(banker, order)
	if err != nil {
		t.Fatal(err)
	}

	// --- T2: the customer purchases newcoins. ---
	t2 := NewTx()
	t2.Inputs = []Input{{Source: isBankerOut, Type: isBankerG, Amount: 1000}}
	t2.Outputs = []Output{
		{Type: coinG(lf.Nat(Nnc)), Amount: 10_000, Owner: customer.PubKey()},
		{Type: logic.One, Amount: Nbtc, Owner: bankAddr.PubKey()},
	}
	phi := logic.And(logic.Unspent(anchor), logic.Before(T))
	bankerPrin := lf.Principal(banker.Principal())

	// Figure 3, with `p` the banker's published affirmation, `r` the
	// bitcoin-payment receipt, and `b` the is_banker resource:
	//
	//   let x <- (saybind f <- p in sayreturn(Banker, f r)) in
	//   let y <- if/say(x) in
	//   ifbind z <- ifweaken_phi(y) in
	//   ifweaken_phi(issue Banker T N_nc b z)
	p := proof.Assert{Key: banker.PubKey(), Prop: order, Sig: orderSig, Persistent: true}
	x := proof.SayBind{Name: "f", Of: p,
		Body: proof.SayReturn{Prin: bankerPrin,
			Of: proof.App{Fn: proof.V("f"), Arg: proof.V("rpay")}}}
	y := proof.IfSay{Of: x}
	issueApplied := func(z proof.Term) proof.Term {
		return proof.Apply(
			proof.TApply(proof.Const{Ref: ref("issue")},
				bankerPrin, lf.Nat(T), lf.Nat(Nnc)),
			proof.V("b"), z)
	}
	core := proof.IfBind{Name: "z", Of: proof.IfWeaken{Cond: phi, Of: y},
		Body: proof.IfBind{Name: "v",
			Of: proof.IfWeaken{Cond: phi, Of: issueApplied(proof.V("z"))},
			Body: proof.IfReturn{Cond: phi,
				Of: proof.Pair{L: proof.V("v"), R: proof.Unit{}}}}}
	t2.Proof = proof.Lam{Name: "d", Ty: t2.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "b1", Of: proof.V("ca"),
				Body: proof.LetPair{LName: "rcoin", RName: "rpay", Of: proof.V("r"),
					Body: proof.Let("b", isBankerG, proof.V("b1"), core)}}}}

	// Valid while unrevoked and before T.
	cond, err := s.CheckTx(t2, oracle)
	if err != nil {
		t.Fatalf("T2 (Figure 3): %v", err)
	}
	if !logic.EntailsCond(cond, logic.Before(T)) {
		t.Errorf("T2 condition %s does not entail before(T)", cond)
	}

	// After the banker's term expires, the same transaction is invalid.
	late := &logic.MapOracle{Time: T + 1, SpentOuts: map[wire.OutPoint]bool{}}
	if _, err := s.CheckTx(t2, late); err == nil {
		t.Error("purchase accepted after the banker's term expired")
	}

	// After the banker revokes the offer (spends R), likewise invalid.
	revoked := &logic.MapOracle{Time: 1000, SpentOuts: map[wire.OutPoint]bool{anchor: true}}
	if _, err := s.CheckTx(t2, revoked); err == nil {
		t.Error("purchase accepted after revocation")
	}

	// And the receipt really is required: a transaction that omits the
	// bitcoin payment output cannot produce the receipt the order
	// demands.
	t3 := NewTx()
	t3.Inputs = t2.Inputs
	t3.Outputs = t2.Outputs[:1] // drop the payment to D
	t3.Proof = proof.Lam{Name: "d", Ty: t3.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "b1", Of: proof.V("ca"),
				Body: proof.Let("b", isBankerG, proof.V("b1"),
					proof.IfBind{Name: "z",
						Of: proof.IfWeaken{Cond: phi, Of: proof.IfSay{Of: proof.SayBind{Name: "f", Of: p,
							Body: proof.SayReturn{Prin: bankerPrin,
								Of: proof.App{Fn: proof.V("f"), Arg: proof.V("r")}}}}},
						Body: proof.IfBind{Name: "v",
							Of:   proof.IfWeaken{Cond: phi, Of: issueApplied(proof.V("z"))},
							Body: proof.IfReturn{Cond: phi, Of: proof.V("v")}}})}}}
	if _, err := s.CheckTx(t3, oracle); err == nil {
		t.Error("purchase without the bitcoin payment accepted")
	}

	// The persistent order really is portable: the same assert! checks
	// in a different transaction context (unlike the affine appoint).
	otherPayload := []byte("some other transaction")
	if err := proof.Check(s.GlobalBasis(), otherPayload, p,
		logic.Says(bankerPrin, order)); err != nil {
		t.Errorf("persistent order not portable: %v", err)
	}
	appointAssert := proof.Assert{Key: president.PubKey(), Prop: appointProp, Sig: appointSig}
	if err := proof.Check(s.GlobalBasis(), otherPayload, appointAssert,
		logic.Says(lf.Principal(president.Principal()), appointProp)); err == nil {
		t.Error("affine appointment replayed in another transaction")
	}
}
