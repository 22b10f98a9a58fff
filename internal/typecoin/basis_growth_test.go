package typecoin

import (
	"fmt"
	"testing"

	"typecoin/internal/bkey"
	"typecoin/internal/chainhash"
	"typecoin/internal/lf"
	"typecoin/internal/logic"
	"typecoin/internal/proof"
	"typecoin/internal/wire"
)

// withDomain is the standard proof skeleton: c (grant), a (inputs) and r
// (receipts) in scope for body.
func withDomain(domain logic.Prop, body proof.Term) proof.Term {
	return proof.Lam{Name: "d", Ty: domain,
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: body}}}
}

// newcoinState applies the Section 6 basis transaction (coin, merge,
// split, and one coin `whole` granted to owner) and returns the state,
// the basis carrier and the granted output.
func newcoinState(t testing.TB, owner *bkey.PublicKey, whole uint64) (*State, chainhash.Hash, wire.OutPoint) {
	t.Helper()
	t0 := NewTx()
	if err := t0.Basis.DeclareFam(lf.This("coin"), lf.KArrow(lf.NatFam, lf.KProp{})); err != nil {
		t.Fatal(err)
	}
	coinP := func(m lf.Term) logic.Prop { return logic.Atom(lf.This("coin"), m) }
	n, m, p := lf.Var(2, "N"), lf.Var(1, "M"), lf.Var(0, "P")
	guard := logic.Exists("x", lf.FamApp(lf.PlusFam, n, m, p), logic.One)
	forall3 := func(body logic.Prop) logic.Prop {
		return logic.Forall("N", lf.NatFam, logic.Forall("M", lf.NatFam, logic.Forall("P", lf.NatFam, body)))
	}
	rules := map[string]logic.Prop{
		"merge": forall3(logic.Lolli(guard, logic.Tensor(coinP(n), coinP(m)), coinP(p))),
		"split": forall3(logic.Lolli(guard, coinP(p), logic.Tensor(coinP(n), coinP(m)))),
	}
	for _, name := range []string{"merge", "split"} {
		if err := t0.Basis.DeclareProp(lf.This(name), rules[name]); err != nil {
			t.Fatal(err)
		}
	}
	t0.Grant = coinP(lf.Nat(whole))
	t0.Outputs = []Output{{Type: t0.Grant, Amount: 1000, Owner: owner}}
	t0.Proof = withDomain(t0.Domain(), proof.V("c"))
	s := NewState()
	if _, err := s.CheckTx(t0, anyOracle()); err != nil {
		t.Fatalf("basis transaction: %v", err)
	}
	carrier := chainhash.HashB([]byte("newcoin-basis"))
	if err := s.Apply(t0, t0.Hash(), carrier); err != nil {
		t.Fatal(err)
	}
	return s, carrier, wire.OutPoint{Hash: carrier, Index: 0}
}

// splitMergeTx consumes ins (one coin to split into a and b, or coins a
// and b to merge) under the rules the basis carrier declared.
func splitMergeTx(basis chainhash.Hash, owner *bkey.PublicKey, ins []wire.OutPoint, a, b uint64) *Tx {
	coin := func(n uint64) logic.Prop { return logic.Atom(lf.TxRef(basis, "coin"), lf.Nat(n)) }
	tx := NewTx()
	rule := "split"
	if len(ins) == 1 {
		tx.Inputs = []Input{{Source: ins[0], Type: coin(a + b), Amount: 1000}}
		tx.Outputs = []Output{{Type: coin(a), Amount: 500, Owner: owner}, {Type: coin(b), Amount: 500, Owner: owner}}
	} else {
		rule = "merge"
		tx.Inputs = []Input{{Source: ins[0], Type: coin(a), Amount: 500}, {Source: ins[1], Type: coin(b), Amount: 500}}
		tx.Outputs = []Output{{Type: coin(a + b), Amount: 1000, Owner: owner}}
	}
	guard := proof.Pack{
		Witness: lf.App(lf.PlusIntro, lf.Nat(a), lf.Nat(b)),
		Of:      proof.Unit{},
		As:      logic.Exists("x", lf.FamApp(lf.PlusFam, lf.Nat(a), lf.Nat(b), lf.Nat(a+b)), logic.One),
	}
	tx.Proof = withDomain(tx.Domain(), proof.Apply(
		proof.TApply(proof.Const{Ref: lf.TxRef(basis, rule)}, lf.Nat(a), lf.Nat(b), lf.Nat(a+b)),
		guard, proof.V("a")))
	return tx
}

// TestGlobalBasisFlatUnderTransfers is the growth regression test: a
// transfer that declares nothing must not grow the global basis, so
// CheckTx walks as many layers after 2000 applied transfers as after 10.
func TestGlobalBasisFlatUnderTransfers(t *testing.T) {
	owner := newKey(t, "owner").PubKey()
	const whole = 64
	s, basis, out := newcoinState(t, owner, whole)
	global := s.GlobalBasis()
	ins := []wire.OutPoint{out}
	var a uint64
	var depthAt10 int
	for i := 1; i <= 2000; i++ {
		if len(ins) == 1 { // a split picks the parts the next merge rejoins
			a = uint64(1 + i%(whole-1))
		}
		tx := splitMergeTx(basis, owner, ins, a, whole-a)
		if len(tx.Basis.LocalFamRefs())+len(tx.Basis.LocalTermRefs())+len(tx.Basis.LocalPropRefs()) != 0 {
			t.Fatal("a transfer declares something")
		}
		if _, err := s.CheckTx(tx, anyOracle()); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
		carrier := chainhash.HashB([]byte(fmt.Sprint("transfer-", i)))
		if err := s.Apply(tx, tx.Hash(), carrier); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
		ins = ins[:0]
		for j := range tx.Outputs {
			ins = append(ins, wire.OutPoint{Hash: carrier, Index: uint32(j)})
		}
		if i == 10 {
			depthAt10 = s.GlobalBasis().Depth()
		}
	}
	if s.GlobalBasis() != global {
		t.Error("2000 transfers with empty bases replaced the global basis")
	}
	if got := s.GlobalBasis().Depth(); got != depthAt10 {
		t.Errorf("a look-up visits %d layers after 10 transfers and %d after 2000", depthAt10, got)
	}
	if err := s.AuditAffine(); err != nil {
		t.Fatal(err)
	}
}

// TestScratchStatesShareTheBasisWithoutWritingIt: CheckBatch's scratch
// state and a batch server's NewStateForBatch replay start from the
// ledger state's basis; what they accumulate stays theirs.
func TestScratchStatesShareTheBasisWithoutWritingIt(t *testing.T) {
	owner := newKey(t, "owner").PubKey()
	s, basis, out := newcoinState(t, owner, 8)
	global := s.GlobalBasis()
	depth := global.Depth()

	// A batch whose one constituent passes the coin on, off chain.
	coin8 := logic.Atom(lf.TxRef(basis, "coin"), lf.Nat(8))
	pass := NewTx()
	pass.Inputs = []Input{{Source: out, Type: coin8, Amount: 1000}}
	pass.Outputs = []Output{{Type: coin8, Amount: 1000, Owner: owner}}
	pass.Proof = withDomain(pass.DomainOffChain(), proof.V("a"))
	batch := &Batch{
		Sources:     pass.Inputs,
		Seq:         []*Tx{pass},
		Leaves:      pass.Outputs,
		LeafSources: []wire.OutPoint{{Hash: pass.Hash(), Index: 0}},
	}
	if err := s.CheckBatch(batch); err != nil {
		t.Fatalf("CheckBatch: %v", err)
	}

	// A replay that goes on to apply a declaring transaction.
	replay := NewStateForBatch(global)
	decl := grantTx(t, declTok(t), tok(), owner, 5)
	if _, err := replay.CheckTx(decl, anyOracle()); err != nil {
		t.Fatal(err)
	}
	carrier := chainhash.HashB([]byte("replay-only"))
	if err := replay.Apply(decl, decl.Hash(), carrier); err != nil {
		t.Fatal(err)
	}
	late := lf.TxRef(carrier, "tok")
	if _, ok := replay.GlobalBasis().LookupFamConst(late); !ok {
		t.Fatal("the replay lost its own declaration")
	}
	if _, ok := replay.GlobalBasis().LookupProp(lf.TxRef(basis, "merge")); !ok {
		t.Fatal("the replay lost the shared declarations")
	}

	if s.GlobalBasis() != global || global.Depth() != depth {
		t.Error("a scratch state changed the ledger state's basis")
	}
	if _, ok := global.LookupFamConst(late); ok {
		t.Error("a replay's declaration leaked into the basis it started from")
	}
}
