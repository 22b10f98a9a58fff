package typecoin

import (
	"crypto/sha256"
	"errors"
	"testing"

	"typecoin/internal/bkey"
	"typecoin/internal/chainhash"
	"typecoin/internal/lf"
	"typecoin/internal/logic"
	"typecoin/internal/proof"
	"typecoin/internal/wire"
)

type detEntropy struct{ state [32]byte }

func (d *detEntropy) Read(p []byte) (int, error) {
	for i := range p {
		if i%32 == 0 {
			d.state = sha256.Sum256(d.state[:])
		}
		p[i] = d.state[i%32]
	}
	return len(p), nil
}

func newKey(t testing.TB, seed string) *bkey.PrivateKey {
	t.Helper()
	k, err := bkey.NewPrivateKey(&detEntropy{state: sha256.Sum256([]byte(seed))})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// grantTx builds a transaction with no inputs that grants `granted` as
// its affine grant and routes it to owner as output 0.
func grantTx(t testing.TB, setup func(b *logic.Basis), granted logic.Prop, owner *bkey.PublicKey, amount int64) *Tx {
	t.Helper()
	tx := NewTx()
	if setup != nil {
		setup(tx.Basis)
	}
	tx.Grant = granted
	tx.Outputs = []Output{{Type: granted, Amount: amount, Owner: owner}}
	// M : (C (x) 1 (x) R) -o C — project the grant out of the domain.
	tx.Proof = proof.Lam{Name: "d", Ty: tx.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("c")}}}
	return tx
}

// declTok declares tok : prop in a basis.
func declTok(t testing.TB) func(b *logic.Basis) {
	t.Helper()
	return func(b *logic.Basis) {
		if err := b.DeclareFam(lf.This("tok"), lf.KProp{}); err != nil {
			t.Fatal(err)
		}
	}
}

func tok() logic.Prop { return logic.Atom(lf.This("tok")) }

func tokAt(txid chainhash.Hash) logic.Prop {
	return logic.Atom(lf.TxRef(txid, "tok"))
}

func anyOracle() logic.Oracle { return &logic.MapOracle{Time: 1000} }

func TestGrantTransaction(t *testing.T) {
	owner := newKey(t, "owner").PubKey()
	s := NewState()
	tx := grantTx(t, declTok(t), tok(), owner, 500)
	cond, err := s.CheckTx(tx, anyOracle())
	if err != nil {
		t.Fatalf("CheckTx: %v", err)
	}
	if _, ok := cond.(logic.CTrue); !ok {
		t.Errorf("condition = %s, want true", cond)
	}
	carrier := chainhash.HashB([]byte("carrier-1"))
	if err := s.Apply(tx, tx.Hash(), carrier); err != nil {
		t.Fatal(err)
	}
	// The output type entered the state with [txid/this] applied.
	got, ok := s.ResolveOutput(wire.OutPoint{Hash: carrier, Index: 0})
	if !ok {
		t.Fatal("output not recorded")
	}
	eq, err := logic.PropEqual(got, tokAt(carrier))
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("recorded type %s, want %s", got, tokAt(carrier))
	}
	// The basis accumulated under the txid namespace.
	if _, ok := s.GlobalBasis().LookupFamConst(lf.TxRef(carrier, "tok")); !ok {
		t.Error("global basis missing accumulated constant")
	}
}

func TestSpendTransaction(t *testing.T) {
	owner := newKey(t, "owner").PubKey()
	s := NewState()
	t1 := grantTx(t, declTok(t), tok(), owner, 500)
	if _, err := s.CheckTx(t1, anyOracle()); err != nil {
		t.Fatal(err)
	}
	carrier1 := chainhash.HashB([]byte("carrier-1"))
	if err := s.Apply(t1, t1.Hash(), carrier1); err != nil {
		t.Fatal(err)
	}

	// T2 consumes the token and re-grants it to the same owner.
	in := wire.OutPoint{Hash: carrier1, Index: 0}
	t2 := NewTx()
	t2.Inputs = []Input{{Source: in, Type: tokAt(carrier1), Amount: 500}}
	t2.Outputs = []Output{{Type: tokAt(carrier1), Amount: 500, Owner: owner}}
	// M : (1 (x) A (x) R) -o A.
	t2.Proof = proof.Lam{Name: "d", Ty: t2.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("a")}}}
	if _, err := s.CheckTx(t2, anyOracle()); err != nil {
		t.Fatalf("spend CheckTx: %v", err)
	}
	carrier2 := chainhash.HashB([]byte("carrier-2"))
	if err := s.Apply(t2, t2.Hash(), carrier2); err != nil {
		t.Fatal(err)
	}
	// The input is consumed; the new output exists.
	if _, ok := s.ResolveOutput(in); ok {
		t.Error("consumed input still resolvable")
	}
	if _, ok := s.ResolveOutput(wire.OutPoint{Hash: carrier2, Index: 0}); !ok {
		t.Error("new output missing")
	}

	// Replaying T2 (same inputs) against the state must fail: the affine
	// invariant between transactions.
	t3 := NewTx()
	t3.Inputs = t2.Inputs
	t3.Outputs = t2.Outputs
	t3.Proof = t2.Proof
	if _, err := s.CheckTx(t3, anyOracle()); !errors.Is(err, ErrInputUnknown) {
		t.Errorf("double spend: want ErrInputUnknown, got %v", err)
	}
}

func TestCheckTxRejectsWrongInputType(t *testing.T) {
	owner := newKey(t, "owner").PubKey()
	s := NewState()
	t1 := grantTx(t, declTok(t), tok(), owner, 500)
	carrier1 := chainhash.HashB([]byte("carrier-1"))
	if _, err := s.CheckTx(t1, anyOracle()); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(t1, t1.Hash(), carrier1); err != nil {
		t.Fatal(err)
	}
	in := wire.OutPoint{Hash: carrier1, Index: 0}
	// Claim the output has type 1 instead of tok.
	t2 := NewTx()
	t2.Inputs = []Input{{Source: in, Type: logic.One, Amount: 500}}
	t2.Outputs = []Output{{Type: logic.One, Amount: 500, Owner: owner}}
	t2.Proof = proof.Lam{Name: "d", Ty: t2.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("a")}}}
	if _, err := s.CheckTx(t2, anyOracle()); !errors.Is(err, ErrInputTypeWrong) {
		t.Errorf("want ErrInputTypeWrong, got %v", err)
	}
	// Or the right type but the wrong amount.
	t3 := NewTx()
	t3.Inputs = []Input{{Source: in, Type: tokAt(carrier1), Amount: 999}}
	t3.Outputs = []Output{{Type: tokAt(carrier1), Amount: 999, Owner: owner}}
	t3.Proof = proof.Lam{Name: "d", Ty: t3.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("a")}}}
	if _, err := s.CheckTx(t3, anyOracle()); err == nil {
		t.Error("wrong amount accepted")
	}
}

func TestCheckTxRejectsForgingProof(t *testing.T) {
	// A transaction with no grant and no inputs cannot produce tok.
	owner := newKey(t, "owner").PubKey()
	s := NewState()
	tx := NewTx()
	declTok(t)(tx.Basis)
	tx.Outputs = []Output{{Type: tok(), Amount: 500, Owner: owner}}
	tx.Proof = proof.Lam{Name: "d", Ty: tx.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("c")}}} // c : 1, not tok
	if _, err := s.CheckTx(tx, anyOracle()); !errors.Is(err, ErrProofWrongType) {
		t.Errorf("want ErrProofWrongType, got %v", err)
	}
}

func TestCheckTxRejectsUnfreshGrant(t *testing.T) {
	// Granting an affirmation forges a signature; freshness blocks it.
	owner := newKey(t, "owner").PubKey()
	alice := newKey(t, "alice")
	s := NewState()
	tx := NewTx()
	declTok(t)(tx.Basis)
	granted := logic.Says(lf.Principal(alice.Principal()), tok())
	tx.Grant = granted
	tx.Outputs = []Output{{Type: granted, Amount: 500, Owner: owner}}
	tx.Proof = proof.Lam{Name: "d", Ty: tx.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("c")}}}
	if _, err := s.CheckTx(tx, anyOracle()); err == nil {
		t.Error("affirmation grant accepted")
	}
	var nf *logic.ErrNotFresh
	if _, err := s.CheckTx(tx, anyOracle()); !errors.As(err, &nf) {
		t.Errorf("want ErrNotFresh, got %v", err)
	}
}

func TestCheckTxRejectsForeignBasisDecl(t *testing.T) {
	owner := newKey(t, "owner").PubKey()
	s := NewState()
	tx := NewTx()
	foreign := lf.TxRef(chainhash.HashB([]byte("other")), "tok")
	if err := tx.Basis.DeclareFam(foreign, lf.KProp{}); err != nil {
		t.Fatal(err)
	}
	tx.Outputs = []Output{{Type: logic.One, Amount: 1, Owner: owner}}
	tx.Proof = proof.Lam{Name: "d", Ty: tx.Domain(), Body: proof.Unit{}}
	if _, err := s.CheckTx(tx, anyOracle()); err == nil {
		t.Error("foreign declaration accepted")
	}
}

func TestCheckTxConditionDischarge(t *testing.T) {
	owner := newKey(t, "owner").PubKey()
	s := NewState()
	tx := NewTx()
	declTok(t)(tx.Basis)
	tx.Grant = tok()
	tx.Outputs = []Output{{Type: tok(), Amount: 500, Owner: owner}}
	// M : D -o if(before(2000), tok): grant wrapped in a conditional.
	tx.Proof = proof.Lam{Name: "d", Ty: tx.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.IfReturn{Cond: logic.Before(2000), Of: proof.V("c")}}}}
	// At time 1000 the condition holds.
	cond, err := s.CheckTx(tx, &logic.MapOracle{Time: 1000})
	if err != nil {
		t.Fatalf("CheckTx at 1000: %v", err)
	}
	if !logic.EntailsCond(cond, logic.Before(2000)) {
		t.Errorf("returned condition %s", cond)
	}
	// At time 3000 it does not: the transaction is invalid and, had it
	// entered the chain, would have spoiled its inputs.
	if _, err := s.CheckTx(tx, &logic.MapOracle{Time: 3000}); !errors.Is(err, ErrConditionFalse) {
		t.Errorf("want ErrConditionFalse, got %v", err)
	}
}

func TestTxEncodeDecodeRoundTrip(t *testing.T) {
	owner := newKey(t, "owner").PubKey()
	tx := grantTx(t, declTok(t), tok(), owner, 500)
	back, err := DecodeBytes(tx.Bytes())
	if err != nil {
		t.Fatalf("DecodeBytes: %v", err)
	}
	if back.Hash() != tx.Hash() {
		t.Error("hash changed through round trip")
	}
	// The round-tripped transaction still checks.
	s := NewState()
	if _, err := s.CheckTx(back, anyOracle()); err != nil {
		t.Errorf("round-tripped tx rejected: %v", err)
	}
	// Trailing garbage rejected.
	if _, err := DecodeBytes(append(tx.Bytes(), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestHashCoversProof(t *testing.T) {
	owner := newKey(t, "owner").PubKey()
	tx := grantTx(t, declTok(t), tok(), owner, 500)
	h1 := tx.Hash()
	// Mutating the proof changes the hash (the manner of spending is
	// irreversibly fixed by publishing the hash).
	tx.Proof = proof.Lam{Name: "d2", Ty: tx.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d2"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("c")}}}
	if tx.Hash() == h1 {
		t.Error("hash ignores the proof term")
	}
	// SigPayload does NOT cover the proof (the signatures live inside it).
	tx2 := grantTx(t, declTok(t), tok(), owner, 500)
	p1 := string(tx2.SigPayload())
	tx2.Proof = proof.Unit{}
	if string(tx2.SigPayload()) != p1 {
		t.Error("sig payload covers the proof term")
	}
}

func TestCarrierEmbedding(t *testing.T) {
	ownerKey := newKey(t, "owner")
	owner := ownerKey.PubKey()
	tx := grantTx(t, declTok(t), tok(), owner, 500)

	outs, err := CarrierOutputs(tx)
	if err != nil {
		t.Fatal(err)
	}
	carrier := wire.NewMsgTx(wire.TxVersion)
	carrier.AddTxIn(&wire.TxIn{PreviousOutPoint: wire.OutPoint{Hash: chainhash.HashB([]byte("fund"))}})
	for _, o := range outs {
		carrier.AddTxOut(o)
	}
	// Extract and verify.
	h, ok := ExtractMetaHash(carrier)
	if !ok || h != tx.Hash() {
		t.Fatalf("meta hash: ok=%v h=%s want=%s", ok, h, tx.Hash())
	}
	if err := VerifyEmbedding(tx, carrier); err != nil {
		t.Fatalf("VerifyEmbedding: %v", err)
	}
	// Tampered metadata fails.
	other := grantTx(t, declTok(t), tok(), owner, 501)
	if err := VerifyEmbedding(other, carrier); !errors.Is(err, ErrNotCarrier) {
		t.Errorf("want ErrNotCarrier, got %v", err)
	}
	// Wrong amount fails.
	carrier.TxOut[0].Value = 999
	if err := VerifyEmbedding(tx, carrier); !errors.Is(err, ErrCarrierShape) {
		t.Errorf("want ErrCarrierShape, got %v", err)
	}
}

func TestCheckTxDuplicateInput(t *testing.T) {
	owner := newKey(t, "owner").PubKey()
	s := NewState()
	t1 := grantTx(t, declTok(t), tok(), owner, 500)
	carrier1 := chainhash.HashB([]byte("c1"))
	if _, err := s.CheckTx(t1, anyOracle()); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(t1, t1.Hash(), carrier1); err != nil {
		t.Fatal(err)
	}
	in := wire.OutPoint{Hash: carrier1, Index: 0}
	t2 := NewTx()
	t2.Inputs = []Input{
		{Source: in, Type: tokAt(carrier1), Amount: 500},
		{Source: in, Type: tokAt(carrier1), Amount: 500},
	}
	t2.Outputs = []Output{{Type: tokAt(carrier1), Amount: 500, Owner: owner}}
	t2.Proof = proof.Unit{}
	if _, err := s.CheckTx(t2, anyOracle()); err == nil {
		t.Error("duplicate input accepted")
	}
}

func TestAffineAssertBoundToTransaction(t *testing.T) {
	// An affine affirmation signed for one transaction cannot be
	// replayed in a transaction with different outputs.
	alice := newKey(t, "alice")
	owner := newKey(t, "owner").PubKey()
	s := NewState()

	tx := NewTx()
	if err := tx.Basis.DeclareFam(lf.This("perm"), lf.KProp{}); err != nil {
		t.Fatal(err)
	}
	perm := logic.Atom(lf.This("perm"))
	granted := logic.Says(lf.Principal(alice.Principal()), perm)
	tx.Outputs = []Output{{Type: granted, Amount: 500, Owner: owner}}

	sig, err := proof.SignAffine(alice, perm, tx.SigPayload())
	if err != nil {
		t.Fatal(err)
	}
	mkProof := func() proof.Term {
		return proof.Lam{Name: "d", Ty: tx.Domain(),
			Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
				Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
					Body: proof.Assert{Key: alice.PubKey(), Prop: perm, Sig: sig}}}}
	}
	tx.Proof = mkProof()
	if _, err := s.CheckTx(tx, anyOracle()); err != nil {
		t.Fatalf("original transaction rejected: %v", err)
	}

	// Attacker copies the assert into a transaction routing the
	// affirmation to a different owner: the payload changes, so the
	// signature no longer verifies.
	evil := newKey(t, "evil").PubKey()
	tx2 := NewTx()
	if err := tx2.Basis.DeclareFam(lf.This("perm"), lf.KProp{}); err != nil {
		t.Fatal(err)
	}
	tx2.Outputs = []Output{{Type: granted, Amount: 500, Owner: evil}}
	tx2.Proof = proof.Lam{Name: "d", Ty: tx2.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.Assert{Key: alice.PubKey(), Prop: perm, Sig: sig}}}}
	if _, err := s.CheckTx(tx2, anyOracle()); err == nil {
		t.Fatal("replayed affine assert accepted")
	}
}
