package typecoin

import (
	"bytes"
	"errors"
	"testing"

	"typecoin/internal/bkey"
	"typecoin/internal/chainhash"
	"typecoin/internal/lf"
	"typecoin/internal/logic"
	"typecoin/internal/proof"
	"typecoin/internal/wire"
)

// --- fallback lists (Section 5) ---

// fallbackFixture builds a state holding one token and a primary/fallback
// pair spending it: the primary discharges if(before(cutoff), good), the
// fallback returns the token.
func fallbackFixture(t *testing.T, cutoff uint64) (*State, *FallbackList) {
	t.Helper()
	owner := newKey(t, "owner").PubKey()
	s := NewState()
	t0 := NewTx()
	if err := t0.Basis.DeclareFam(lf.This("tok"), lf.KProp{}); err != nil {
		t.Fatal(err)
	}
	if err := t0.Basis.DeclareFam(lf.This("good"), lf.KProp{}); err != nil {
		t.Fatal(err)
	}
	tokL := logic.Atom(lf.This("tok"))
	redeem := logic.Lolli(tokL, logic.If(logic.Before(cutoff), logic.Atom(lf.This("good"))))
	if err := t0.Basis.DeclareProp(lf.This("redeem"), redeem); err != nil {
		t.Fatal(err)
	}
	t0.Grant = tokL
	t0.Outputs = []Output{{Type: tokL, Amount: 700, Owner: owner}}
	t0.Proof = proof.Lam{Name: "d", Ty: t0.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("c")}}}
	if _, err := s.CheckTx(t0, anyOracle()); err != nil {
		t.Fatal(err)
	}
	carrier0 := chainhash.HashB([]byte("fallback-c0"))
	if err := s.Apply(t0, t0.Hash(), carrier0); err != nil {
		t.Fatal(err)
	}
	op := wire.OutPoint{Hash: carrier0, Index: 0}
	tokG := tokAt(carrier0)
	goodG := logic.Atom(lf.TxRef(carrier0, "good"))

	primary := NewTx()
	primary.Inputs = []Input{{Source: op, Type: tokG, Amount: 700}}
	primary.Outputs = []Output{{Type: goodG, Amount: 700, Owner: owner}}
	primary.Proof = proof.Lam{Name: "d", Ty: primary.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.Apply(proof.Const{Ref: lf.TxRef(carrier0, "redeem")}, proof.V("a"))}}}

	// "A typical fallback transaction simply returns all inputs to their
	// original owners."
	fb := NewTx()
	fb.Inputs = primary.Inputs
	fb.Outputs = []Output{{Type: tokG, Amount: 700, Owner: owner}}
	fb.Proof = proof.Lam{Name: "d", Ty: fb.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("a")}}}
	return s, &FallbackList{Txs: []*Tx{primary, fb}}
}

func TestFallbackSelectPrimary(t *testing.T) {
	s, list := fallbackFixture(t, 5000)
	if err := list.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Before the cutoff the primary wins.
	tx, idx, err := list.Select(s, &logic.MapOracle{Time: 1000})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if idx != 0 || tx != list.Txs[0] {
		t.Errorf("selected index %d, want 0 (primary)", idx)
	}
	// After the cutoff the fallback is used instead.
	tx, idx, err = list.Select(s, &logic.MapOracle{Time: 9000})
	if err != nil {
		t.Fatalf("Select late: %v", err)
	}
	if idx != 1 || tx != list.Txs[1] {
		t.Errorf("selected index %d, want 1 (fallback)", idx)
	}
}

func TestFallbackValidateShape(t *testing.T) {
	s, list := fallbackFixture(t, 5000)
	_ = s
	// Different output amount breaks the same-bitcoin-transaction rule.
	bad := *list.Txs[1]
	bad.Outputs = []Output{{Type: bad.Outputs[0].Type, Amount: 1, Owner: bad.Outputs[0].Owner}}
	broken := &FallbackList{Txs: []*Tx{list.Txs[0], &bad}}
	if err := broken.Validate(); !errors.Is(err, ErrListShape) {
		t.Errorf("amount mismatch: %v", err)
	}
	// Different owner likewise.
	other := newKey(t, "other").PubKey()
	bad2 := *list.Txs[1]
	bad2.Outputs = []Output{{Type: bad2.Outputs[0].Type, Amount: 700, Owner: other}}
	broken2 := &FallbackList{Txs: []*Tx{list.Txs[0], &bad2}}
	if err := broken2.Validate(); !errors.Is(err, ErrListShape) {
		t.Errorf("owner mismatch: %v", err)
	}
	// Different input source likewise.
	bad3 := *list.Txs[1]
	bad3.Inputs = []Input{{Source: wire.OutPoint{Index: 9}, Type: bad3.Inputs[0].Type, Amount: 700}}
	broken3 := &FallbackList{Txs: []*Tx{list.Txs[0], &bad3}}
	if err := broken3.Validate(); !errors.Is(err, ErrListShape) {
		t.Errorf("source mismatch: %v", err)
	}
	// Empty list.
	if err := (&FallbackList{}).Validate(); !errors.Is(err, ErrListEmpty) {
		t.Errorf("empty list: %v", err)
	}
}

func TestFallbackNoValidMember(t *testing.T) {
	s, list := fallbackFixture(t, 5000)
	// Only the (expiring) primary, no fallback: past the cutoff nothing
	// is valid and the inputs are spoiled.
	lonely := &FallbackList{Txs: list.Txs[:1]}
	if _, _, err := lonely.Select(s, &logic.MapOracle{Time: 9000}); !errors.Is(err, ErrNoValidTx) {
		t.Errorf("want ErrNoValidTx, got %v", err)
	}
}

func TestFallbackListHash(t *testing.T) {
	_, list := fallbackFixture(t, 5000)
	// A singleton list hashes like its lone transaction (ordinary
	// transactions are the special case).
	single := &FallbackList{Txs: list.Txs[:1]}
	if single.Hash() != list.Txs[0].Hash() {
		t.Error("singleton list hash differs from tx hash")
	}
	// The full list hashes differently, and order matters.
	if list.Hash() == single.Hash() {
		t.Error("list hash ignores fallbacks")
	}
	reversed := &FallbackList{Txs: []*Tx{list.Txs[1], list.Txs[0]}}
	if reversed.Hash() == list.Hash() {
		t.Error("list hash ignores order")
	}
}

// --- open transactions (Section 7) ---

func openFixture(t *testing.T) (*OpenTx, wire.OutPoint) {
	t.Helper()
	alice := newKey(t, "alice").PubKey()
	prizeOp := wire.OutPoint{Hash: chainhash.HashB([]byte("prize")), Index: 0}
	sol := Atom0(t)
	template := NewTx()
	template.Inputs = []Input{
		{Type: sol, Amount: 100},                      // hole 0
		{Source: prizeOp, Type: logic.One, Amount: 5}, // fixed
	}
	template.Outputs = []Output{
		{Type: sol, Amount: 100, Owner: alice},
		{Type: logic.One, Amount: 5}, // owner hole
	}
	template.Proof = proof.Lam{Name: "d", Ty: logic.One,
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("a")}}}
	return &OpenTx{Template: template, OpenInputs: []int{0}, OpenOwners: []int{1}}, prizeOp
}

// Atom0 builds a throwaway atomic proposition.
func Atom0(t *testing.T) logic.Prop {
	t.Helper()
	return logic.Atom(lf.TxRef(chainhash.HashB([]byte("base")), "solution"))
}

func TestOpenFillAndMatch(t *testing.T) {
	open, _ := openFixture(t)
	bob := newKey(t, "bob").PubKey()
	src := wire.OutPoint{Hash: chainhash.HashB([]byte("sol")), Index: 1}
	filled, err := open.Fill(
		map[int]wire.OutPoint{0: src},
		map[int]*bkey.PublicKey{1: bob})
	if err != nil {
		t.Fatalf("Fill: %v", err)
	}
	if filled.Inputs[0].Source != src {
		t.Error("input hole not filled")
	}
	if filled.Outputs[1].Owner == nil {
		t.Error("owner hole not filled")
	}
	if err := open.Matches(filled); err != nil {
		t.Errorf("Matches: %v", err)
	}
	// The template itself is unchanged (holes still open).
	if open.Template.Outputs[1].Owner != nil {
		t.Error("Fill mutated the template")
	}
}

func TestOpenFillErrors(t *testing.T) {
	open, _ := openFixture(t)
	bob := newKey(t, "bob").PubKey()
	if _, err := open.Fill(nil, map[int]*bkey.PublicKey{1: bob}); !errors.Is(err, ErrHoleUnfilled) {
		t.Errorf("missing input: %v", err)
	}
	src := wire.OutPoint{Hash: chainhash.HashB([]byte("sol"))}
	if _, err := open.Fill(map[int]wire.OutPoint{0: src}, nil); !errors.Is(err, ErrHoleUnfilled) {
		t.Errorf("missing owner: %v", err)
	}
}

func TestOpenMatchesRejectsTampering(t *testing.T) {
	open, prizeOp := openFixture(t)
	bob := newKey(t, "bob").PubKey()
	src := wire.OutPoint{Hash: chainhash.HashB([]byte("sol")), Index: 1}
	filled, err := open.Fill(map[int]wire.OutPoint{0: src}, map[int]*bkey.PublicKey{1: bob})
	if err != nil {
		t.Fatal(err)
	}

	// Change a fixed input source: not an instance.
	tampered := *filled
	tampered.Inputs = append([]Input(nil), filled.Inputs...)
	tampered.Inputs[1].Source = wire.OutPoint{Hash: chainhash.HashB([]byte("other"))}
	if err := open.Matches(&tampered); !errors.Is(err, ErrNotInstance) {
		t.Errorf("fixed input tampering: %v", err)
	}
	_ = prizeOp

	// Change an amount.
	tampered2 := *filled
	tampered2.Outputs = append([]Output(nil), filled.Outputs...)
	tampered2.Outputs[1].Amount = 9999
	if err := open.Matches(&tampered2); !errors.Is(err, ErrNotInstance) {
		t.Errorf("amount tampering: %v", err)
	}

	// Change the fixed owner.
	tampered3 := *filled
	tampered3.Outputs = append([]Output(nil), filled.Outputs...)
	tampered3.Outputs[0].Owner = bob
	if err := open.Matches(&tampered3); !errors.Is(err, ErrNotInstance) {
		t.Errorf("fixed owner tampering: %v", err)
	}

	// Change the proof body (beyond the top-level annotation).
	tampered4 := *filled
	tampered4.Proof = proof.Lam{Name: "d", Ty: filled.Domain(), Body: proof.Unit{}}
	if err := open.Matches(&tampered4); !errors.Is(err, ErrNotInstance) {
		t.Errorf("proof tampering: %v", err)
	}
}

// --- batch encoding and checking (Section 3.2) ---

func TestBatchEncodeDecodeRoundTrip(t *testing.T) {
	owner := newKey(t, "owner").PubKey()
	tokG := tokAt(chainhash.HashB([]byte("basis")))
	src := wire.OutPoint{Hash: chainhash.HashB([]byte("deposit")), Index: 0}
	transfer := NewTx()
	transfer.Inputs = []Input{{Source: src, Type: tokG, Amount: 300}}
	transfer.Outputs = []Output{{Type: tokG, Amount: 300, Owner: owner}}
	transfer.Proof = proof.Lam{Name: "d", Ty: transfer.DomainOffChain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("a")}}}
	b := &Batch{
		Sources:     []Input{{Source: src, Type: tokG, Amount: 300}},
		Seq:         []*Tx{transfer},
		Leaves:      []Output{{Type: tokG, Amount: 300, Owner: owner}},
		LeafSources: []wire.OutPoint{{Hash: transfer.Hash(), Index: 0}},
	}
	var buf bytes.Buffer
	if err := b.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBatch(&buf)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if back.Hash() != b.Hash() {
		t.Error("batch hash changed through round trip")
	}
	if buf.Len() != 0 {
		t.Error("trailing bytes")
	}
}

func TestCheckBatchRejectsBadShapes(t *testing.T) {
	owner := newKey(t, "owner").PubKey()
	s := NewState()
	t0 := grantTx(t, declTok(t), tok(), owner, 300)
	if _, err := s.CheckTx(t0, anyOracle()); err != nil {
		t.Fatal(err)
	}
	carrier0 := chainhash.HashB([]byte("batch-c0"))
	if err := s.Apply(t0, t0.Hash(), carrier0); err != nil {
		t.Fatal(err)
	}
	src := wire.OutPoint{Hash: carrier0, Index: 0}
	tokG := tokAt(carrier0)

	transfer := NewTx()
	transfer.Inputs = []Input{{Source: src, Type: tokG, Amount: 300}}
	transfer.Outputs = []Output{{Type: tokG, Amount: 300, Owner: owner}}
	transfer.Proof = proof.Lam{Name: "d", Ty: transfer.DomainOffChain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("a")}}}
	leafOp := wire.OutPoint{Hash: transfer.Hash(), Index: 0}

	good := &Batch{
		Sources:     []Input{{Source: src, Type: tokG, Amount: 300}},
		Seq:         []*Tx{transfer},
		Leaves:      []Output{{Type: tokG, Amount: 300, Owner: owner}},
		LeafSources: []wire.OutPoint{leafOp},
	}
	if err := s.CheckBatch(good); err != nil {
		t.Fatalf("good batch rejected: %v", err)
	}

	// Empty batch.
	if err := s.CheckBatch(&Batch{}); !errors.Is(err, ErrBatchEmpty) {
		t.Errorf("empty: %v", err)
	}
	// Unknown source.
	unknown := *good
	unknown.Sources = []Input{{Source: wire.OutPoint{Index: 7}, Type: tokG, Amount: 300}}
	if err := s.CheckBatch(&unknown); !errors.Is(err, ErrInputUnknown) {
		t.Errorf("unknown source: %v", err)
	}
	// A leaf that is not a survivor.
	badLeaf := *good
	badLeaf.LeafSources = []wire.OutPoint{{Hash: transfer.Hash(), Index: 5}}
	if err := s.CheckBatch(&badLeaf); !errors.Is(err, ErrBatchUnbalance) {
		t.Errorf("bad leaf: %v", err)
	}
	// A dropped resource (leaf missing).
	dropped := *good
	dropped.Leaves = nil
	dropped.LeafSources = nil
	if err := s.CheckBatch(&dropped); !errors.Is(err, ErrBatchEmpty) {
		t.Errorf("dropped: %v", err)
	}
	// An unconsumed source.
	t0b := grantTx(t, declTok(t), tok(), owner, 50)
	if _, err := s.CheckTx(t0b, anyOracle()); err != nil {
		t.Fatal(err)
	}
	carrier0b := chainhash.HashB([]byte("batch-c0b"))
	if err := s.Apply(t0b, t0b.Hash(), carrier0b); err != nil {
		t.Fatal(err)
	}
	extraSrc := *good
	extraSrc.Sources = append(append([]Input(nil), good.Sources...),
		Input{Source: wire.OutPoint{Hash: carrier0b, Index: 0}, Type: tokAt(carrier0b), Amount: 50})
	if err := s.CheckBatch(&extraSrc); !errors.Is(err, ErrBatchSource) {
		t.Errorf("unconsumed source: %v", err)
	}
}

// --- off-chain checking (Section 3.2 restrictions) ---

func TestOffChainReceiptRestriction(t *testing.T) {
	owner := newKey(t, "owner").PubKey()
	s := NewState()
	t0 := grantTx(t, declTok(t), tok(), owner, 300)
	if _, err := s.CheckTx(t0, anyOracle()); err != nil {
		t.Fatal(err)
	}
	carrier0 := chainhash.HashB([]byte("oc-c0"))
	if err := s.Apply(t0, t0.Hash(), carrier0); err != nil {
		t.Fatal(err)
	}
	src := wire.OutPoint{Hash: carrier0, Index: 0}
	tokG := tokAt(carrier0)

	// A proof over the FULL on-chain domain (receipts included) is
	// rejected off-chain with the dedicated error.
	tx := NewTx()
	tx.Inputs = []Input{{Source: src, Type: tokG, Amount: 300}}
	tx.Outputs = []Output{{Type: tokG, Amount: 300, Owner: owner}}
	tx.Proof = proof.Lam{Name: "d", Ty: tx.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("a")}}}
	if err := s.CheckTxOffChain(tx); !errors.Is(err, ErrOffChainReceipt) {
		t.Errorf("want ErrOffChainReceipt, got %v", err)
	}
}

// --- the ledger applies same-block dependencies in order (regression) ---

// TestVerifyBasisDependency: a transaction that references another's
// basis constants without consuming its outputs still requires it in the
// upstream set, and chain-order replay handles it (regression test for
// the basis-dependency ordering bug).
func TestVerifyBasisDependency(t *testing.T) {
	owner := newKey(t, "owner").PubKey()
	s := NewState()
	// T0 declares tok and a rule mk : 1 -o tok, but grants nothing.
	t0 := NewTx()
	declTok(t)(t0.Basis)
	if err := t0.Basis.DeclareProp(lf.This("mk"), logic.Lolli(logic.One, tok())); err != nil {
		t.Fatal(err)
	}
	t0.Outputs = []Output{{Type: logic.One, Amount: 5, Owner: owner}}
	t0.Proof = proof.Lam{Name: "d", Ty: t0.Domain(), Body: proof.Unit{}}
	if _, err := s.CheckTx(t0, anyOracle()); err != nil {
		t.Fatal(err)
	}
	carrier0 := chainhash.HashB([]byte("dep-c0"))
	if err := s.Apply(t0, t0.Hash(), carrier0); err != nil {
		t.Fatal(err)
	}
	// T1 uses T0's rule but takes NO inputs from T0.
	t1 := NewTx()
	tokG := tokAt(carrier0)
	t1.Outputs = []Output{{Type: tokG, Amount: 5, Owner: owner}}
	t1.Proof = proof.Lam{Name: "d", Ty: t1.Domain(),
		Body: proof.Apply(proof.Const{Ref: lf.TxRef(carrier0, "mk")}, proof.Unit{})}
	if _, err := s.CheckTx(t1, anyOracle()); err != nil {
		t.Fatal(err)
	}
	// T1's referenced carriers include T0's.
	refs := t1.ReferencedCarriers()
	found := false
	for _, h := range refs {
		if h == carrier0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("ReferencedCarriers %v missing %s", refs, carrier0)
	}
}

func TestTxEncodeEscrowRoundTrip(t *testing.T) {
	owner := newKey(t, "owner").PubKey()
	a1 := newKey(t, "agent1").PubKey()
	a2 := newKey(t, "agent2").PubKey()
	a3 := newKey(t, "agent3").PubKey()
	tx := grantTx(t, declTok(t), tok(), owner, 500)
	tx.Outputs[0].Escrow = &EscrowLock{M: 2, Keys: []*bkey.PublicKey{a1, a2, a3}}
	// The proof's domain annotation is stale after adding escrow? No:
	// escrow does not enter Domain(). Re-check and round trip.
	back, err := DecodeBytes(tx.Bytes())
	if err != nil {
		t.Fatalf("DecodeBytes: %v", err)
	}
	if back.Hash() != tx.Hash() {
		t.Error("hash changed")
	}
	if back.Outputs[0].Escrow == nil || back.Outputs[0].Escrow.M != 2 ||
		len(back.Outputs[0].Escrow.Keys) != 3 {
		t.Fatalf("escrow lock lost: %+v", back.Outputs[0].Escrow)
	}
	// The carrier output prefix matches between original and decoded.
	o1, err := CarrierOutputs(tx)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := CarrierOutputs(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(o1[0].PkScript, o2[0].PkScript) {
		t.Error("escrowed carrier script differs after round trip")
	}
}

// TestPrintingPressGrant: "the bank could include the resource
// (all n:nat. coin n) in the affine grant and hang on to it, thus giving
// itself the equivalent of a printing press ... creating persistent
// resources in the affine grant is an important idiom" (Section 6).
func TestPrintingPressGrant(t *testing.T) {
	bank := newKey(t, "bank").PubKey()
	s := NewState()
	tx := NewTx()
	if err := tx.Basis.DeclareFam(lf.This("coin"), lf.KArrow(lf.NatFam, lf.KProp{})); err != nil {
		t.Fatal(err)
	}
	coinP := func(m lf.Term) logic.Prop { return logic.Atom(lf.This("coin"), m) }
	// The press: a persistent printing capability in the grant. If the
	// same proposition appeared in the BASIS, anyone could print money;
	// in the grant, only this transaction's proof can, and it routes the
	// press to the bank.
	press := logic.Bang(logic.Forall("n", lf.NatFam, coinP(lf.Var(0, "n"))))
	tx.Grant = press
	tx.Outputs = []Output{
		{Type: coinP(lf.Nat(7)), Amount: 1000, Owner: bank},
		{Type: coinP(lf.Nat(9)), Amount: 1000, Owner: bank},
		{Type: press, Amount: 1000, Owner: bank}, // keep the press
	}
	// Proof: open the bang once, mint twice, and re-bang the press for
	// the output (persistent hypotheses survive inside bangs).
	tx.Proof = proof.Lam{Name: "d", Ty: tx.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.LetBang{Name: "mint", Of: proof.V("c"),
					Body: proof.TensorIntro(
						proof.TApp{Fn: proof.V("mint"), Arg: lf.Nat(7)},
						proof.TApp{Fn: proof.V("mint"), Arg: lf.Nat(9)},
						proof.BangI{Of: proof.V("mint")},
					)}}}}
	if _, err := s.CheckTx(tx, anyOracle()); err != nil {
		t.Fatalf("printing press: %v", err)
	}
	// The press proposition is fresh (usable as a grant) — but the same
	// proposition placed in the basis would be a disaster; freshness
	// still permits it (it is local), which is exactly why the paper
	// warns: "If (all n:nat. coin n) instead appeared in the basis, then
	// anyone could print arbitrary amounts of money!" The system cannot
	// forbid it; the bank just must not do it.
	if err := logic.FreshProp(press); err != nil {
		t.Errorf("press not fresh: %v", err)
	}
}
