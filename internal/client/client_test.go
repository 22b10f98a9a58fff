package client_test

import (
	"errors"
	"strings"
	"testing"

	"typecoin/internal/client"
	"typecoin/internal/lf"
	"typecoin/internal/logic"
	"typecoin/internal/proof"
	"typecoin/internal/testutil"
	"typecoin/internal/typecoin"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

// env is a funded regtest node with a Typecoin ledger at minConf 1.
type env struct {
	*testutil.Harness
	Client *client.Client
}

func newEnv(t *testing.T) *env {
	t.Helper()
	h := testutil.NewHarness(t, t.Name())
	h.Fund(t)
	ledger := typecoin.NewLedger(h.Chain, 1)
	return &env{
		Harness: h,
		Client:  client.New(h.Chain, h.Pool, h.Wallet, ledger),
	}
}

// projGrant is the proof skeleton for a no-input grant transaction:
// lambda d : C (x) 1 (x) R. (project C).
func projGrant(domain logic.Prop) proof.Term {
	return proof.Lam{Name: "d", Ty: domain,
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("c")}}}
}

// withDomain builds lambda d. let ca (x) r = d in let c (x) a = ca in body,
// where body sees c (the grant), a (the inputs) and r (the receipts).
func withDomain(domain logic.Prop, body proof.Term) proof.Term {
	return proof.Lam{Name: "d", Ty: domain,
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: body}}}
}

// TestHomeworkScenario walks the paper's running example end to end:
// Alice grants Bob a single-use may-write credential; Bob commits to a
// specific write by infusing the fileserver's nonce; the fileserver
// verifies trust-free; and the spent credential cannot be exercised
// again.
func TestHomeworkScenario(t *testing.T) {
	e := newEnv(t)
	alice, err := e.Wallet.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	aliceKey, err := e.Wallet.Key(alice)
	if err != nil {
		t.Fatal(err)
	}
	_, bobPub, err := e.Client.NewPrincipal()
	if err != nil {
		t.Fatal(err)
	}
	bob := bobPub.Principal()

	// --- T1: Alice issues the credential. ---
	// Basis: may-write : principal -> prop,
	//        may-write-this : principal -> nat -> prop,
	//        use : all K. <Alice>(may-write K) -o may-write K
	//        commit : all K. all n. may-write K -o may-write-this K n
	t1 := typecoin.NewTx()
	b := t1.Basis
	if err := b.DeclareFam(lf.This("may-write"), lf.KArrow(lf.PrincipalFam, lf.KProp{})); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareFam(lf.This("may-write-this"),
		lf.KArrow(lf.PrincipalFam, lf.KArrow(lf.NatFam, lf.KProp{}))); err != nil {
		t.Fatal(err)
	}
	mayWrite := func(k lf.Term) logic.Prop { return logic.Atom(lf.This("may-write"), k) }
	use := logic.Forall("K", lf.PrincipalFam,
		logic.Lolli(
			logic.Says(lf.Principal(alice), mayWrite(lf.Var(0, "K"))),
			mayWrite(lf.Var(0, "K"))))
	if err := b.DeclareProp(lf.This("use"), use); err != nil {
		t.Fatal(err)
	}
	commit := logic.Forall("K", lf.PrincipalFam, logic.Forall("n", lf.NatFam,
		logic.Lolli(
			logic.Atom(lf.This("may-write"), lf.Var(1, "K")),
			logic.Atom(lf.This("may-write-this"), lf.Var(1, "K"), lf.Var(0, "n")))))
	if err := b.DeclareProp(lf.This("commit"), commit); err != nil {
		t.Fatal(err)
	}

	credential := mayWrite(lf.Principal(bob))
	t1.Outputs = []typecoin.Output{{Type: credential, Amount: 10_000, Owner: bobPub}}

	// Alice signs <Alice>(may-write Bob) relative to this transaction.
	sig, err := proof.SignAffine(aliceKey, credential, t1.SigPayload())
	if err != nil {
		t.Fatal(err)
	}
	t1.Proof = withDomain(t1.Domain(),
		proof.Apply(
			proof.TApp{Fn: proof.Const{Ref: lf.This("use")}, Arg: lf.Principal(bob)},
			proof.Assert{Key: aliceKey.PubKey(), Prop: credential, Sig: sig}))

	carrier1, err := e.Client.Submit(t1)
	if err != nil {
		t.Fatalf("submit T1: %v", err)
	}
	e.MineBlocks(t, 1)
	if !e.Client.Ledger.Applied(carrier1.TxHash()) {
		t.Fatal("T1 not applied after confirmation")
	}

	credOut := wire.OutPoint{Hash: carrier1.TxHash(), Index: 0}
	credentialGlobal := logic.SubstRefProp(credential, lf.TxRef(carrier1.TxHash(), ""))
	got, ok := e.Client.Ledger.ResolveOutput(credOut)
	if !ok {
		t.Fatal("credential output unknown to ledger")
	}
	if eq, _ := logic.PropEqual(got, credentialGlobal); !eq {
		t.Fatalf("credential type %s, want %s", got, credentialGlobal)
	}

	// --- Bob verifies his credential trust-free. ---
	if err := e.Client.VerifyClaim(credOut, credentialGlobal); err != nil {
		t.Fatalf("verify credential: %v", err)
	}

	// --- T2: Bob commits to a specific write with the nonce. ---
	const nonce = 0xbeef
	t2 := typecoin.NewTx()
	t2.Inputs = []typecoin.Input{{Source: credOut, Type: credentialGlobal, Amount: 10_000}}
	committed := logic.Atom(lf.TxRef(carrier1.TxHash(), "may-write-this"),
		lf.Principal(bob), lf.Nat(nonce))
	t2.Outputs = []typecoin.Output{{Type: committed, Amount: 10_000, Owner: bobPub}}
	t2.Proof = withDomain(t2.Domain(),
		proof.Apply(
			proof.TApply(proof.Const{Ref: lf.TxRef(carrier1.TxHash(), "commit")},
				lf.Principal(bob), lf.Nat(nonce)),
			proof.V("a")))

	carrier2, err := e.Client.Submit(t2)
	if err != nil {
		t.Fatalf("submit T2: %v", err)
	}
	e.MineBlocks(t, 1)
	if !e.Client.Ledger.Applied(carrier2.TxHash()) {
		t.Fatal("T2 not applied")
	}

	// --- The fileserver verifies the nonce-infused credential. ---
	commitOut := wire.OutPoint{Hash: carrier2.TxHash(), Index: 0}
	if err := e.Client.VerifyClaim(commitOut, committed); err != nil {
		t.Fatalf("fileserver verification: %v", err)
	}
	// A claim with the wrong nonce fails.
	wrong := logic.Atom(lf.TxRef(carrier1.TxHash(), "may-write-this"),
		lf.Principal(bob), lf.Nat(999))
	if err := e.Client.VerifyClaim(commitOut, wrong); err == nil {
		t.Fatal("wrong nonce verified")
	}

	// --- Double spend: the credential outpoint is consumed. ---
	if _, ok := e.Client.Ledger.ResolveOutput(credOut); ok {
		t.Error("consumed credential still resolvable")
	}
	// Even a direct Bitcoin-level double spend is rejected by the
	// mempool/chain.
	dbl := wire.NewMsgTx(wire.TxVersion)
	dbl.AddTxIn(&wire.TxIn{PreviousOutPoint: credOut, Sequence: wire.MaxTxInSequenceNum})
	dbl.AddTxOut(&wire.TxOut{Value: 1_000, PkScript: carrier1.TxOut[0].PkScript})
	if _, err := e.Pool.Accept(dbl); err == nil {
		t.Fatal("bitcoin-level double spend accepted by pool")
	}

	// And verifying the old credential now fails: it is spent.
	if err := e.Client.VerifyClaim(credOut, credentialGlobal); err == nil {
		t.Fatal("spent credential verified")
	}

	// --- Cleanup (Section 3.1): Bob cracks the resource open to recover
	// the bitcoins inside. ---
	utxoBefore := e.Chain.UtxoSize()
	metas := e.Wallet.MetadataOutpoints()
	if len(metas) == 0 {
		t.Fatal("no metadata outputs to clean up")
	}
	cleanup, err := e.Wallet.Build(nil, client.CleanupOptions(metas, bob))
	if err != nil {
		t.Fatalf("cleanup build: %v", err)
	}
	if _, err := e.Pool.Accept(cleanup); err != nil {
		t.Fatalf("cleanup rejected: %v", err)
	}
	e.MineBlocks(t, 1)
	if got := e.Chain.UtxoSize(); got > utxoBefore {
		t.Errorf("UTXO table grew across cleanup: %d -> %d", utxoBefore, got)
	}
}

func TestSubmitRejectsUnfundedAmounts(t *testing.T) {
	e := newEnv(t)
	_, owner, err := e.Client.NewPrincipal()
	if err != nil {
		t.Fatal(err)
	}
	tx := typecoin.NewTx()
	if err := tx.Basis.DeclareFam(lf.This("tok"), lf.KProp{}); err != nil {
		t.Fatal(err)
	}
	tok := logic.Atom(lf.This("tok"))
	tx.Grant = tok
	tx.Outputs = []typecoin.Output{{Type: tok, Amount: 1_000_000 * wire.SatoshiPerBitcoin, Owner: owner}}
	tx.Proof = projGrant(tx.Domain())
	if _, err := e.Client.Submit(tx); err == nil {
		t.Fatal("absurd amount funded")
	}
}

func TestLedgerSurvivesReorg(t *testing.T) {
	e := newEnv(t)
	_, owner, err := e.Client.NewPrincipal()
	if err != nil {
		t.Fatal(err)
	}
	tx := typecoin.NewTx()
	if err := tx.Basis.DeclareFam(lf.This("tok"), lf.KProp{}); err != nil {
		t.Fatal(err)
	}
	tok := logic.Atom(lf.This("tok"))
	tx.Grant = tok
	tx.Outputs = []typecoin.Output{{Type: tok, Amount: 5_000, Owner: owner}}
	tx.Proof = projGrant(tx.Domain())
	carrier, err := e.Client.Submit(tx)
	if err != nil {
		t.Fatal(err)
	}
	e.MineBlocks(t, 1)
	if !e.Client.Ledger.Applied(carrier.TxHash()) {
		t.Fatal("not applied")
	}

	// Force a reorg: a second harness mines a longer chain from genesis
	// and we feed its blocks in. The carrier drops out of the main chain;
	// the ledger must rebuild and no longer resolve the output.
	other := testutil.NewHarness(t, t.Name()+"-fork")
	other.MineBlocks(t, e.Chain.BestHeight()+2)
	for h := 1; h <= other.Chain.BestHeight(); h++ {
		blk, _ := other.Chain.BlockAtHeight(h)
		if _, err := e.Chain.ProcessBlock(blk); err != nil {
			t.Fatalf("fork block %d: %v", h, err)
		}
	}
	if e.Chain.BestHash() != other.Chain.BestHash() {
		t.Fatal("reorg did not take")
	}
	if e.Client.Ledger.Applied(carrier.TxHash()) {
		t.Error("ledger still reports orphaned carrier as applied")
	}
	op := wire.OutPoint{Hash: carrier.TxHash(), Index: 0}
	if _, ok := e.Client.Ledger.ResolveOutput(op); ok {
		t.Error("orphaned output still resolvable")
	}
}

func TestVerifyNeedsConfirmations(t *testing.T) {
	h := testutil.NewHarness(t, t.Name())
	h.Fund(t)
	ledger := typecoin.NewLedger(h.Chain, 3) // require depth 3
	c := client.New(h.Chain, h.Pool, h.Wallet, ledger)

	_, owner, err := c.NewPrincipal()
	if err != nil {
		t.Fatal(err)
	}
	tx := typecoin.NewTx()
	if err := tx.Basis.DeclareFam(lf.This("tok"), lf.KProp{}); err != nil {
		t.Fatal(err)
	}
	tok := logic.Atom(lf.This("tok"))
	tx.Grant = tok
	tx.Outputs = []typecoin.Output{{Type: tok, Amount: 5_000, Owner: owner}}
	tx.Proof = projGrant(tx.Domain())
	carrier, err := c.Submit(tx)
	if err != nil {
		t.Fatal(err)
	}
	h.MineBlocks(t, 1)
	// Depth 1 < 3: not applied yet.
	if ledger.Applied(carrier.TxHash()) {
		t.Fatal("applied too early")
	}
	h.MineBlocks(t, 2)
	if !ledger.Applied(carrier.TxHash()) {
		t.Fatal("not applied at depth 3")
	}
	// Manual Verify with a higher bar fails.
	op := wire.OutPoint{Hash: carrier.TxHash(), Index: 0}
	global := logic.SubstRefProp(tok, lf.TxRef(carrier.TxHash(), ""))
	bundles, err := ledger.UpstreamBundles(op)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := typecoin.Verify(h.Chain, op, global, bundles, 10); !errors.Is(err, typecoin.ErrCarrierUnconfirmed) {
		t.Errorf("want ErrCarrierUnconfirmed, got %v", err)
	}
	if _, err := typecoin.Verify(h.Chain, op, global, bundles, 3); err != nil {
		t.Errorf("verify at depth 3: %v", err)
	}
	// Incomplete upstream set is detected... with no bundles the claim
	// is simply unknown.
	if _, err := typecoin.Verify(h.Chain, op, global, nil, 3); err == nil {
		t.Error("verified with empty bundle set")
	}
}

func TestVerifyRejectsTamperedBundle(t *testing.T) {
	e := newEnv(t)
	_, owner, err := e.Client.NewPrincipal()
	if err != nil {
		t.Fatal(err)
	}
	tx := typecoin.NewTx()
	if err := tx.Basis.DeclareFam(lf.This("tok"), lf.KProp{}); err != nil {
		t.Fatal(err)
	}
	tok := logic.Atom(lf.This("tok"))
	tx.Grant = tok
	tx.Outputs = []typecoin.Output{{Type: tok, Amount: 5_000, Owner: owner}}
	tx.Proof = projGrant(tx.Domain())
	carrier, err := e.Client.Submit(tx)
	if err != nil {
		t.Fatal(err)
	}
	e.MineBlocks(t, 1)

	op := wire.OutPoint{Hash: carrier.TxHash(), Index: 0}
	global := logic.SubstRefProp(tok, lf.TxRef(carrier.TxHash(), ""))
	// Tamper: swap in a different typecoin tx for the same carrier.
	forged := typecoin.NewTx()
	if err := forged.Basis.DeclareFam(lf.This("tok"), lf.KProp{}); err != nil {
		t.Fatal(err)
	}
	forged.Grant = logic.Atom(lf.This("tok"))
	forged.Outputs = []typecoin.Output{{Type: forged.Grant, Amount: 5_000, Owner: owner}}
	forged.Proof = projGrant(forged.Domain())
	forged.Outputs[0].Amount = 4_999 // differs -> different hash
	bundles := []*typecoin.Bundle{{Tc: forged, Carrier: carrier.TxHash()}}
	_, err = typecoin.Verify(e.Chain, op, global, bundles, 1)
	if err == nil || !strings.Contains(err.Error(), "commits to") {
		t.Errorf("tampered bundle: %v", err)
	}
}

// TestSameBlockBasisDependency: two typecoin transactions land in the
// SAME block, where the second references (but takes no inputs from) the
// first's basis. The ledger must apply them in block order (regression
// test for the chain-order sweep).
func TestSameBlockBasisDependency(t *testing.T) {
	e := newEnv(t)
	_, owner, err := e.Client.NewPrincipal()
	if err != nil {
		t.Fatal(err)
	}
	// T0 publishes tok and a derivation rule, grants nothing.
	t0 := typecoin.NewTx()
	if err := t0.Basis.DeclareFam(lf.This("tok"), lf.KProp{}); err != nil {
		t.Fatal(err)
	}
	if err := t0.Basis.DeclareProp(lf.This("mk"),
		logic.Lolli(logic.One, logic.Atom(lf.This("tok")))); err != nil {
		t.Fatal(err)
	}
	t0.Outputs = []typecoin.Output{{Type: logic.One, Amount: 5_000, Owner: owner}}
	t0.Proof = proof.Lam{Name: "d", Ty: t0.Domain(), Body: proof.Unit{}}
	carrier0, err := e.Client.Submit(t0)
	if err != nil {
		t.Fatal(err)
	}
	// T1 derives tok via T0's rule, referencing its (unconfirmed but
	// already identified) carrier. Both go into one block.
	tokG := logic.Atom(lf.TxRef(carrier0.TxHash(), "tok"))
	t1 := typecoin.NewTx()
	t1.Outputs = []typecoin.Output{{Type: tokG, Amount: 5_000, Owner: owner}}
	t1.Proof = proof.Lam{Name: "d", Ty: t1.Domain(),
		Body: proof.Apply(proof.Const{Ref: lf.TxRef(carrier0.TxHash(), "mk")}, proof.Unit{})}
	carrier1, err := e.Client.Submit(t1)
	if err != nil {
		t.Fatal(err)
	}
	e.MineBlocks(t, 1)
	blk, _, ok := e.Chain.BlockOf(carrier0.TxHash())
	if !ok {
		t.Fatal("carrier0 not mined")
	}
	if blk2, _, _ := e.Chain.BlockOf(carrier1.TxHash()); blk2 != blk {
		t.Fatal("carriers did not land in the same block; test premise broken")
	}
	if !e.Client.Ledger.Applied(carrier0.TxHash()) || !e.Client.Ledger.Applied(carrier1.TxHash()) {
		t.Fatal("same-block dependent transactions not both applied")
	}
	// And node-C-style verification of T1's output includes T0 via the
	// basis edge.
	op := wire.OutPoint{Hash: carrier1.TxHash(), Index: 0}
	if err := e.Client.VerifyClaim(op, tokG); err != nil {
		t.Fatalf("verify with basis dependency: %v", err)
	}
	// Verify orders bundles by their carriers' places in the block, not
	// by the order it is handed them: here the reverse of block order.
	_, i0, _ := e.Chain.TxPosition(carrier0.TxHash())
	_, i1, _ := e.Chain.TxPosition(carrier1.TxHash())
	if i0 >= i1 {
		t.Fatalf("carriers at indexes %d and %d: want T0's first; test premise broken", i0, i1)
	}
	reversed := []*typecoin.Bundle{{Tc: t1, Carrier: carrier1.TxHash()}, {Tc: t0, Carrier: carrier0.TxHash()}}
	if _, err := typecoin.Verify(e.Chain, op, tokG, reversed, 1); err != nil {
		t.Fatalf("verify with bundles in reverse block order: %v", err)
	}
}

// TestAnnounceAfterMine: the ledger catches up when the typecoin
// transaction is announced only after its carrier confirmed.
func TestAnnounceAfterMine(t *testing.T) {
	e := newEnv(t)
	_, owner, err := e.Client.NewPrincipal()
	if err != nil {
		t.Fatal(err)
	}
	tx := typecoin.NewTx()
	if err := tx.Basis.DeclareFam(lf.This("tok"), lf.KProp{}); err != nil {
		t.Fatal(err)
	}
	tok := logic.Atom(lf.This("tok"))
	tx.Grant = tok
	tx.Outputs = []typecoin.Output{{Type: tok, Amount: 5_000, Owner: owner}}
	tx.Proof = projGrant(tx.Domain())
	// Build and mine the carrier WITHOUT announcing.
	outs, err := typecoin.CarrierOutputs(tx)
	if err != nil {
		t.Fatal(err)
	}
	outputs := make([]wallet.Output, len(outs))
	for i, o := range outs {
		outputs[i] = wallet.Output{Value: o.Value, PkScript: o.PkScript}
	}
	carrier, err := e.Wallet.Build(outputs, wallet.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Pool.Accept(carrier); err != nil {
		t.Fatal(err)
	}
	e.MineBlocks(t, 2)
	if e.Client.Ledger.Applied(carrier.TxHash()) {
		t.Fatal("applied without announcement")
	}
	// Late announcement: the ledger's seen-index remembers the carrier,
	// so announcing now applies immediately.
	e.Client.Ledger.Announce(tx)
	if !e.Client.Ledger.Applied(carrier.TxHash()) {
		t.Fatal("not applied after late announcement")
	}
	// A full rescan reaches the same state.
	e.Client.Ledger.Rescan()
	if !e.Client.Ledger.Applied(carrier.TxHash()) {
		t.Fatal("rescan lost the application")
	}
}

// TestHistoricalConditionSurvives: a conditional transaction valid when
// mined stays valid for later verifiers and rescans — conditions are
// judged "for [the] particular transaction in the blockchain", not at
// query time.
func TestHistoricalConditionSurvives(t *testing.T) {
	e := newEnv(t)
	_, owner, err := e.Client.NewPrincipal()
	if err != nil {
		t.Fatal(err)
	}
	expiry := uint64(e.Clock.Now().Unix()) + 3600
	tx := typecoin.NewTx()
	if err := tx.Basis.DeclareFam(lf.This("tok"), lf.KProp{}); err != nil {
		t.Fatal(err)
	}
	tok := logic.Atom(lf.This("tok"))
	tx.Grant = tok
	tx.Outputs = []typecoin.Output{{Type: tok, Amount: 5_000, Owner: owner}}
	// The proof wraps the grant in if(before(expiry), tok).
	tx.Proof = withDomain(tx.Domain(),
		proof.IfReturn{Cond: logic.Before(expiry), Of: proof.V("c")})
	carrier, err := e.Client.Submit(tx)
	if err != nil {
		t.Fatal(err)
	}
	e.MineBlocks(t, 1)
	if !e.Client.Ledger.Applied(carrier.TxHash()) {
		t.Fatal("conditional tx not applied while valid")
	}
	// Let simulated time blow far past the expiry and mine more blocks.
	e.Clock.Advance(100 * 3600 * 1e9) // 100 hours in nanoseconds
	e.MineBlocks(t, 3)

	op := wire.OutPoint{Hash: carrier.TxHash(), Index: 0}
	tokG := logic.SubstRefProp(tok, lf.TxRef(carrier.TxHash(), ""))
	// Trust-free verification still accepts: judged at the carrier's block.
	if err := e.Client.VerifyClaim(op, tokG); err != nil {
		t.Fatalf("verify after expiry: %v", err)
	}
	// A full rescan also still applies it.
	e.Client.Ledger.Rescan()
	if !e.Client.Ledger.Applied(carrier.TxHash()) {
		t.Fatal("rescan dropped the historical conditional")
	}
}

// TestClaimExportTransportVerify: Bob exports a claim, ships it as bytes
// to a fileserver running a completely separate node (same chain copy),
// and the fileserver verifies it with no shared in-memory state.
func TestClaimExportTransportVerify(t *testing.T) {
	e := newEnv(t)
	_, owner, err := e.Client.NewPrincipal()
	if err != nil {
		t.Fatal(err)
	}
	// A two-step history: issue, then transfer.
	tx := typecoin.NewTx()
	if err := tx.Basis.DeclareFam(lf.This("tok"), lf.KProp{}); err != nil {
		t.Fatal(err)
	}
	tok := logic.Atom(lf.This("tok"))
	tx.Grant = tok
	tx.Outputs = []typecoin.Output{{Type: tok, Amount: 5_000, Owner: owner}}
	tx.Proof = projGrant(tx.Domain())
	carrier0, err := e.Client.Submit(tx)
	if err != nil {
		t.Fatal(err)
	}
	e.MineBlocks(t, 1)
	tokG := logic.SubstRefProp(tok, lf.TxRef(carrier0.TxHash(), ""))
	t1 := typecoin.NewTx()
	t1.Inputs = []typecoin.Input{{Source: wire.OutPoint{Hash: carrier0.TxHash(), Index: 0},
		Type: tokG, Amount: 5_000}}
	t1.Outputs = []typecoin.Output{{Type: tokG, Amount: 5_000, Owner: owner}}
	t1.Proof = withDomain(t1.Domain(), proof.V("a"))
	carrier1, err := e.Client.Submit(t1)
	if err != nil {
		t.Fatal(err)
	}
	e.MineBlocks(t, 1)

	op := wire.OutPoint{Hash: carrier1.TxHash(), Index: 0}
	claim, err := e.Client.ExportClaim(op)
	if err != nil {
		t.Fatalf("ExportClaim: %v", err)
	}
	if len(claim.Bundles) != 2 {
		t.Fatalf("bundles = %d, want 2", len(claim.Bundles))
	}
	// Serialize, "send", deserialize.
	raw := claim.Bytes()
	received, err := typecoin.DecodeClaimBytes(raw)
	if err != nil {
		t.Fatalf("DecodeClaimBytes: %v", err)
	}
	// The fileserver verifies against its own chain (here the same chain
	// object stands in for the fileserver's synced copy; no ledger or
	// typecoin state is shared).
	if err := typecoin.VerifyClaim(e.Chain, received, 1); err != nil {
		t.Fatalf("fileserver verify: %v", err)
	}
	// A tampered claim fails: claim a different type.
	received.Type = logic.One
	if err := typecoin.VerifyClaim(e.Chain, received, 1); err == nil {
		t.Fatal("tampered claim type verified")
	}
	// Truncated bytes fail to decode.
	if _, err := typecoin.DecodeClaimBytes(raw[:len(raw)-3]); err == nil {
		t.Fatal("truncated claim decoded")
	}
}

// TestLateBasisAnnouncement: T1 (depending on T0's basis) is announced
// and confirmed BEFORE T0 is announced; the ledger must pick T1 up once
// T0 arrives.
func TestLateBasisAnnouncement(t *testing.T) {
	e := newEnv(t)
	_, owner, err := e.Client.NewPrincipal()
	if err != nil {
		t.Fatal(err)
	}
	t0 := typecoin.NewTx()
	if err := t0.Basis.DeclareFam(lf.This("tok"), lf.KProp{}); err != nil {
		t.Fatal(err)
	}
	if err := t0.Basis.DeclareProp(lf.This("mk"),
		logic.Lolli(logic.One, logic.Atom(lf.This("tok")))); err != nil {
		t.Fatal(err)
	}
	t0.Outputs = []typecoin.Output{{Type: logic.One, Amount: 5_000, Owner: owner}}
	t0.Proof = proof.Lam{Name: "d", Ty: t0.Domain(), Body: proof.Unit{}}
	// Build T0's carrier but do NOT announce T0.
	outs0, err := typecoin.CarrierOutputs(t0)
	if err != nil {
		t.Fatal(err)
	}
	wOuts := make([]wallet.Output, len(outs0))
	for i, o := range outs0 {
		wOuts[i] = wallet.Output{Value: o.Value, PkScript: o.PkScript}
	}
	carrier0, err := e.Wallet.Build(wOuts, wallet.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Pool.Accept(carrier0); err != nil {
		t.Fatal(err)
	}
	// T1 uses T0's rule; announce only T1.
	tokG := logic.Atom(lf.TxRef(carrier0.TxHash(), "tok"))
	t1 := typecoin.NewTx()
	t1.Outputs = []typecoin.Output{{Type: tokG, Amount: 5_000, Owner: owner}}
	t1.Proof = proof.Lam{Name: "d", Ty: t1.Domain(),
		Body: proof.Apply(proof.Const{Ref: lf.TxRef(carrier0.TxHash(), "mk")}, proof.Unit{})}
	carrier1, err := e.Client.Submit(t1)
	if err != nil {
		t.Fatal(err)
	}
	e.MineBlocks(t, 2)
	if e.Client.Ledger.Applied(carrier1.TxHash()) {
		t.Fatal("T1 applied without T0's basis")
	}
	// Announce T0 late: both must now apply.
	e.Client.Ledger.Announce(t0)
	if !e.Client.Ledger.Applied(carrier0.TxHash()) {
		t.Fatal("T0 not applied after late announcement")
	}
	if !e.Client.Ledger.Applied(carrier1.TxHash()) {
		t.Fatal("T1 not applied after its basis dependency arrived")
	}
}
