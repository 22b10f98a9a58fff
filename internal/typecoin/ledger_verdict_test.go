package typecoin_test

// The ledger's verdict map: the closed half of a transaction's check (its
// proof inferred against Σ) is done once between submit and connect, and
// remembering it never lets anything through that a full check refuses.

import (
	"errors"
	"testing"
	"time"

	"typecoin/internal/chain"
	"typecoin/internal/chainhash"
	"typecoin/internal/clock"
	"typecoin/internal/logic"
	"typecoin/internal/proof"
	"typecoin/internal/store"
	"typecoin/internal/typecoin"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

// verdictNode is a ledger node with two granted tokens, "tok" and
// "other", each in output 0 of its applied carrier.
type verdictNode struct {
	*ledgerNode
	tok, other       logic.Prop
	tokOut, otherOut wire.OutPoint
}

func newVerdictNode(t *testing.T) *verdictNode {
	t.Helper()
	clk := clock.NewSimulated(chain.RegTestParams().GenesisBlock.Header.Timestamp.Add(time.Minute))
	n := &verdictNode{ledgerNode: openLedgerNode(t, store.NewMem(), clk)}
	n.mine(t, n.chain.Params().CoinbaseMaturity+8)
	_, tokRef := n.applyGrant(t, "tok")
	_, otherRef := n.applyGrant(t, "other")
	n.tok, n.other = logic.Atom(tokRef), logic.Atom(otherRef)
	n.tokOut = wire.OutPoint{Hash: tokRef.Tx}
	n.otherOut = wire.OutPoint{Hash: otherRef.Tx}
	return n
}

// transfer moves the typed output src, claimed to have type ty, to the
// node's owner. It declares nothing, so applying it leaves Σ as it is.
func (n *verdictNode) transfer(src wire.OutPoint, ty logic.Prop) *typecoin.Tx {
	tx := typecoin.NewTx()
	tx.Inputs = []typecoin.Input{{Source: src, Type: ty, Amount: 5_000}}
	tx.Outputs = []typecoin.Output{{Type: ty, Amount: 5_000, Owner: n.owner}}
	tx.Proof = proof.Lam{Name: "d", Ty: tx.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("a")}}}
	return tx
}

// carrySpending puts tx's carrier, which spends tx's typed inputs, into
// the mempool.
func (n *verdictNode) carrySpending(t *testing.T, tx *typecoin.Tx) chainhash.Hash {
	t.Helper()
	outs, err := typecoin.CarrierOutputs(tx)
	if err != nil {
		t.Fatal(err)
	}
	wOuts := make([]wallet.Output, len(outs))
	for i, o := range outs {
		wOuts[i] = wallet.Output{Value: o.Value, PkScript: o.PkScript}
	}
	var extra []wire.OutPoint
	for _, in := range tx.Inputs {
		extra = append(extra, in.Source)
	}
	carrier, err := n.wallet.Build(wOuts, wallet.BuildOptions{ExtraInputs: extra})
	if err != nil {
		t.Fatalf("build carrier: %v", err)
	}
	if _, err := n.pool.Accept(carrier); err != nil {
		t.Fatalf("accept carrier: %v", err)
	}
	return carrier.TxHash()
}

func TestVerdictProofInferredOnceFromSubmitToConnect(t *testing.T) {
	n := newVerdictNode(t)
	closed := typecoin.CountClosedChecks(t)

	x := n.transfer(n.tokOut, n.tok)
	if err := n.ledger.CheckInstance(x); err != nil {
		t.Fatalf("CheckInstance: %v", err)
	}
	if got := closed.Load(); got != 1 {
		t.Fatalf("CheckInstance ran the closed check %d times, want 1", got)
	}
	if err := n.ledger.CheckInstance(x); err != nil || closed.Load() != 1 {
		t.Fatalf("second CheckInstance: err %v, %d closed checks, want nil and 1", err, closed.Load())
	}
	n.ledger.Announce(x)
	carrier := n.carrySpending(t, x)
	n.mine(t, 1)
	if !n.ledger.Applied(carrier) {
		t.Fatal("transfer not applied")
	}
	if got := closed.Load(); got != 1 {
		t.Errorf("closed check ran %d times between submit and connect, want 1", got)
	}
	if got := n.ledger.VerdictCount(); got != 0 {
		t.Errorf("%d verdicts left after the transfer applied, want 0", got)
	}

	// A transaction the sweep meets unchecked is checked there, once.
	y := n.transfer(n.otherOut, n.other)
	n.ledger.Announce(y)
	carrier = n.carrySpending(t, y)
	n.mine(t, 1)
	if !n.ledger.Applied(carrier) || closed.Load() != 2 {
		t.Errorf("unchecked transfer: applied %v after %d closed checks, want true after 2", n.ledger.Applied(carrier), closed.Load())
	}
	if err := n.ledger.AuditAffine(); err != nil {
		t.Fatal(err)
	}
}

func TestVerdictMissesWhenSigmaGrows(t *testing.T) {
	n := newVerdictNode(t)
	x := n.transfer(n.tokOut, n.tok)
	if err := n.ledger.CheckInstance(x); err != nil {
		t.Fatalf("CheckInstance: %v", err)
	}
	sigma := n.ledger.GlobalBasis()
	n.applyGrant(t, "between") // declares a constant: Σ is a new basis
	if n.ledger.GlobalBasis() == sigma {
		t.Fatal("a declaring transaction left the global basis pointer unchanged")
	}

	closed := typecoin.CountClosedChecks(t)
	n.ledger.Announce(x)
	carrier := n.carrySpending(t, x)
	n.mine(t, 1)
	if !n.ledger.Applied(carrier) {
		t.Fatal("transfer not applied")
	}
	if got := closed.Load(); got != 1 {
		t.Errorf("closed check ran %d times under the grown Σ, want 1 (the verdict was for the old one)", got)
	}
	if got := n.ledger.VerdictCount(); got != 0 {
		t.Errorf("%d verdicts left, want 0", got)
	}
}

func TestVerdictDoesNotHideAConsumedInput(t *testing.T) {
	n := newVerdictNode(t)
	x := n.transfer(n.tokOut, n.tok)
	if err := n.ledger.CheckInstance(x); err != nil {
		t.Fatalf("CheckInstance: %v", err)
	}
	// y consumes the same typed output first. Its proof names its
	// hypotheses differently, so it is another transaction.
	y := n.transfer(n.tokOut, n.tok)
	y.Proof = proof.Lam{Name: "dom", Ty: y.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("dom"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("a")}}}
	if x.Hash() == y.Hash() {
		t.Fatal("x and y are one transaction")
	}
	n.ledger.Announce(y)
	carrier := n.carrySpending(t, y)
	n.mine(t, 1)
	if !n.ledger.Applied(carrier) {
		t.Fatal("y not applied")
	}

	closed := typecoin.CountClosedChecks(t)
	if err := n.ledger.CheckInstance(x); !errors.Is(err, typecoin.ErrInputUnknown) {
		t.Errorf("CheckInstance after the input was consumed: %v, want ErrInputUnknown", err)
	}
	if got := closed.Load(); got != 0 {
		t.Errorf("the refusal ran the closed check %d times; it should have come from the open half on a warm verdict", got)
	}
}

func TestVerdictDroppedByReorg(t *testing.T) {
	n := newVerdictNode(t)
	n.mine(t, 1)
	x := n.transfer(n.tokOut, n.tok)
	if err := n.ledger.CheckInstance(x); err != nil {
		t.Fatalf("CheckInstance: %v", err)
	}
	if got := n.ledger.VerdictCount(); got != 1 {
		t.Fatalf("%d verdicts after one check, want 1", got)
	}
	n.reorgAbove(t, n.chain.BestHeight()-1) // the grants stay below the fork
	if got := n.ledger.VerdictCount(); got != 0 {
		t.Fatalf("%d verdicts survive the reorg, want 0", got)
	}
	closed := typecoin.CountClosedChecks(t)
	if err := n.ledger.CheckInstance(x); err != nil || closed.Load() != 1 {
		t.Errorf("CheckInstance after the reorg: err %v, %d closed checks; want nil and a fresh check", err, closed.Load())
	}
}

func TestVerdictWarmMapStillRefusesForgedProofAndWrongType(t *testing.T) {
	n := newVerdictNode(t)
	x := n.transfer(n.tokOut, n.tok)
	if err := n.ledger.CheckInstance(x); err != nil {
		t.Fatalf("CheckInstance: %v", err)
	}

	// The same transaction with a proof that hands back the (unit) grant
	// where the token should go: another hash, so x's verdict is not its.
	forged := n.transfer(n.tokOut, n.tok)
	forged.Proof = proof.Lam{Name: "d", Ty: forged.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("c")}}}
	if err := n.ledger.CheckInstance(forged); !errors.Is(err, typecoin.ErrProofWrongType) {
		t.Errorf("forged proof: %v, want ErrProofWrongType", err)
	}
	// Forging x in place after it was checked: the verdict is kept under
	// the hash of the bytes that were checked, which x no longer has.
	good := x.Proof
	x.Proof = forged.Proof
	if err := n.ledger.CheckInstance(x); !errors.Is(err, typecoin.ErrProofWrongType) {
		t.Errorf("proof forged after the check: %v, want ErrProofWrongType", err)
	}
	x.Proof = good

	// A transfer that claims the tok output has type other balances on its
	// own terms, so its closed half passes and is remembered; the open
	// half refuses it every time.
	closed := typecoin.CountClosedChecks(t)
	wrong := n.transfer(n.tokOut, n.other)
	for i := 0; i < 2; i++ {
		if err := n.ledger.CheckInstance(wrong); !errors.Is(err, typecoin.ErrInputTypeWrong) {
			t.Errorf("wrong input type, check %d: %v, want ErrInputTypeWrong", i+1, err)
		}
	}
	if got := closed.Load(); got != 1 {
		t.Errorf("closed check ran %d times for two checks of one transaction, want 1", got)
	}
	// Announced and mined, it stays unapplied and its input unconsumed.
	n.ledger.Announce(wrong)
	carrier := n.carrySpending(t, wrong)
	n.mine(t, 1)
	if n.ledger.Applied(carrier) {
		t.Error("a transaction with the wrong input type was applied")
	}
	if _, ok := n.ledger.ResolveOutput(n.tokOut); !ok {
		t.Error("the refused transaction consumed its input")
	}
}
