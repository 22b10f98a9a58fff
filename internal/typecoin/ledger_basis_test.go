package typecoin_test

// The global basis is a value: a *logic.Basis taken from the ledger keeps
// answering as it did while the ledger goes on accumulating, with no lock
// between the two, and a rebuild arrives at the basis a fresh replay does.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"typecoin/internal/chain"
	"typecoin/internal/chainhash"
	"typecoin/internal/clock"
	"typecoin/internal/lf"
	"typecoin/internal/logic"
	"typecoin/internal/store"
	"typecoin/internal/typecoin"
)

// applyGrant announces, carries and mines a declaring grant, and returns
// the constant it added to the global basis.
func (n *ledgerNode) applyGrant(t *testing.T, name string) (*typecoin.Tx, lf.Ref) {
	t.Helper()
	tx := n.grant(t, name)
	n.ledger.Announce(tx)
	carrier := n.carry(t, tx)
	n.mine(t, 1)
	if !n.ledger.Applied(carrier) {
		t.Fatalf("grant %s not applied", name)
	}
	return tx, lf.TxRef(carrier, name)
}

func TestLedgerBasisSnapshotUnderConcurrentApply(t *testing.T) {
	clk := clock.NewSimulated(chain.RegTestParams().GenesisBlock.Header.Timestamp.Add(time.Minute))
	n := openLedgerNode(t, store.NewMem(), clk)
	const later = 12
	n.mine(t, n.chain.Params().CoinbaseMaturity+later+1)
	_, first := n.applyGrant(t, "first")
	snap := n.ledger.GlobalBasis()

	// The reader type-checks against the snapshot for as long as the
	// ledger applies; every constant declared since is reported to it.
	declared := make(chan lf.Ref)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var since []lf.Ref
		failed := false // report once, and keep receiving so the sender never blocks
		for {
			select {
			case r, ok := <-declared:
				if !ok {
					return
				}
				since = append(since, r)
			default:
			}
			if err := logic.CheckProp(snap, nil, logic.Atom(first)); err != nil && !failed {
				failed = true
				t.Errorf("the snapshot lost a constant it had: %v", err)
			}
			for _, r := range since {
				if err := logic.CheckProp(snap, nil, logic.Atom(r)); err == nil && !failed {
					failed = true
					t.Errorf("the snapshot resolves %s, declared after it was taken", r)
				}
			}
		}
	}()
	var all []lf.Ref
	for i := 0; i < later; i++ {
		_, r := n.applyGrant(t, fmt.Sprint("later", i))
		all = append(all, r)
		declared <- r
	}
	close(declared)
	wg.Wait()

	now := n.ledger.GlobalBasis()
	for _, r := range append(all, first) {
		if _, ok := now.LookupFamConst(r); !ok {
			t.Errorf("the ledger's basis lacks %s", r)
		}
	}
}

func TestLedgerReorgBasisMatchesFreshReplay(t *testing.T) {
	clk := clock.NewSimulated(chain.RegTestParams().GenesisBlock.Header.Timestamp.Add(time.Minute))
	n := openLedgerNode(t, store.NewMem(), clk)
	const grants = 9
	n.mine(t, n.chain.Params().CoinbaseMaturity+grants)
	var txs []*typecoin.Tx
	var refs []lf.Ref
	for i := 0; i < grants; i++ {
		tx, r := n.applyGrant(t, fmt.Sprint("g", i))
		txs, refs = append(txs, tx), append(refs, r)
	}
	// The last three blocks give way to empty ones: their grants are
	// un-applied.
	const dropped = 3
	n.reorgAbove(t, n.chain.BestHeight()-dropped)

	fresh := typecoin.NewLedger(n.chain, 1)
	for _, tx := range txs {
		fresh.Announce(tx)
	}
	fresh.Rescan()
	got, want := n.ledger.GlobalBasis(), fresh.GlobalBasis()
	probes := append(refs, lf.This("g0"), lf.Global("nat"), lf.TxRef(chainhash.Hash{}, "g0"))
	for i, r := range probes {
		_, gok := got.LookupFamConst(r)
		_, wok := want.LookupFamConst(r)
		if gok != wok {
			t.Errorf("after the reorg %s resolves %v, in a fresh replay %v", r, gok, wok)
		}
		if i < grants && wok != (i < grants-dropped) {
			t.Errorf("grant %d resolves %v in the fresh replay", i, wok)
		}
		_, gok = got.LookupTermConst(r)
		_, wok = want.LookupTermConst(r)
		_, gpk := got.LookupProp(r)
		_, wpk := want.LookupProp(r)
		if gok != wok || gpk != wpk {
			t.Errorf("after the reorg %s resolves as term %v, proof %v; in a fresh replay %v, %v", r, gok, gpk, wok, wpk)
		}
	}
	if err := n.ledger.AuditAffine(); err != nil {
		t.Fatal(err)
	}
}
