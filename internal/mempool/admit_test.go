package mempool_test

import (
	"errors"
	"sync"
	"testing"

	"typecoin/internal/bkey"
	"typecoin/internal/mempool"
	"typecoin/internal/script"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

// Admission verifies scripts outside the pool lock: the txid is in
// flight meanwhile, and the inputs are resolved again before the insert
// if the pool or the chain changed. These tests hold that rule.

// spendsOf builds n payments that each spend op alone, n different
// transactions in conflict with each other.
func spendsOf(t *testing.T, w *wallet.Wallet, k bkey.Principal, op wire.OutPoint, n int) []*wire.MsgTx {
	t.Helper()
	txs := make([]*wire.MsgTx, n)
	for i := range txs {
		tx, err := w.Build([]wallet.Output{{Value: 50_0000 + int64(i), PkScript: script.PayToPubKeyHash(k)}},
			wallet.BuildOptions{ExtraInputs: []wire.OutPoint{op}})
		if err != nil {
			t.Fatal(err)
		}
		w.Unlock(tx)
		if len(tx.TxIn) != 1 {
			t.Fatalf("spend %d has %d inputs, want 1", i, len(tx.TxIn))
		}
		txs[i] = tx
	}
	return txs
}

// TestConflictingAdmissionsOneWins admits eight spends of one outpoint
// from eight goroutines at once: in the first round all eight are in
// flight together before any verifies, in the second they run as the
// scheduler lets them. Exactly one is admitted, every other is refused
// as a pool conflict, one verdict is recorded, and the pool's spend
// claims match its transactions.
func TestConflictingAdmissionsOneWins(t *testing.T) {
	const n = 8
	h := fundedHarness(t)
	k, ops := coinsTo(t, h, 2)
	sc := h.Chain.SigCache()
	for round, together := range []bool{true, false} {
		txs := spendsOf(t, h.Wallet, k, ops[round], n)
		var inFlight sync.WaitGroup
		inFlight.Add(n)
		h.Pool.SetBetweenPhases(nil)
		if together {
			h.Pool.SetBetweenPhases(func() {
				inFlight.Done()
				inFlight.Wait()
			})
		}
		size0 := sc.Stats().Size
		errs := make([]error, n)
		start := make(chan struct{})
		var done sync.WaitGroup
		for i := range txs {
			done.Add(1)
			go func(i int) {
				defer done.Done()
				<-start
				_, errs[i] = h.Pool.Accept(txs[i])
			}(i)
		}
		close(start)
		done.Wait()
		admitted := 0
		for i, err := range errs {
			switch {
			case err == nil:
				admitted++
				if !h.Pool.Have(txs[i].TxHash()) {
					t.Errorf("round %d: spend %d admitted but not pooled", round, i)
				}
			case !errors.Is(err, mempool.ErrPoolConflict):
				t.Errorf("round %d: spend %d: %v, want %v", round, i, err, mempool.ErrPoolConflict)
			}
		}
		if admitted != 1 {
			t.Errorf("round %d: %d spends of one outpoint admitted, want 1", round, admitted)
		}
		if got := sc.Stats().Size - size0; got != 1 {
			t.Errorf("round %d: %d verdicts recorded, want 1", round, got)
		}
		if err := h.Pool.CheckSpends(); err != nil {
			t.Errorf("round %d: %v", round, err)
		}
	}
	if n := h.Pool.Size(); n != 2 {
		t.Errorf("%d transactions pooled, want 2", n)
	}
}

// TestBlockBetweenPhasesRefusesAdmission connects a block that spends
// a payment's input while the payment is in flight. The admission
// resolves its inputs again, finds the output spent and refuses the
// payment, and the verdict set keeps nothing of it.
func TestBlockBetweenPhasesRefusesAdmission(t *testing.T) {
	h := fundedHarness(t)
	k, ops := coinsTo(t, h, 1)
	txs := spendsOf(t, h.Wallet, k, ops[0], 2)
	payment, rival := txs[0], txs[1]
	sc := h.Chain.SigCache()
	fired := false
	h.Pool.SetBetweenPhases(func() {
		if fired {
			return
		}
		fired = true
		if _, err := h.Pool.Accept(rival); err != nil {
			t.Errorf("rival spend while the payment is in flight: %v", err)
		}
		h.MineBlocks(t, 1)
	})
	_, err := h.Pool.Accept(payment)
	if !errors.Is(err, mempool.ErrOrphanTx) {
		t.Fatalf("payment whose input a block spent in flight: %v, want %v", err, mempool.ErrOrphanTx)
	}
	if _, onChain := h.Chain.TxByID(rival.TxHash()); !onChain {
		t.Fatal("the rival spend was not mined")
	}
	if h.Pool.Have(payment.TxHash()) || h.Pool.Size() != 0 {
		t.Errorf("pool holds %d transactions after the refusal, the payment %v; want none",
			h.Pool.Size(), h.Pool.Have(payment.TxHash()))
	}
	if sc.Exists(payment.TxHash()) || sc.Stats().Size != 0 {
		t.Errorf("verdict set holds %d verdicts, the payment's %v; want none",
			sc.Stats().Size, sc.Exists(payment.TxHash()))
	}
	if err := h.Pool.CheckSpends(); err != nil {
		t.Error(err)
	}
}

// TestInFlightDuplicateVerifiesNothing submits a payment a second time
// while its first admission is in flight. The second is refused as a
// duplicate without a signature verification, Have reports the txid
// meanwhile, and only the first admission pools it.
func TestInFlightDuplicateVerifiesNothing(t *testing.T) {
	h := fundedHarness(t)
	tx := payment(t, h)
	txid := tx.TxHash()
	fired := false
	h.Pool.SetBetweenPhases(func() {
		if fired {
			return
		}
		fired = true
		before := bkey.ReadVerifyStats()
		if _, err := h.Pool.Accept(tx); !errors.Is(err, mempool.ErrAlreadyKnown) {
			t.Errorf("second admission in flight: %v, want %v", err, mempool.ErrAlreadyKnown)
		}
		if n := verifies(before, bkey.ReadVerifyStats()); n != 0 {
			t.Errorf("second admission in flight verified %d signatures, want 0", n)
		}
		if !h.Pool.Have(txid) {
			t.Error("Have does not report a txid in flight")
		}
		if _, pooled := h.Pool.Tx(txid); pooled || h.Pool.Size() != 0 {
			t.Error("a transaction in flight is already pooled")
		}
	})
	if _, err := h.Pool.Accept(tx); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("the admission never reached its verification")
	}
	if _, pooled := h.Pool.Tx(txid); !pooled || h.Pool.Size() != 1 {
		t.Fatalf("pool holds %d transactions, the payment %v; want it alone", h.Pool.Size(), pooled)
	}
}
