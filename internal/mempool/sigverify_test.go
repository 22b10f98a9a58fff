package mempool_test

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"typecoin/internal/bkey"
	"typecoin/internal/par"
	"typecoin/internal/script"
	"typecoin/internal/sigcache"
	"typecoin/internal/testutil"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

// TestEverySignatureVerifiedOnce admits a block's worth of P2PKH spends
// under three keys, then mines them. Admission must fully verify each
// signature once, through crypto/ecdsa or the key's precomputed table,
// and record one verdict per spend; the block connect must then make no
// script job and verify no signature, and drop the verdicts it used.
func TestEverySignatureVerifiedOnce(t *testing.T) {
	const perKey = 3
	h, reg := verdictHarness(t, sigcache.DefaultCapacity)
	var keys []bkey.Principal
	var outs []wallet.Output
	for i := 0; i < 3; i++ {
		k, err := h.Wallet.NewKey()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
		for j := 0; j < perKey; j++ {
			outs = append(outs, wallet.Output{Value: 1_0000_0000, PkScript: script.PayToPubKeyHash(k)})
		}
	}
	fanout, err := h.Wallet.Build(outs, wallet.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Pool.Accept(fanout); err != nil {
		t.Fatal(err)
	}
	h.MineBlocks(t, 1)

	sc := h.Chain.SigCache()
	verify0 := bkey.ReadVerifyStats()
	for i := range outs {
		tx, err := h.Wallet.Build([]wallet.Output{
			{Value: 5000_0000, PkScript: script.PayToPubKeyHash(keys[i%len(keys)])},
		}, wallet.BuildOptions{ExtraInputs: []wire.OutPoint{{Hash: fanout.TxHash(), Index: uint32(i)}}})
		if err != nil {
			t.Fatal(err)
		}
		if len(tx.TxIn) != 1 {
			t.Fatalf("spend %d has %d inputs, want 1", i, len(tx.TxIn))
		}
		if _, err := h.Pool.Accept(tx); err != nil {
			t.Fatalf("Accept spend %d: %v", i, err)
		}
	}
	cache1, verify1 := sc.Stats(), bkey.ReadVerifyStats()
	if verified := verifies(verify0, verify1); verified != uint64(len(outs)) || cache1.Size != len(outs) {
		t.Errorf("admitting %d spends: %d full verifications, %d verdicts; want %d of each",
			len(outs), verified, cache1.Size, len(outs))
	}
	if verify1.TableVerifies == verify0.TableVerifies {
		t.Errorf("no spend under a repeated key used its table: %+v -> %+v", verify0, verify1)
	}

	jobs1 := scriptJobs(t, reg)
	h.MineBlocks(t, 1)
	if n := h.Pool.Size(); n != 0 {
		t.Fatalf("%d spends still pooled after mining", n)
	}
	cache2, verify2 := sc.Stats(), bkey.ReadVerifyStats()
	if jobs := scriptJobs(t, reg) - jobs1; jobs != 0 {
		t.Errorf("block connect made %d script jobs, want 0", jobs)
	}
	if n := verifies(verify1, verify2); n != 0 {
		t.Errorf("block connect verified %d signatures: %+v -> %+v", n, verify1, verify2)
	}
	if hits := cache2.Hits - cache1.Hits; hits != uint64(len(outs)) || cache2.Misses != cache1.Misses || cache2.Size != 0 {
		t.Errorf("block connect: %d hits, %d misses, %d verdicts left; want %d, 0 and 0",
			hits, cache2.Misses-cache1.Misses, cache2.Size, len(outs))
	}
}

// coinsTo pays n outputs of 0.01 coin each to one new wallet key
// and mines them, returning the key and the outpoints.
func coinsTo(t *testing.T, h *testutil.Harness, n int) (bkey.Principal, []wire.OutPoint) {
	t.Helper()
	k, err := h.Wallet.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]wallet.Output, n)
	for i := range outs {
		outs[i] = wallet.Output{Value: 100_0000, PkScript: script.PayToPubKeyHash(k)}
	}
	fanout, err := h.Wallet.Build(outs, wallet.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Pool.Accept(fanout); err != nil {
		t.Fatal(err)
	}
	h.MineBlocks(t, 1)
	ops := make([]wire.OutPoint, n)
	for i := range ops {
		ops[i] = wire.OutPoint{Hash: fanout.TxHash(), Index: uint32(i)}
	}
	return k, ops
}

// withProcs sets GOMAXPROCS for the rest of the test.
func withProcs(t *testing.T, procs int) {
	old := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestLowestFailingInputReported refuses a 3-input transaction whose
// inputs 1 and 2 are both bad: input 1 carries input 0's signature, so
// it fails only after a full verification; input 2 names another key,
// so it fails at once. Whatever the interleaving, admission reports
// input 1's error, as a serial check would.
func TestLowestFailingInputReported(t *testing.T) {
	h := fundedHarness(t)
	k, ops := coinsTo(t, h, 3)
	tx, err := h.Wallet.Build([]wallet.Output{{Value: 200_0000, PkScript: script.PayToPubKeyHash(k)}},
		wallet.BuildOptions{ExtraInputs: ops})
	if err != nil {
		t.Fatal(err)
	}
	if len(tx.TxIn) != 3 {
		t.Fatalf("payment has %d inputs, want 3", len(tx.TxIn))
	}
	other, err := bkey.NewPrivateKey(testutil.NewEntropy("other"))
	if err != nil {
		t.Fatal(err)
	}
	tx.TxIn[1].SignatureScript = tx.TxIn[0].SignatureScript
	wrongKey, err := script.NewBuilder().AddData([]byte{0x30}).AddData(other.PubKey().Serialize()).Script()
	if err != nil {
		t.Fatal(err)
	}
	tx.TxIn[2].SignatureScript = wrongKey
	tx.InvalidateCache()
	for _, procs := range []int{1, 2, 4} {
		withProcs(t, procs)
		for round := 0; round < 20; round++ {
			_, err := h.Pool.Accept(tx)
			if !errors.Is(err, script.ErrEvalFalse) {
				t.Fatalf("GOMAXPROCS=%d round %d: got %v, want input 1's %v", procs, round, err, script.ErrEvalFalse)
			}
		}
	}
}

// TestEarlyFailureStopsVerification refuses a 64-input transaction whose
// input 0 carries input 1's signature, so it fails after one full
// verification, while a par helper that was already polling joins the
// check at once. The refusal returns input 0's error, and the failure
// stops the check before it has verified every input. How many inputs
// the other workers verify meanwhile depends on how the operating
// system schedules them, so par's own test holds the exact bound
// (TestDoFailureStopsClaimsExactly: GOMAXPROCS indices); here a worker
// descheduled during its check can let the others verify every input,
// so each GOMAXPROCS gets five attempts, each a freshly signed
// transaction, and one must stop early; without the stop every attempt
// verifies all 64.
func TestEarlyFailureStopsVerification(t *testing.T) {
	const inputs = 64
	h := fundedHarness(t)
	k, ops := coinsTo(t, h, inputs)
	attempts := 0
	refuse := func() uint64 {
		attempts++
		tx, err := h.Wallet.Build([]wallet.Output{{Value: 6000_0000 + int64(attempts), PkScript: script.PayToPubKeyHash(k)}},
			wallet.BuildOptions{ExtraInputs: ops})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Wallet.Unlock(tx)
		if len(tx.TxIn) != inputs {
			t.Fatalf("payment has %d inputs, want %d", len(tx.TxIn), inputs)
		}
		tx.TxIn[0].SignatureScript = tx.TxIn[1].SignatureScript
		tx.InvalidateCache()
		// A helper started by these calls is polling when Accept calls Do.
		for start := time.Now(); time.Since(start) < 2*time.Millisecond; {
			par.Do(2, func(int) error { return nil })
		}
		before := bkey.ReadVerifyStats()
		if _, err := h.Pool.Accept(tx); !errors.Is(err, script.ErrEvalFalse) {
			t.Fatalf("got %v, want input 0's %v", err, script.ErrEvalFalse)
		}
		after := bkey.ReadVerifyStats()
		return after.ColdVerifies - before.ColdVerifies + after.TableVerifies - before.TableVerifies
	}
	for _, procs := range []int{1, 2, 4} {
		withProcs(t, procs)
		var costs []uint64
		for len(costs) < 5 {
			costs = append(costs, refuse())
			if costs[len(costs)-1] < inputs {
				break
			}
		}
		if last := costs[len(costs)-1]; last >= inputs {
			t.Errorf("GOMAXPROCS=%d: refusing input 0 cost %v signature verifications in five attempts, want fewer than %d in one", procs, costs, inputs)
		}
	}
}
