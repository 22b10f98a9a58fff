package mempool_test

import (
	"bytes"
	"testing"
	"time"

	"typecoin/internal/bkey"
	"typecoin/internal/chain"
	"typecoin/internal/clock"
	"typecoin/internal/mempool"
	"typecoin/internal/miner"
	"typecoin/internal/script"
	"typecoin/internal/sigcache"
	"typecoin/internal/telemetry"
	"typecoin/internal/testutil"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

// The chain runs no script of a transaction the mempool admitted: the
// verdict set holds its txid. These tests hold the edges of that rule.

// verdictHarness is a funded harness whose chain keeps at most capacity
// verdicts and counts its script jobs in the returned registry.
func verdictHarness(t *testing.T, capacity int) (*testutil.Harness, *telemetry.Registry) {
	t.Helper()
	params := chain.RegTestParams()
	clk := clock.NewSimulated(params.GenesisBlock.Header.Timestamp.Add(time.Minute))
	c, err := chain.Open(chain.Config{Params: params, Clock: clk, SigCache: sigcache.New(capacity)})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c.SetTelemetry(reg, nil)
	pool := mempool.New(c, -1)
	w := wallet.New(c, testutil.NewEntropy(t.Name()))
	minerKey, err := w.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	h := &testutil.Harness{Params: params, Clock: clk, Chain: c, Pool: pool,
		Miner: miner.New(c, pool, clk), Wallet: w, MinerKey: minerKey}
	h.Fund(t)
	return h, reg
}

// scriptJobs reads the chain's script-job counter.
func scriptJobs(t *testing.T, reg *telemetry.Registry) uint64 {
	t.Helper()
	v, ok := reg.Value("chain_script_jobs_total")
	if !ok {
		t.Fatal("chain_script_jobs_total not registered")
	}
	return uint64(v)
}

// verifies counts the full signature verifications between two reads.
func verifies(before, after bkey.VerifyStats) uint64 {
	return after.ColdVerifies - before.ColdVerifies + after.TableVerifies - before.TableVerifies
}

// payment builds a 1-input payment from the harness wallet.
func payment(t *testing.T, h *testutil.Harness) *wire.MsgTx {
	t.Helper()
	dest, err := h.Wallet.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	tx, err := h.Wallet.Build([]wallet.Output{{Value: 1_0000_0000, PkScript: script.PayToPubKeyHash(dest)}},
		wallet.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tx.TxIn) != 1 {
		t.Fatalf("payment has %d inputs, want 1", len(tx.TxIn))
	}
	return tx
}

// admit builds a payment and admits it to the pool.
func admit(t *testing.T, h *testutil.Harness) *wire.MsgTx {
	t.Helper()
	tx := payment(t, h)
	if _, err := h.Pool.Accept(tx); err != nil {
		t.Fatal(err)
	}
	return tx
}

// blockOf builds and solves a block on the tip carrying txs after the
// coinbase the miner would pay for the pool's transactions, so txs must
// pay no more in fees than the pool does.
func blockOf(t *testing.T, h *testutil.Harness, txs ...*wire.MsgTx) *wire.MsgBlock {
	t.Helper()
	h.Clock.Advance(h.Params.TargetSpacing)
	blk, err := h.Miner.BuildBlock(h.MinerKey)
	if err != nil {
		t.Fatal(err)
	}
	blk.Transactions = append(blk.Transactions[:1], txs...)
	blk.Header.MerkleRoot = wire.ComputeMerkleRoot(blk.Transactions)
	if err := miner.SolveBlock(blk); err != nil {
		t.Fatal(err)
	}
	return blk
}

// twinOf returns a copy of tx whose first input's DER signature is
// rewritten by edit (given the push of DER || hash type, the length
// byte excluded), under another txid.
func twinOf(t *testing.T, tx *wire.MsgTx, edit func(der []byte) []byte) *wire.MsgTx {
	t.Helper()
	var twin wire.MsgTx
	if err := twin.Deserialize(bytes.NewReader(tx.Bytes())); err != nil {
		t.Fatal(err)
	}
	// A P2PKH signature script: a push of DER || hash type, then one of
	// the key.
	ss := twin.TxIn[0].SignatureScript
	n := int(ss[0])
	if n >= 0x4c || ss[1] != 0x30 || int(ss[2]) != n-3 {
		t.Fatalf("unexpected signature script %x", ss)
	}
	sig := edit(append([]byte(nil), ss[1:n+1]...))
	twin.TxIn[0].SignatureScript = append(append([]byte{byte(len(sig))}, sig...), ss[n+1:]...)
	twin.InvalidateCache()
	if twin.TxHash() == tx.TxHash() {
		t.Fatal("the twin has its original's txid")
	}
	return &twin
}

// padded gains a byte inside the SEQUENCE, after S, which the signature
// parser ignores: a third party's valid twin.
func padded(der []byte) []byte {
	n := len(der)
	out := append([]byte{0x30, der[1] + 1}, der[2:n-1]...) // R and S
	return append(out, 0x00, der[n-1])                     // the pad, the hash type
}

// corrupted flips a bit of S: the signature still parses and fails.
func corrupted(der []byte) []byte {
	der[len(der)-2] ^= 1
	return der
}

// TestTwinOfAdmittedTxVerifiedInFull mines twins of an admitted
// transaction instead of it. A twin with a corrupted signature misses
// the verdict set, fails, and the block is rolled back with the
// original's verdict kept; a twin with its signature padded misses too
// and connects after a full verification of its input, and the original,
// now conflicted, leaves the pool and the verdict set.
func TestTwinOfAdmittedTxVerifiedInFull(t *testing.T) {
	h, reg := verdictHarness(t, sigcache.DefaultCapacity)
	tx := admit(t, h)
	sc := h.Chain.SigCache()

	tip, utxos := h.Chain.BestHash(), h.Chain.UtxoSize()
	verify0 := bkey.ReadVerifyStats()
	status, err := h.Chain.ProcessBlock(blockOf(t, h, twinOf(t, tx, corrupted)))
	if status != chain.StatusInvalid || err == nil {
		t.Fatalf("block with a corrupted twin: status %v, err %v; want invalid", status, err)
	}
	if h.Chain.BestHash() != tip || h.Chain.UtxoSize() != utxos {
		t.Fatal("the rejected block left a trace in the tip or the UTXO table")
	}
	if n := verifies(verify0, bkey.ReadVerifyStats()); n != 1 {
		t.Errorf("the corrupted twin cost %d signature verifications, want 1", n)
	}
	if st := sc.Stats(); st.Size != 1 {
		t.Fatalf("%d verdicts after the rejected twin, want the original's 1", st.Size)
	}

	twin := twinOf(t, tx, padded)
	jobs1, verify1 := scriptJobs(t, reg), bkey.ReadVerifyStats()
	if _, err := h.Chain.ProcessBlock(blockOf(t, h, twin)); err != nil {
		t.Fatalf("block with a padded twin: %v", err)
	}
	if _, ok := h.Chain.TxByID(twin.TxHash()); !ok {
		t.Fatal("the padded twin is not on the chain")
	}
	if jobs := scriptJobs(t, reg) - jobs1; jobs != 1 {
		t.Errorf("the padded twin made %d script jobs, want 1", jobs)
	}
	if n := verifies(verify1, bkey.ReadVerifyStats()); n != 1 {
		t.Errorf("the padded twin cost %d signature verifications, want 1", n)
	}
	// The original conflicts with the confirmed twin and can never be
	// mined: the pool evicts it, and its verdict leaves with it.
	if h.Pool.Have(tx.TxHash()) {
		t.Error("the original is still pooled after its twin confirmed")
	}
	if st := sc.Stats(); st.Size != 0 {
		t.Errorf("%d verdicts after the padded twin connected, want 0", st.Size)
	}
}

// TestEvictedVerdictVerifiedInFull admits two payments into a set bounded
// to one verdict, so the first is evicted, and mines both: connect
// verifies the evicted one in full and runs nothing for the other.
func TestEvictedVerdictVerifiedInFull(t *testing.T) {
	h, reg := verdictHarness(t, 1)
	h.MineBlocks(t, 1) // a second mature coinbase for the second payment
	evicted := admit(t, h)
	kept := admit(t, h)
	sc := h.Chain.SigCache()
	if st := sc.Stats(); st.Size != 1 || st.Evictions == 0 {
		t.Fatalf("verdict set %+v, want one entry after an eviction", st)
	}

	jobs0, verify0 := scriptJobs(t, reg), bkey.ReadVerifyStats()
	blk, _, err := h.Miner.Mine(h.MinerKey)
	if err != nil {
		t.Fatal(err)
	}
	if len(blk.Transactions) != 3 {
		t.Fatalf("block has %d transactions, want coinbase and both payments", len(blk.Transactions))
	}
	if jobs := scriptJobs(t, reg) - jobs0; jobs != uint64(len(evicted.TxIn)) {
		t.Errorf("connect made %d script jobs, want the evicted payment's %d", jobs, len(evicted.TxIn))
	}
	if n := verifies(verify0, bkey.ReadVerifyStats()); n != uint64(len(evicted.TxIn)) {
		t.Errorf("connect verified %d signatures, want %d", n, len(evicted.TxIn))
	}
	if sc.Stats().Size != 0 {
		t.Errorf("the kept payment's verdict %s outlived its block", kept.TxHash())
	}
}

// TestRejectedBlockConsumesNoVerdict connects a block that carries an
// admitted payment beside a payment whose signature fails. The block is
// rejected and the admitted payment's verdict stays, so the next block,
// which carries it alone, connects it with no script job.
func TestRejectedBlockConsumesNoVerdict(t *testing.T) {
	h, reg := verdictHarness(t, sigcache.DefaultCapacity)
	h.MineBlocks(t, 1) // a second mature coinbase for the bad payment
	good := admit(t, h)
	bad := twinOf(t, payment(t, h), corrupted)

	tip := h.Chain.BestHash()
	status, err := h.Chain.ProcessBlock(blockOf(t, h, good, bad))
	if status != chain.StatusInvalid || err == nil {
		t.Fatalf("block with a failing payment: status %v, err %v; want invalid", status, err)
	}
	if h.Chain.BestHash() != tip {
		t.Fatal("the rejected block moved the tip")
	}
	if _, ok := h.Chain.TxByID(good.TxHash()); ok {
		t.Fatal("the rejected block left the admitted payment on the chain")
	}

	jobs0, verify0 := scriptJobs(t, reg), bkey.ReadVerifyStats()
	blk, _, err := h.Miner.Mine(h.MinerKey)
	if err != nil {
		t.Fatal(err)
	}
	if len(blk.Transactions) != 2 || blk.Transactions[1].TxHash() != good.TxHash() {
		t.Fatalf("next block carries %d transactions, want coinbase and the admitted payment", len(blk.Transactions))
	}
	if jobs := scriptJobs(t, reg) - jobs0; jobs != 0 {
		t.Errorf("the admitted payment made %d script jobs after a rejected block, want 0", jobs)
	}
	if n := verifies(verify0, bkey.ReadVerifyStats()); n != 0 {
		t.Errorf("the admitted payment cost %d signature verifications after a rejected block, want 0", n)
	}
}
