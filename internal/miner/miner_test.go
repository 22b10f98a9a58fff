package miner_test

import (
	"testing"

	"typecoin/internal/chain"
	"typecoin/internal/miner"
	"typecoin/internal/script"
	"typecoin/internal/testutil"
	"typecoin/internal/wallet"
)

func TestMineExtendChain(t *testing.T) {
	h := testutil.NewHarness(t, t.Name())
	blk, status, err := h.Miner.Mine(h.MinerKey)
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	if status != chain.StatusMainChain {
		t.Fatalf("status = %v", status)
	}
	if h.Chain.BestHash() != blk.BlockHash() {
		t.Error("tip is not the mined block")
	}
	// The coinbase pays the subsidy to the payout key.
	cb := blk.Transactions[0]
	if !cb.IsCoinBase() {
		t.Fatal("first tx is not coinbase")
	}
	p, ok := script.ExtractPubKeyHash(cb.TxOut[0].PkScript)
	if !ok || p != h.MinerKey {
		t.Error("coinbase does not pay the miner key")
	}
	if cb.TxOut[0].Value != h.Params.CalcBlockSubsidy(1) {
		t.Errorf("coinbase pays %d, want %d", cb.TxOut[0].Value, h.Params.CalcBlockSubsidy(1))
	}
}

func TestCoinbasesAreDistinct(t *testing.T) {
	// Two blocks paying the same key must have distinct coinbase txids
	// (the extra-nonce), or the second would collide in the tx index.
	h := testutil.NewHarness(t, t.Name())
	blks, err := h.Miner.MineN(2, h.MinerKey)
	if err != nil {
		t.Fatal(err)
	}
	if blks[0].Transactions[0].TxHash() == blks[1].Transactions[0].TxHash() {
		t.Error("coinbase txids collide")
	}
}

func TestMineCollectsFees(t *testing.T) {
	h := testutil.NewHarness(t, t.Name())
	h.Fund(t)
	dest, err := h.Wallet.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	tx, err := h.Wallet.Build([]wallet.Output{
		{Value: 1_0000_0000, PkScript: script.PayToPubKeyHash(dest)},
	}, wallet.BuildOptions{Fee: 70_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Pool.Accept(tx); err != nil {
		t.Fatal(err)
	}
	blk, _, err := h.Miner.Mine(h.MinerKey)
	if err != nil {
		t.Fatal(err)
	}
	if len(blk.Transactions) != 2 {
		t.Fatalf("block has %d txs, want 2", len(blk.Transactions))
	}
	want := h.Params.CalcBlockSubsidy(h.Chain.BestHeight()) + 70_000
	if got := blk.Transactions[0].TxOut[0].Value; got != want {
		t.Errorf("coinbase pays %d, want subsidy+fee %d", got, want)
	}
}

func TestSigCacheSharedAcrossMempoolAndConnect(t *testing.T) {
	// A transaction verified at relay time runs no script at block
	// connect: the mempool records its txid in the chain's verdict set,
	// and connect finds it there and drops it once the block connects.
	h := testutil.NewHarness(t, t.Name())
	sc := h.Chain.SigCache()
	h.Fund(t)
	dest, err := h.Wallet.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	tx, err := h.Wallet.Build([]wallet.Output{
		{Value: 1_0000_0000, PkScript: script.PayToPubKeyHash(dest)},
	}, wallet.BuildOptions{Fee: 70_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Pool.Accept(tx); err != nil {
		t.Fatal(err)
	}
	before := sc.Stats()
	if before.Size != 1 {
		t.Fatalf("mempool admission left %d verdicts, want 1", before.Size)
	}

	blk, _, err := h.Miner.Mine(h.MinerKey)
	if err != nil {
		t.Fatal(err)
	}
	if len(blk.Transactions) != 2 {
		t.Fatalf("block has %d txs, want coinbase + pooled tx", len(blk.Transactions))
	}
	after := sc.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Errorf("block connect: %d hits and %d misses, want 1 and 0",
			after.Hits-before.Hits, after.Misses-before.Misses)
	}
	if after.Size != 0 {
		t.Errorf("%d verdicts left after the block connected, want 0", after.Size)
	}
}

func TestSolveBlockMeetsTarget(t *testing.T) {
	h := testutil.NewHarness(t, t.Name())
	blk, err := h.Miner.BuildBlock(h.MinerKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := miner.SolveBlock(blk); err != nil {
		t.Fatal(err)
	}
	if err := chain.CheckProofOfWork(blk.BlockHash(), blk.Header.Bits, h.Params.PowLimit); err != nil {
		t.Errorf("solved block fails PoW check: %v", err)
	}
}

func TestTimestampsRespectMedianTimePast(t *testing.T) {
	// Even without advancing the clock, consecutive blocks must satisfy
	// the median-time-past rule (the miner bumps the timestamp).
	h := testutil.NewHarness(t, t.Name())
	for i := 0; i < 15; i++ {
		if _, _, err := h.Miner.Mine(h.MinerKey); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
	}
	if h.Chain.BestHeight() != 15 {
		t.Errorf("height = %d", h.Chain.BestHeight())
	}
}
