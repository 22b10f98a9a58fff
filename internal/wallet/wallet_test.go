package wallet_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"typecoin/internal/chainhash"
	"typecoin/internal/script"
	"typecoin/internal/testutil"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

func TestBalanceMaturity(t *testing.T) {
	h := testutil.NewHarness(t, t.Name())
	h.MineBlocks(t, 1)
	if b := h.Wallet.Balance(); b != 0 {
		t.Errorf("immature balance = %d, want 0", b)
	}
	// After maturity more blocks (tip = maturity+1), the coinbases at
	// heights 1 and 2 are both spendable in the next block.
	h.MineBlocks(t, h.Params.CoinbaseMaturity)
	want := h.Params.CalcBlockSubsidy(1) + h.Params.CalcBlockSubsidy(2)
	if b := h.Wallet.Balance(); b != want {
		t.Errorf("mature balance = %d, want %d", b, want)
	}
}

func TestBuildPayAndChange(t *testing.T) {
	h := testutil.NewHarness(t, t.Name())
	h.Fund(t)
	dest, err := h.Wallet.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	before := h.Wallet.Balance()
	tx, err := h.Wallet.Build([]wallet.Output{
		{Value: 7_0000_0000, PkScript: script.PayToPubKeyHash(dest)},
	}, wallet.BuildOptions{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(tx.TxOut) != 2 {
		t.Fatalf("outputs = %d, want payment + change", len(tx.TxOut))
	}
	var total int64
	for _, out := range tx.TxOut {
		total += out.Value
	}
	var in int64
	for _, ti := range tx.TxIn {
		entry := h.Chain.LookupUtxo(ti.PreviousOutPoint)
		if entry == nil {
			t.Fatalf("input %v unknown", ti.PreviousOutPoint)
		}
		in += entry.Out.Value
	}
	if in-total != wallet.DefaultFee {
		t.Errorf("fee = %d, want %d", in-total, wallet.DefaultFee)
	}
	if _, err := h.Pool.Accept(tx); err != nil {
		t.Fatalf("pool rejected wallet tx: %v", err)
	}
	h.MineBlocks(t, 1)
	// Balance accounting: payment went to our own key, so we lose only
	// the fee, plus gain the new block subsidy (immature).
	after := h.Wallet.Balance()
	if after > before {
		// subsidy matured meanwhile; just sanity check the spend happened
		if h.Chain.Confirmations(tx.TxHash()) != 1 {
			t.Error("tx not confirmed")
		}
	}
}

func TestBuildInsufficientFunds(t *testing.T) {
	h := testutil.NewHarness(t, t.Name())
	h.Fund(t)
	dest, err := h.Wallet.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	_, err = h.Wallet.Build([]wallet.Output{
		{Value: 1_000_000 * wire.SatoshiPerBitcoin, PkScript: script.PayToPubKeyHash(dest)},
	}, wallet.BuildOptions{})
	if !errors.Is(err, wallet.ErrInsufficientFunds) {
		t.Errorf("want ErrInsufficientFunds, got %v", err)
	}
}

func TestBuildLocksInputs(t *testing.T) {
	h := testutil.NewHarness(t, t.Name())
	h.Fund(t)
	dest, err := h.Wallet.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	out := []wallet.Output{{Value: 1_0000_0000, PkScript: script.PayToPubKeyHash(dest)}}
	tx1, err := h.Wallet.Build(out, wallet.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := h.Wallet.Build(out, wallet.BuildOptions{})
	if err != nil {
		// Only one mature coinbase: acceptable to run out.
		return
	}
	for _, a := range tx1.TxIn {
		for _, b := range tx2.TxIn {
			if a.PreviousOutPoint == b.PreviousOutPoint {
				t.Fatalf("both transactions spend %v", a.PreviousOutPoint)
			}
		}
	}
}

func TestUnlockReleasesInputs(t *testing.T) {
	h := testutil.NewHarness(t, t.Name())
	h.Fund(t)
	dest, err := h.Wallet.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	out := []wallet.Output{{Value: 40_0000_0000, PkScript: script.PayToPubKeyHash(dest)}}
	tx1, err := h.Wallet.Build(out, wallet.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Abandon tx1; its inputs become available again.
	h.Wallet.Unlock(tx1)
	if _, err := h.Wallet.Build(out, wallet.BuildOptions{}); err != nil {
		t.Fatalf("rebuild after Unlock: %v", err)
	}
}

func TestChangeChaining(t *testing.T) {
	// Change from an unconfirmed build is spendable by the next build.
	h := testutil.NewHarness(t, t.Name())
	h.Fund(t)
	dest, err := h.Wallet.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	out := []wallet.Output{{Value: 10_0000_0000, PkScript: script.PayToPubKeyHash(dest)}}
	tx1, err := h.Wallet.Build(out, wallet.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Pool.Accept(tx1); err != nil {
		t.Fatal(err)
	}
	tx2, err := h.Wallet.Build(out, wallet.BuildOptions{})
	if err != nil {
		t.Fatalf("chained build: %v", err)
	}
	if _, err := h.Pool.Accept(tx2); err != nil {
		t.Fatalf("pool rejected chained tx: %v", err)
	}
	h.MineBlocks(t, 1)
	if h.Chain.Confirmations(tx2.TxHash()) != 1 {
		t.Error("chained tx not mined")
	}
}

func TestMetadataOutputTracking(t *testing.T) {
	h := testutil.NewHarness(t, t.Name())
	h.Fund(t)
	key, err := h.Wallet.Key(h.MinerKey)
	if err != nil {
		t.Fatal(err)
	}
	meta := chainhash.TaggedHash("typecoin/tx", []byte("payload"))
	pkScript, err := script.MultiSigScript(1, key.PubKey().Serialize(), script.MetadataKeySlot(meta))
	if err != nil {
		t.Fatal(err)
	}
	tx, err := h.Wallet.Build([]wallet.Output{{Value: 10_000, PkScript: pkScript}}, wallet.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Pool.Accept(tx); err != nil {
		t.Fatalf("metadata tx rejected: %v", err)
	}
	h.MineBlocks(t, 1)

	metas := h.Wallet.MetadataOutpoints()
	if len(metas) != 1 {
		t.Fatalf("metadata outpoints = %d, want 1", len(metas))
	}
	if metas[0].Hash != tx.TxHash() {
		t.Error("wrong metadata outpoint")
	}

	// Cleanup: spend the metadata output back to plain funds ("cracking a
	// resource open to recover the bitcoins inside", Section 3.1).
	utxoBefore := h.Chain.UtxoSize()
	cleanup, err := h.Wallet.Build(
		[]wallet.Output{{Value: 5_000, PkScript: script.PayToPubKeyHash(h.MinerKey)}},
		wallet.BuildOptions{ExtraInputs: metas, Fee: 50_000})
	if err != nil {
		t.Fatalf("cleanup build: %v", err)
	}
	if _, err := h.Pool.Accept(cleanup); err != nil {
		t.Fatalf("cleanup rejected: %v", err)
	}
	h.MineBlocks(t, 1)
	if len(h.Wallet.MetadataOutpoints()) != 0 {
		t.Error("metadata output not consumed")
	}
	// The metadata entry left the UTXO table: garbage collection works.
	if _, spent := h.Chain.IsSpent(metas[0]); !spent {
		t.Error("metadata outpoint not journaled as spent")
	}
	_ = utxoBefore
}

func TestRescan(t *testing.T) {
	h := testutil.NewHarness(t, t.Name())
	h.Fund(t)
	before := h.Wallet.Balance()
	h.Wallet.Rescan()
	if after := h.Wallet.Balance(); after != before {
		t.Errorf("balance changed across rescan: %d -> %d", before, after)
	}
}

func TestKeyManagement(t *testing.T) {
	h := testutil.NewHarness(t, t.Name())
	p, err := h.Wallet.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wallet.Key(p); err != nil {
		t.Errorf("Key(%s): %v", p, err)
	}
	var zero = p
	zero[0] ^= 0xff
	if _, err := h.Wallet.Key(zero); !errors.Is(err, wallet.ErrUnknownKey) {
		t.Errorf("want ErrUnknownKey, got %v", err)
	}
	ps := h.Wallet.Principals()
	if len(ps) != 2 { // miner key + p
		t.Errorf("principals = %d, want 2", len(ps))
	}
}

func TestReorgRestoresWalletUtxos(t *testing.T) {
	// A spend that is reorged away must make its inputs spendable again
	// without a manual rescan.
	h := testutil.NewHarness(t, t.Name())
	h.Fund(t)
	dest, err := h.Wallet.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	before := h.Wallet.Balance()
	tx, err := h.Wallet.Build([]wallet.Output{
		{Value: 10_0000_0000, PkScript: script.PayToPubKeyHash(dest)},
	}, wallet.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Pool.Accept(tx); err != nil {
		t.Fatal(err)
	}
	h.MineBlocks(t, 1)
	spentHeight := h.Chain.BestHeight()

	// A longer competing chain without the spend (fresh harness, same
	// params) reorgs it away.
	other := testutil.NewHarness(t, t.Name()+"-fork")
	other.MineBlocks(t, spentHeight+2)
	for height := 1; height <= other.Chain.BestHeight(); height++ {
		blk, _ := other.Chain.BlockAtHeight(height)
		if _, err := h.Chain.ProcessBlock(blk); err != nil {
			t.Fatalf("fork block %d: %v", height, err)
		}
	}
	if h.Chain.BestHash() != other.Chain.BestHash() {
		t.Fatal("reorg did not take")
	}
	// The wallet's confirmed balance is rebuilt automatically: the old
	// coinbases are gone (different chain), and nothing stale remains.
	h.Wallet.Unlock(tx) // release the input lock from the abandoned spend
	got := h.Wallet.Balance()
	if got != 0 {
		t.Errorf("balance after reorg to foreign chain = %d, want 0", got)
	}
	_ = before
}

func TestConcurrentBuilds(t *testing.T) {
	// Concurrent Build calls must never double-select an input.
	h := testutil.NewHarness(t, t.Name())
	h.MineBlocks(t, h.Params.CoinbaseMaturity+8) // several mature coinbases
	dest, err := h.Wallet.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	out := []wallet.Output{{Value: 1_0000_0000, PkScript: script.PayToPubKeyHash(dest)}}
	type result struct {
		tx  *wire.MsgTx
		err error
	}
	results := make(chan result, 8)
	for i := 0; i < 8; i++ {
		go func() {
			tx, err := h.Wallet.Build(out, wallet.BuildOptions{})
			results <- result{tx, err}
		}()
	}
	seen := make(map[wire.OutPoint]bool)
	for i := 0; i < 8; i++ {
		r := <-results
		if r.err != nil {
			continue // running out of funds concurrently is fine
		}
		for _, in := range r.tx.TxIn {
			if seen[in.PreviousOutPoint] {
				t.Fatalf("input %v selected twice", in.PreviousOutPoint)
			}
			seen[in.PreviousOutPoint] = true
		}
	}
}

// TestParallelSigningSameBytes builds one 3-input payment in two
// identical worlds, signing on one core and on two. The signatures are
// deterministic and each input's sighash ignores the other inputs'
// scripts, so the transactions must be byte-identical and valid.
func TestParallelSigningSameBytes(t *testing.T) {
	build := func(procs int) []byte {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		h := testutil.NewHarness(t, "parallel-signing")
		h.MineBlocks(t, h.Params.CoinbaseMaturity+3)
		dest, err := h.Wallet.NewKey()
		if err != nil {
			t.Fatal(err)
		}
		amount := 2*h.Params.CalcBlockSubsidy(1) + 1
		tx, err := h.Wallet.Build([]wallet.Output{{Value: amount, PkScript: script.PayToPubKeyHash(dest)}}, wallet.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(tx.TxIn) != 3 {
			t.Fatalf("payment has %d inputs, want 3", len(tx.TxIn))
		}
		if _, err := h.Pool.Accept(tx); err != nil {
			t.Fatalf("GOMAXPROCS=%d: payment refused: %v", procs, err)
		}
		return tx.Bytes()
	}
	if one, two := build(1), build(2); !bytes.Equal(one, two) {
		t.Error("signing on two cores changed the transaction's bytes")
	}
}
