package wallet_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"typecoin/internal/chainhash"
	"typecoin/internal/miner"
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
	// The wallet's confirmed balance follows the reorg: the old
	// coinbases are gone (different chain), and nothing stale remains.
	h.Wallet.Unlock(tx) // release the input lock from the abandoned spend
	if got := h.Wallet.Balance(); got != 0 {
		t.Errorf("balance after reorg to foreign chain = %d, want 0", got)
	}
	requireRescanned(t, "foreign chain", h)

	for _, seed := range []int64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runWalletReorgs(t, seed) })
	}
}

// requireRescanned holds the wallet's confirmed view, kept from chain
// events alone, equal to a fresh rescan of the chain under its keys.
func requireRescanned(t *testing.T, what string, h *testutil.Harness) {
	t.Helper()
	got, want := wallet.Confirmed(h.Wallet)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: wallet holds %d confirmed coins, a rescan finds %d, and they differ", what, len(got), len(want))
	}
}

// runWalletReorgs is a seeded schedule of wallet payments, some spending
// the change of the one before in the same block, and reorganizations of depth 1 to 3. Every
// disconnected block's coinbase pays the wallet, and a branch may open
// with a double spend of a wallet coin the first disconnected block
// spent. After every reorganization the wallet must equal a rescan.
func runWalletReorgs(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	h := testutil.NewHarness(t, fmt.Sprintf("%s/%d", t.Name(), seed))
	h.Fund(t)
	depths := make(map[int]bool)
	doubleSpends, coinbases, tag := 0, 0, byte(0)
	for round := 0; round < 20 || len(depths) < 3 || doubleSpends == 0 || coinbases == 0; round++ {
		if round > 100 {
			t.Fatalf("after 100 rounds: depths %v, %d double spends, %d wallet coinbases disconnected",
				depths, doubleSpends, coinbases)
		}
		var prev *wire.MsgTx
		for i := rng.Intn(4); i > 0; i-- {
			dest, err := h.Wallet.NewKey()
			if err != nil {
				t.Fatal(err)
			}
			var opts wallet.BuildOptions
			if prev != nil && len(prev.TxOut) == 2 && rng.Intn(2) == 0 {
				// Spend the last payment's change: a chain within the block.
				opts.ExtraInputs = []wire.OutPoint{{Hash: prev.TxHash(), Index: 1}}
			}
			tx, err := h.Wallet.Build([]wallet.Output{
				{Value: 60_000 + int64(rng.Intn(1_000_000)), PkScript: script.PayToPubKeyHash(dest)},
			}, opts)
			if err != nil {
				continue
			}
			if _, err := h.Pool.Accept(tx); err != nil {
				h.Wallet.Unlock(tx)
				continue
			}
			prev = tx
		}
		h.MineBlocks(t, 1)
		if rng.Intn(3) != 0 {
			continue
		}
		depth := 1 + rng.Intn(3)
		forkFrom := h.Chain.BestHeight() - depth
		first, _ := h.Chain.BlockAtHeight(forkFrom + 1)
		for height := forkFrom + 1; height <= h.Chain.BestHeight(); height++ {
			blk, _ := h.Chain.BlockAtHeight(height)
			if bytes.Equal(blk.Transactions[0].TxOut[0].PkScript, script.PayToPubKeyHash(h.MinerKey)) {
				coinbases++
			}
		}
		for _, blk := range branchAfter(t, h, forkFrom, depth+1, doubleSpend(t, h, first, forkFrom), &tag) {
			if _, err := h.Chain.ProcessBlock(blk); err != nil {
				t.Fatalf("branch block: %v", err)
			}
		}
		if h.Chain.BestHeight() != forkFrom+depth+1 {
			t.Fatalf("branch of %d blocks above %d did not become the best chain", depth+1, forkFrom)
		}
		depths[depth] = true
		if blk, _ := h.Chain.BlockAtHeight(forkFrom + 1); len(blk.Transactions) > 1 {
			doubleSpends++
		}
		requireRescanned(t, fmt.Sprintf("round %d, depth %d", round, depth), h)
	}
}

// doubleSpend returns a transaction that spends, to a fresh wallet key,
// a wallet coin that blk spends and a block at or below forkFrom
// created, or nil when blk spends no such coin.
func doubleSpend(t *testing.T, h *testutil.Harness, blk *wire.MsgBlock, forkFrom int) *wire.MsgTx {
	t.Helper()
	for _, tx := range blk.Transactions[1:] {
		for _, in := range tx.TxIn {
			op := in.PreviousOutPoint
			funding, ok := h.Chain.TxByID(op.Hash)
			height, _, _ := h.Chain.TxPosition(op.Hash)
			if !ok || height > forkFrom {
				continue
			}
			out := funding.TxOut[op.Index]
			owner, ok := script.ExtractPubKeyHash(out.PkScript)
			if !ok {
				continue
			}
			key, err := h.Wallet.Key(owner)
			if err != nil {
				continue
			}
			dest, err := h.Wallet.NewKey()
			if err != nil {
				t.Fatal(err)
			}
			twin := wire.NewMsgTx(wire.TxVersion)
			twin.AddTxIn(&wire.TxIn{PreviousOutPoint: op, Sequence: wire.MaxTxInSequenceNum})
			twin.AddTxOut(&wire.TxOut{Value: out.Value - wallet.DefaultFee, PkScript: script.PayToPubKeyHash(dest)})
			sig, err := script.SignatureScript(twin, 0, out.PkScript, script.SigHashAll, key)
			if err != nil {
				t.Fatal(err)
			}
			twin.TxIn[0].SignatureScript = sig
			return twin
		}
	}
	return nil
}

// branchAfter builds n solved blocks on the main-chain block at
// forkFrom, the first carrying first when it is not nil, each with a
// coinbase that pays the harness miner key.
func branchAfter(t *testing.T, h *testutil.Harness, forkFrom, n int, first *wire.MsgTx, tag *byte) []*wire.MsgBlock {
	t.Helper()
	prev, _ := h.Chain.BlockAtHeight(forkFrom)
	var out []*wire.MsgBlock
	for i := 0; i < n; i++ {
		height := forkFrom + 1 + i
		*tag++
		coinbase := wire.NewMsgTx(wire.TxVersion)
		coinbase.AddTxIn(&wire.TxIn{
			PreviousOutPoint: wire.OutPoint{Hash: chainhash.ZeroHash, Index: 0xffffffff},
			SignatureScript:  []byte{byte(height), byte(height >> 8), 0xfb, *tag},
			Sequence:         wire.MaxTxInSequenceNum,
		})
		coinbase.AddTxOut(&wire.TxOut{
			Value:    h.Params.CalcBlockSubsidy(height),
			PkScript: script.PayToPubKeyHash(h.MinerKey),
		})
		txs := []*wire.MsgTx{coinbase}
		if i == 0 && first != nil {
			txs = append(txs, first)
		}
		blk := &wire.MsgBlock{
			Header: wire.BlockHeader{
				Version:    1,
				PrevBlock:  prev.BlockHash(),
				MerkleRoot: wire.ComputeMerkleRoot(txs),
				Timestamp:  h.Clock.Advance(time.Minute).UTC().Truncate(time.Second),
				Bits:       h.Params.PowLimitBits,
			},
			Transactions: txs,
		}
		if err := miner.SolveBlock(blk); err != nil {
			t.Fatal(err)
		}
		out = append(out, blk)
		prev = blk
	}
	return out
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
