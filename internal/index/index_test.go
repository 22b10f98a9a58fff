package index

// Indexer tests: basic row correctness over a live chain, catch-up in
// its three flavors (fresh build, incremental, wipe-and-rebuild after a
// poisoned tip), and the reorg-consistency property test — seeded
// random fork histories after each of which the incremental index must
// be bit-for-bit identical to a from-genesis rebuild. Scenarios run
// across a fixed seed list; replay one failing seed with INDEX_SEED=<n>.

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"typecoin/internal/bkey"
	"typecoin/internal/chain"
	"typecoin/internal/chainhash"
	"typecoin/internal/clock"
	"typecoin/internal/mempool"
	"typecoin/internal/miner"
	"typecoin/internal/script"
	"typecoin/internal/store"
	"typecoin/internal/testutil"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

// indexSeeds returns the property-test seed list, or the single seed
// from INDEX_SEED for replaying a failure.
func indexSeeds(t *testing.T) []int64 {
	t.Helper()
	if env := os.Getenv("INDEX_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("INDEX_SEED=%q: %v", env, err)
		}
		return []int64{seed}
	}
	return []int64{1, 7, 23, 42, 1337}
}

// harness is a single-node stack with an attached indexer.
type harness struct {
	params  *chain.Params
	clk     *clock.Simulated
	chain   *chain.Chain
	ix      *Indexer
	pool    *mempool.Pool
	miner   *miner.Miner
	wallet  *wallet.Wallet
	payout  bkey.Principal
	forkTag byte
}

// newHarness builds a regtest node over st (nil = fresh in-memory
// store) with the indexer attached before any block processing.
func newHarness(t testing.TB, seed string, st store.Store) *harness {
	t.Helper()
	params := chain.RegTestParams()
	return openNode(t, st, clock.NewSimulated(params.GenesisBlock.Header.Timestamp.Add(time.Minute)), seed)
}

// openNode attaches chain, index, pool, wallet and miner to st, in the
// daemon's order, on clk — a reopened node passes the clock of the one
// it replaces to continue its timeline. The payout key is the wallet's
// first, created when the store holds none.
func openNode(t testing.TB, st store.Store, clk *clock.Simulated, entropy string) *harness {
	t.Helper()
	params := chain.RegTestParams()
	c, err := chain.Open(chain.Config{Params: params, Clock: clk, Store: st})
	if err != nil {
		t.Fatalf("open chain: %v", err)
	}
	ix, err := Open(c)
	if err != nil {
		t.Fatalf("open index: %v", err)
	}
	pool := mempool.New(c, -1)
	w, err := wallet.Open(c, testutil.NewEntropy(entropy))
	if err != nil {
		t.Fatalf("open wallet: %v", err)
	}
	h := &harness{params: params, clk: clk, chain: c, ix: ix, pool: pool,
		miner: miner.New(c, pool, clk), wallet: w}
	if ps := w.Principals(); len(ps) > 0 {
		h.payout = ps[0]
	} else if h.payout, err = w.NewKey(); err != nil {
		t.Fatal(err)
	}
	return h
}

func (h *harness) mine(t testing.TB) *wire.MsgBlock {
	t.Helper()
	h.clk.Advance(time.Minute)
	blk, _, err := h.miner.Mine(h.payout)
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	return blk
}

func (h *harness) fund(t testing.TB) {
	t.Helper()
	for i := 0; i < h.params.CoinbaseMaturity+1; i++ {
		h.mine(t)
	}
	if h.wallet.Balance() == 0 {
		t.Fatal("wallet unfunded after maturity blocks")
	}
}

// pay builds, accepts and returns a wallet payment to dest; nil when
// the build or acceptance fails (funds ran out, or the build conflicts
// with a transaction a reorg recycled into the pool) — acceptable
// mid-scenario, the index only cares about what actually confirms.
func (h *harness) pay(t testing.TB, dest bkey.Principal, amount int64) *wire.MsgTx {
	t.Helper()
	tx, err := h.wallet.Build([]wallet.Output{
		{Value: amount, PkScript: script.PayToPubKeyHash(dest)},
	}, wallet.BuildOptions{})
	if err != nil {
		return nil
	}
	if _, err := h.pool.Accept(tx); err != nil {
		h.wallet.Unlock(tx)
		return nil
	}
	return tx
}

// mineEmptyOn builds and solves a coinbase-only block on top of prev,
// used to assemble competing fork branches the miner will not build.
func (h *harness) mineEmptyOn(t testing.TB, prev chainhash.Hash, height int, ts time.Time) *wire.MsgBlock {
	t.Helper()
	h.forkTag++
	coinbase := wire.NewMsgTx(wire.TxVersion)
	coinbase.AddTxIn(&wire.TxIn{
		PreviousOutPoint: wire.OutPoint{Hash: chainhash.ZeroHash, Index: 0xffffffff},
		SignatureScript:  []byte{byte(height), byte(height >> 8), h.forkTag},
		Sequence:         wire.MaxTxInSequenceNum,
	})
	coinbase.AddTxOut(&wire.TxOut{
		Value:    h.params.CalcBlockSubsidy(height),
		PkScript: []byte{0x51}, // OP_1: anyone-can-spend
	})
	blk := &wire.MsgBlock{
		Header: wire.BlockHeader{
			Version:    1,
			PrevBlock:  prev,
			MerkleRoot: wire.ComputeMerkleRoot([]*wire.MsgTx{coinbase}),
			Timestamp:  ts,
			Bits:       h.params.PowLimitBits,
		},
		Transactions: []*wire.MsgTx{coinbase},
	}
	if err := miner.SolveBlock(blk); err != nil {
		t.Fatalf("solve fork block: %v", err)
	}
	return blk
}

// fork mines depth+1 empty blocks on a branch rooted depth blocks below
// the tip, forcing a reorganization of depth blocks.
func (h *harness) fork(t testing.TB, depth int) {
	t.Helper()
	best := h.chain.BestHeight()
	forkFrom := best - depth
	base, ok := h.chain.BlockAtHeight(forkFrom)
	if !ok {
		t.Fatalf("no block at fork height %d", forkFrom)
	}
	prev := base.BlockHash()
	for i := 0; i < depth+1; i++ {
		ts := h.clk.Advance(time.Minute)
		blk := h.mineEmptyOn(t, prev, forkFrom+1+i, ts)
		if _, err := h.chain.ProcessBlock(blk); err != nil {
			t.Fatalf("fork block: %v", err)
		}
		prev = blk.BlockHash()
	}
	if h.chain.BestHash() != prev {
		t.Fatal("fork branch did not become the best chain")
	}
}

func TestIndexBasicRows(t *testing.T) {
	h := newHarness(t, "index/basic", nil)
	h.fund(t)

	dest, err := h.wallet.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	tx := h.pay(t, dest, 2_000_000)
	if tx == nil {
		t.Fatal("payment build failed")
	}
	blk := h.mine(t)
	txid := tx.TxHash()

	// Index tip tracks the chain tip.
	tipHash, tipHeight, err := h.ix.Tip()
	if err != nil {
		t.Fatal(err)
	}
	if tipHash != h.chain.BestHash() || tipHeight != h.chain.BestHeight() {
		t.Fatalf("index tip %s@%d, chain %s@%d", tipHash, tipHeight, h.chain.BestHash(), h.chain.BestHeight())
	}
	if got := h.ix.TipHeight(); got != h.chain.BestHeight() {
		t.Fatalf("TipHeight = %d, want %d", got, h.chain.BestHeight())
	}

	// The destination's history is exactly the funding transaction.
	hist, next, err := h.ix.AddressHistory(dest, Cursor{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if next != nil || len(hist) != 1 {
		t.Fatalf("dest history = %d rows (next=%v), want 1", len(hist), next)
	}
	e := hist[0]
	if e.TxID != txid || e.Flags != RoleFunded || e.Funded != 2_000_000 || e.Spent != 0 {
		t.Fatalf("dest row = %+v", e)
	}
	if e.Height != h.chain.BestHeight() {
		t.Fatalf("dest row height %d, want tip %d", e.Height, h.chain.BestHeight())
	}

	// The payer's row for the same tx aggregates spend + change.
	payerHist, _, err := h.ix.AddressHistory(h.payout, Cursor{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var payerRow *HistEntry
	for i := range payerHist {
		if payerHist[i].TxID == txid {
			payerRow = &payerHist[i]
		}
	}
	if payerRow == nil {
		t.Fatal("payer has no row for the payment tx")
	}
	if payerRow.Flags&RoleSpent == 0 {
		t.Fatalf("payer row flags = %d, want spent bit", payerRow.Flags)
	}

	// Every input of the payment has a spend row naming it.
	for vin, in := range tx.TxIn {
		info, spent, err := h.ix.Outspend(in.PreviousOutPoint)
		if err != nil {
			t.Fatal(err)
		}
		if !spent || info.Spender != txid || info.Vin != uint32(vin) {
			t.Fatalf("outspend(%v) = %+v spent=%v", in.PreviousOutPoint, info, spent)
		}
	}
	// An unspent outpoint has none.
	op := wire.OutPoint{Hash: blk.Transactions[0].TxHash(), Index: 0}
	if _, spent, _ := h.ix.Outspend(op); spent {
		t.Fatal("fresh coinbase output reported spent")
	}

	if err := h.ix.AuditRebuild(); err != nil {
		t.Fatal(err)
	}
}

func TestIndexPrincipalRows(t *testing.T) {
	h := newHarness(t, "index/principal", nil)
	h.fund(t)

	// A carrier-style transaction: output 0 is a 1-of-2 multisig whose
	// second slot packs a commitment hash (the Typecoin embedding), plus
	// a P2PKH payment so a principal is funded by the same tx.
	ownerKey, err := h.wallet.Key(h.payout)
	if err != nil {
		t.Fatal(err)
	}
	meta := chainhash.HashB([]byte("index/commitment"))
	multi, err := script.MultiSigScript(1, ownerKey.PubKey().Serialize(), script.MetadataKeySlot(meta))
	if err != nil {
		t.Fatal(err)
	}
	dest, err := h.wallet.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	carrier, err := h.wallet.Build([]wallet.Output{
		{Value: 500_000, PkScript: multi},
		{Value: 700_000, PkScript: script.PayToPubKeyHash(dest)},
	}, wallet.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.pool.Accept(carrier); err != nil {
		t.Fatal(err)
	}
	h.mine(t)

	// Both the funded principal (receipt) and the spending principal
	// (announce) see the carrier with its commitment hash.
	for _, p := range []bkey.Principal{dest, h.payout} {
		acts, _, err := h.ix.PrincipalActivity(p, Cursor{}, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(acts) != 1 {
			t.Fatalf("principal %s: %d activity rows, want 1", p, len(acts))
		}
		if acts[0].TxID != carrier.TxHash() || acts[0].Commitment != meta {
			t.Fatalf("principal %s activity = %+v", p, acts[0])
		}
	}
	dacts, _, _ := h.ix.PrincipalActivity(dest, Cursor{}, 10)
	if dacts[0].Flags&RoleFunded == 0 {
		t.Fatal("funded principal lacks the funded role")
	}
	pacts, _, _ := h.ix.PrincipalActivity(h.payout, Cursor{}, 10)
	if pacts[0].Flags&RoleSpent == 0 {
		t.Fatal("spending principal lacks the spent role")
	}
	if err := h.ix.AuditRebuild(); err != nil {
		t.Fatal(err)
	}
}

func TestIndexPagination(t *testing.T) {
	h := newHarness(t, "index/pagination", nil)
	h.fund(t)
	// More wallet→payout traffic: several rows for the payout address
	// across heights (plus one per coinbase).
	for i := 0; i < 5; i++ {
		h.pay(t, h.payout, 100_000+int64(i))
		h.mine(t)
	}

	full, next, err := h.ix.AddressHistory(h.payout, Cursor{}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if next != nil {
		t.Fatal("full scan returned a next cursor")
	}
	if len(full) < h.params.CoinbaseMaturity+6 {
		t.Fatalf("only %d rows for the payout address", len(full))
	}

	// Walking one row at a time must reproduce the full scan exactly.
	var walked []HistEntry
	cur := Cursor{}
	for {
		page, n, err := h.ix.AddressHistory(h.payout, cur, 1)
		if err != nil {
			t.Fatal(err)
		}
		walked = append(walked, page...)
		if n == nil {
			break
		}
		cur = *n
	}
	if !reflect.DeepEqual(full, walked) {
		t.Fatalf("pagination walk diverged: %d rows vs %d", len(walked), len(full))
	}

	// Chain order: heights never decrease, (height, txIdx) strictly grows.
	for i := 1; i < len(full); i++ {
		prev, cur := full[i-1], full[i]
		if cur.Height < prev.Height ||
			(cur.Height == prev.Height && cur.TxIndex <= prev.TxIndex) {
			t.Fatalf("rows out of order at %d: %+v then %+v", i, prev, cur)
		}
	}
}

// TestIndexCatchup exercises the three open paths against one shared
// store: fresh build from genesis, incremental catch-up from a stored
// tip, and wipe-and-rebuild after the stored tip is poisoned.
func TestIndexCatchup(t *testing.T) {
	st := store.NewMem()
	h := newHarness(t, "index/catchup", st)
	h.fund(t)
	dest, _ := h.wallet.NewKey()
	h.pay(t, dest, 1_000_000)
	h.mine(t)
	wantRows, err := dumpIndexRows(st)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh store has no index tip: the open replay indexes exactly
	// the genesis block, and everything later arrives via contribute.
	if h.ix.catchupBlocks != 1 {
		t.Fatalf("live-attached index caught up %d blocks, want 1 (genesis)", h.ix.catchupBlocks)
	}

	reopen := func(label string) *Indexer {
		t.Helper()
		c2, err := chain.Open(chain.Config{Params: h.params, Clock: h.clk, Store: st})
		if err != nil {
			t.Fatalf("%s: reopen chain: %v", label, err)
		}
		ix2, err := Open(c2)
		if err != nil {
			t.Fatalf("%s: reopen index: %v", label, err)
		}
		got, err := dumpIndexRows(st)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantRows) {
			t.Fatalf("%s: reopened rows differ (%d vs %d)", label, len(got), len(wantRows))
		}
		if err := ix2.AuditRebuild(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return ix2
	}

	// Incremental: the stored tip matches the chain, so catch-up indexes
	// nothing.
	ix2 := reopen("incremental")
	if ix2.catchupBlocks != 0 {
		t.Fatalf("up-to-date reopen caught up %d blocks", ix2.catchupBlocks)
	}

	// Behind: roll the index tip back by lying that it stopped at height
	// 3; catch-up must index exactly the blocks above it.
	blk3, _ := h.chain.BlockAtHeight(3)
	b := store.NewBatch()
	b.Put(keyTip, encodeTip(blk3.BlockHash(), 3))
	if err := st.Apply(b); err != nil {
		t.Fatal(err)
	}
	ix3 := reopen("behind")
	if want := h.chain.BestHeight() - 3; ix3.catchupBlocks != want {
		t.Fatalf("behind reopen caught up %d blocks, want %d", ix3.catchupBlocks, want)
	}

	// Poisoned: a tip hash that is not on the main chain forces a full
	// wipe and rebuild.
	b = store.NewBatch()
	b.Put(keyTip, encodeTip(chainhash.HashB([]byte("not a block")), 3))
	if err := st.Apply(b); err != nil {
		t.Fatal(err)
	}
	ix4 := reopen("poisoned")
	if want := h.chain.BestHeight() + 1; ix4.catchupBlocks != want {
		t.Fatalf("poisoned reopen caught up %d blocks, want full %d", ix4.catchupBlocks, want)
	}
}

// TestReorgConsistencyProperty is the property test: seeded random
// histories of wallet traffic interleaved with forced forks. After
// every reorganization (and at the end) the incrementally-maintained
// index must be bit-for-bit identical to a from-genesis rebuild, and
// spot queries must agree with the chain's own records.
func TestReorgConsistencyProperty(t *testing.T) {
	for _, seed := range indexSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runReorgScenario(t, seed)
		})
	}
}

func runReorgScenario(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	h := newHarness(t, fmt.Sprintf("index/reorg/%d", seed), nil)
	h.fund(t)

	reorgs := 0
	for round := 0; round < 15 || reorgs == 0; round++ {
		if round > 60 {
			t.Fatal("no reorg occurred in 60 rounds")
		}
		for i := rng.Intn(3); i > 0; i-- {
			dest, err := h.wallet.NewKey()
			if err != nil {
				t.Fatal(err)
			}
			h.pay(t, dest, 60_000+int64(rng.Intn(1_000_000)))
		}
		h.mine(t)
		if rng.Intn(3) == 0 {
			depth := 1 + rng.Intn(3)
			h.fork(t, depth)
			reorgs++
			if err := h.ix.AuditRebuild(); err != nil {
				t.Fatalf("seed %d: after reorg %d (depth %d): %v", seed, reorgs, depth, err)
			}
		}
	}
	if err := h.ix.AuditRebuild(); err != nil {
		t.Fatalf("seed %d: final: %v", seed, err)
	}
	// The chain's Replay, which catch-up reads, derives every height's
	// spends exactly as the audit's own outpoint table does.
	var replayed, folded []chain.Notification
	collect := func(dst *[]chain.Notification) func(chain.Notification) error {
		return func(n chain.Notification) error { *dst = append(*dst, n); return nil }
	}
	if err := h.chain.Replay(0, h.chain.BestHeight(), collect(&replayed)); err != nil {
		t.Fatal(err)
	}
	if err := h.ix.replayOwn(h.chain.BestHeight(), collect(&folded)); err != nil {
		t.Fatal(err)
	}
	if len(replayed) != h.chain.BestHeight()+1 || len(folded) != len(replayed) {
		t.Fatalf("seed %d: Replay gave %d blocks, the audit's fold %d, for tip %d",
			seed, len(replayed), len(folded), h.chain.BestHeight())
	}
	spends := 0
	for i := range replayed {
		if !reflect.DeepEqual(replayed[i], folded[i]) {
			t.Fatalf("seed %d: height %d: Replay spent %v, the audit's fold %v",
				seed, i, replayed[i].Spent, folded[i].Spent)
		}
		spends += len(replayed[i].Spent)
	}
	if spends == 0 {
		t.Fatalf("seed %d: no main-chain block spends anything", seed)
	}

	// Cross-check the spend index against the chain: every input of
	// every main-chain transaction has a spend row naming its consumer,
	// and the index tip equals the chain tip.
	for height := 1; height <= h.chain.BestHeight(); height++ {
		blk, ok := h.chain.BlockAtHeight(height)
		if !ok {
			t.Fatalf("missing block at %d", height)
		}
		for ti, tx := range blk.Transactions {
			if ti == 0 {
				continue
			}
			txid := tx.TxHash()
			for vin, in := range tx.TxIn {
				info, spent, err := h.ix.Outspend(in.PreviousOutPoint)
				if err != nil {
					t.Fatal(err)
				}
				if !spent || info.Spender != txid || info.Vin != uint32(vin) || info.Height != height {
					t.Fatalf("seed %d: outspend(%v) = %+v/%v, want %s vin %d height %d",
						seed, in.PreviousOutPoint, info, spent, txid, vin, height)
				}
			}
		}
	}
	tipHash, tipHeight, err := h.ix.Tip()
	if err != nil {
		t.Fatal(err)
	}
	if tipHash != h.chain.BestHash() || tipHeight != h.chain.BestHeight() {
		t.Fatalf("seed %d: index tip %s@%d, chain %s@%d",
			seed, tipHash, tipHeight, h.chain.BestHash(), h.chain.BestHeight())
	}
	// Pagination stays coherent over post-reorg state.
	full, _, err := h.ix.AddressHistory(h.payout, Cursor{}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	var walked []HistEntry
	cur := Cursor{}
	for {
		page, n, err := h.ix.AddressHistory(h.payout, cur, 7)
		if err != nil {
			t.Fatal(err)
		}
		walked = append(walked, page...)
		if n == nil {
			break
		}
		cur = *n
	}
	if !reflect.DeepEqual(full, walked) {
		t.Fatalf("seed %d: pagination walk diverged", seed)
	}
}
