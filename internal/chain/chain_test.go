package chain

import (
	"errors"
	"math/big"
	"testing"
	"testing/quick"
	"time"

	"typecoin/internal/chainhash"
	"typecoin/internal/clock"
	"typecoin/internal/wire"
)

// mineEmpty builds and solves an empty (coinbase-only) block on top of
// prev, at the chain's required difficulty, with the given timestamp.
func mineEmpty(t testing.TB, c *Chain, prevHash chainhash.Hash, height int, ts time.Time, tag byte) *wire.MsgBlock {
	t.Helper()
	coinbase := wire.NewMsgTx(wire.TxVersion)
	coinbase.AddTxIn(&wire.TxIn{
		PreviousOutPoint: wire.OutPoint{Hash: chainhash.ZeroHash, Index: 0xffffffff},
		SignatureScript:  []byte{byte(height), byte(height >> 8), tag},
		Sequence:         wire.MaxTxInSequenceNum,
	})
	coinbase.AddTxOut(&wire.TxOut{
		Value:    c.Params().CalcBlockSubsidy(height),
		PkScript: []byte{0x51}, // OP_1: anyone-can-spend, fine for tests
	})
	blk := &wire.MsgBlock{
		Header: wire.BlockHeader{
			Version:    1,
			PrevBlock:  prevHash,
			MerkleRoot: wire.ComputeMerkleRoot([]*wire.MsgTx{coinbase}),
			Timestamp:  ts,
			Bits:       c.Params().PowLimitBits,
		},
		Transactions: []*wire.MsgTx{coinbase},
	}
	solve(t, blk, c.Params())
	return blk
}

func solve(t testing.TB, blk *wire.MsgBlock, p *Params) {
	t.Helper()
	target := CompactToBig(blk.Header.Bits)
	for nonce := uint64(0); nonce <= 0xffffffff; nonce++ {
		blk.Header.Nonce = uint32(nonce)
		if HashToBig(blk.BlockHash()).Cmp(target) <= 0 {
			return
		}
	}
	t.Fatal("could not solve block")
}

func newTestChain(t testing.TB) (*Chain, *clock.Simulated) {
	t.Helper()
	params := RegTestParams()
	clk := clock.NewSimulated(params.GenesisBlock.Header.Timestamp.Add(time.Minute))
	return New(params, clk), clk
}

// extend mines n empty blocks on the main chain tip, returning their
// blocks.
func extend(t testing.TB, c *Chain, clk *clock.Simulated, n int, tag byte) []*wire.MsgBlock {
	t.Helper()
	var out []*wire.MsgBlock
	for i := 0; i < n; i++ {
		ts := clk.Advance(time.Minute)
		blk := mineEmpty(t, c, c.BestHash(), c.BestHeight()+1, ts, tag)
		status, err := c.ProcessBlock(blk)
		if err != nil {
			t.Fatalf("ProcessBlock: %v", err)
		}
		if status != StatusMainChain {
			t.Fatalf("status = %v, want main chain", status)
		}
		out = append(out, blk)
	}
	return out
}

func TestGenesis(t *testing.T) {
	c, _ := newTestChain(t)
	if c.BestHeight() != 0 {
		t.Fatalf("genesis height = %d", c.BestHeight())
	}
	if c.BestHash() != c.Params().GenesisBlock.BlockHash() {
		t.Fatal("tip is not genesis")
	}
	// Genesis pays OP_RETURN: the UTXO table must be empty.
	if c.UtxoSize() != 0 {
		t.Fatalf("genesis UTXO size = %d, want 0", c.UtxoSize())
	}
	// Two invocations of RegTestParams agree on the genesis hash.
	if RegTestParams().GenesisBlock.BlockHash() != RegTestParams().GenesisBlock.BlockHash() {
		t.Fatal("genesis hash is nondeterministic")
	}
}

func TestExtendChain(t *testing.T) {
	c, clk := newTestChain(t)
	extend(t, c, clk, 5, 0)
	if c.BestHeight() != 5 {
		t.Fatalf("height = %d, want 5", c.BestHeight())
	}
	if c.UtxoSize() != 5 {
		t.Fatalf("UTXO size = %d, want 5 coinbases", c.UtxoSize())
	}
}

func TestRejectBadPoW(t *testing.T) {
	c, clk := newTestChain(t)
	blk := mineEmpty(t, c, c.BestHash(), 1, clk.Advance(time.Minute), 0)
	blk.Header.Nonce++ // almost surely breaks the target
	if HashToBig(blk.BlockHash()).Cmp(CompactToBig(blk.Header.Bits)) <= 0 {
		t.Skip("nonce+1 accidentally still valid")
	}
	if _, err := c.ProcessBlock(blk); !errors.Is(err, ErrBadProofOfWork) {
		t.Errorf("want ErrBadProofOfWork, got %v", err)
	}
}

func TestRejectBadMerkleRoot(t *testing.T) {
	c, clk := newTestChain(t)
	blk := mineEmpty(t, c, c.BestHash(), 1, clk.Advance(time.Minute), 0)
	blk.Header.MerkleRoot[0] ^= 1
	solve(t, blk, c.Params())
	if _, err := c.ProcessBlock(blk); !errors.Is(err, ErrBadMerkleRoot) {
		t.Errorf("want ErrBadMerkleRoot, got %v", err)
	}
}

func TestRejectFutureTimestamp(t *testing.T) {
	c, clk := newTestChain(t)
	ts := clk.Now().Add(3 * time.Hour)
	blk := mineEmpty(t, c, c.BestHash(), 1, ts, 0)
	if _, err := c.ProcessBlock(blk); !errors.Is(err, ErrTimeTooNew) {
		t.Errorf("want ErrTimeTooNew, got %v", err)
	}
}

func TestRejectStaleTimestamp(t *testing.T) {
	c, clk := newTestChain(t)
	extend(t, c, clk, 12, 0)
	// A block at or before median-time-past must be rejected.
	blk := mineEmpty(t, c, c.BestHash(), c.BestHeight()+1, c.MedianTimePast(), 0)
	if _, err := c.ProcessBlock(blk); !errors.Is(err, ErrTimeTooOld) {
		t.Errorf("want ErrTimeTooOld, got %v", err)
	}
}

func TestDuplicateBlock(t *testing.T) {
	c, clk := newTestChain(t)
	blks := extend(t, c, clk, 1, 0)
	status, err := c.ProcessBlock(blks[0])
	if err != nil || status != StatusDuplicate {
		t.Errorf("resubmission: status=%v err=%v", status, err)
	}
}

func TestOrphanAdoption(t *testing.T) {
	c, clk := newTestChain(t)
	// Build two blocks but submit the child first.
	ts1 := clk.Advance(time.Minute)
	b1 := mineEmpty(t, c, c.BestHash(), 1, ts1, 0)
	ts2 := clk.Advance(time.Minute)
	b2 := mineEmpty(t, c, b1.BlockHash(), 2, ts2, 0)

	status, err := c.ProcessBlock(b2)
	if err != nil || status != StatusOrphan {
		t.Fatalf("child-first: status=%v err=%v", status, err)
	}
	if !c.HaveBlock(b2.BlockHash()) {
		t.Fatal("orphan not retained")
	}
	status, err = c.ProcessBlock(b1)
	if err != nil || status != StatusMainChain {
		t.Fatalf("parent: status=%v err=%v", status, err)
	}
	if c.BestHeight() != 2 {
		t.Fatalf("orphan not adopted: height=%d", c.BestHeight())
	}
}

func TestSideChainAndReorg(t *testing.T) {
	c, clk := newTestChain(t)
	mainBlks := extend(t, c, clk, 2, 0)
	mainTip := c.BestHash()

	// Build a competing branch from block 1 with different coinbase tags.
	forkBase := mainBlks[0].BlockHash()
	ts := clk.Advance(time.Minute)
	s1 := mineEmpty(t, c, forkBase, 2, ts, 0xaa)
	status, err := c.ProcessBlock(s1)
	if err != nil || status != StatusSideChain {
		t.Fatalf("side block: status=%v err=%v", status, err)
	}
	if c.BestHash() != mainTip {
		t.Fatal("side chain moved the tip")
	}

	// Extending the side chain past the main chain triggers a reorg.
	ts = clk.Advance(time.Minute)
	s2 := mineEmpty(t, c, s1.BlockHash(), 3, ts, 0xaa)
	status, err = c.ProcessBlock(s2)
	if err != nil {
		t.Fatalf("reorg block: %v", err)
	}
	if status != StatusMainChain {
		t.Fatalf("reorg status = %v", status)
	}
	if c.BestHash() != s2.BlockHash() || c.BestHeight() != 3 {
		t.Fatalf("tip after reorg: %s height %d", c.BestHash(), c.BestHeight())
	}

	// The disconnected block's coinbase must have left the tx index; the
	// new branch's coinbases must be present.
	if _, _, ok := c.BlockOf(mainBlks[1].Transactions[0].TxHash()); ok {
		t.Error("disconnected coinbase still indexed")
	}
	if _, _, ok := c.BlockOf(s2.Transactions[0].TxHash()); !ok {
		t.Error("new-branch coinbase not indexed")
	}
	// UTXO table: coinbases of heights 1 (shared), 2 and 3 (new branch).
	if c.UtxoSize() != 3 {
		t.Errorf("UTXO size after reorg = %d, want 3", c.UtxoSize())
	}
}

func TestReorgNotifications(t *testing.T) {
	c, clk := newTestChain(t)
	var log []string
	c.Subscribe(func(n Notification) {
		if n.Connected {
			log = append(log, "connect")
		} else {
			log = append(log, "disconnect")
		}
	})
	mainBlks := extend(t, c, clk, 2, 0)
	forkBase := mainBlks[0].BlockHash()
	ts := clk.Advance(time.Minute)
	s1 := mineEmpty(t, c, forkBase, 2, ts, 0xbb)
	if _, err := c.ProcessBlock(s1); err != nil {
		t.Fatal(err)
	}
	ts = clk.Advance(time.Minute)
	s2 := mineEmpty(t, c, s1.BlockHash(), 3, ts, 0xbb)
	if _, err := c.ProcessBlock(s2); err != nil {
		t.Fatal(err)
	}
	want := []string{"connect", "connect", "disconnect", "connect", "connect"}
	if len(log) != len(want) {
		t.Fatalf("event log %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("event log %v, want %v", log, want)
		}
	}
}

func TestConfirmations(t *testing.T) {
	c, clk := newTestChain(t)
	blks := extend(t, c, clk, 6, 0)
	cb := blks[0].Transactions[0].TxHash()
	if got := c.Confirmations(cb); got != 6 {
		t.Errorf("confirmations = %d, want 6", got)
	}
	if got := c.Confirmations(chainhash.HashB([]byte("unknown"))); got != 0 {
		t.Errorf("unknown tx confirmations = %d", got)
	}
	// Depth 5 => confirmed per params.
	if got := c.Confirmations(cb); got < c.Params().ConfirmationDepth+1 {
		t.Errorf("tx not confirmed at depth %d", got)
	}
}

func TestRejectPrematureCoinbaseSpend(t *testing.T) {
	// Covered end-to-end in the integration test; here we exercise
	// CheckTransactionInputs directly.
	view := NewUtxoView()
	cb := wire.NewMsgTx(wire.TxVersion)
	cb.AddTxIn(&wire.TxIn{PreviousOutPoint: wire.OutPoint{Hash: chainhash.ZeroHash, Index: 0xffffffff},
		SignatureScript: []byte{1, 2}})
	cb.AddTxOut(&wire.TxOut{Value: 100, PkScript: []byte{0x51}})
	view.add(cb, 10)

	spend := wire.NewMsgTx(wire.TxVersion)
	spend.AddTxIn(&wire.TxIn{PreviousOutPoint: wire.OutPoint{Hash: cb.TxHash(), Index: 0}})
	spend.AddTxOut(&wire.TxOut{Value: 90, PkScript: []byte{0x51}})

	if _, _, err := CheckTransactionInputs(spend, 15, view, 10); !errors.Is(err, ErrImmatureSpend) {
		t.Errorf("immature spend: %v", err)
	}
	fee, entries, err := CheckTransactionInputs(spend, 20, view, 10)
	if err != nil {
		t.Errorf("mature spend: %v", err)
	}
	if fee != 10 {
		t.Errorf("fee = %d, want 10", fee)
	}
	if len(entries) != 1 || entries[0] == nil || entries[0].Out.Value != 100 {
		t.Errorf("resolved entries = %v, want the 100-value coinbase output", entries)
	}
}

func TestCheckTransactionInputsMissing(t *testing.T) {
	view := NewUtxoView()
	spend := wire.NewMsgTx(wire.TxVersion)
	spend.AddTxIn(&wire.TxIn{PreviousOutPoint: wire.OutPoint{Hash: chainhash.HashB([]byte("x"))}})
	spend.AddTxOut(&wire.TxOut{Value: 1, PkScript: []byte{0x51}})
	if _, _, err := CheckTransactionInputs(spend, 1, view, 10); !errors.Is(err, ErrDoubleSpend) {
		t.Errorf("want ErrDoubleSpend, got %v", err)
	}
}

func TestTransactionSanity(t *testing.T) {
	// No inputs.
	tx := wire.NewMsgTx(wire.TxVersion)
	tx.AddTxOut(&wire.TxOut{Value: 1})
	if err := CheckTransactionSanity(tx); err == nil {
		t.Error("no-input tx accepted")
	}
	// No outputs.
	tx = wire.NewMsgTx(wire.TxVersion)
	tx.AddTxIn(&wire.TxIn{PreviousOutPoint: wire.OutPoint{Hash: chainhash.HashB([]byte("a"))}})
	if err := CheckTransactionSanity(tx); err == nil {
		t.Error("no-output tx accepted")
	}
	// Negative value.
	tx.AddTxOut(&wire.TxOut{Value: -5})
	if err := CheckTransactionSanity(tx); err == nil {
		t.Error("negative output accepted")
	}
	// Duplicate inputs (condition 3 of Section 2).
	tx = wire.NewMsgTx(wire.TxVersion)
	op := wire.OutPoint{Hash: chainhash.HashB([]byte("a")), Index: 1}
	tx.AddTxIn(&wire.TxIn{PreviousOutPoint: op})
	tx.AddTxIn(&wire.TxIn{PreviousOutPoint: op})
	tx.AddTxOut(&wire.TxOut{Value: 1})
	if err := CheckTransactionSanity(tx); err == nil {
		t.Error("duplicate-input tx accepted")
	}
}

func TestSpentJournal(t *testing.T) {
	c, clk := newTestChain(t)
	blks := extend(t, c, clk, 11, 0)
	cbTx := blks[0].Transactions[0]
	cbOut := wire.OutPoint{Hash: cbTx.TxHash(), Index: 0}

	if _, spent := c.IsSpent(cbOut); spent {
		t.Fatal("unspent output reported spent")
	}

	// Spend the (mature, anyone-can-spend) coinbase.
	spend := wire.NewMsgTx(wire.TxVersion)
	spend.AddTxIn(&wire.TxIn{PreviousOutPoint: cbOut, SignatureScript: nil, Sequence: wire.MaxTxInSequenceNum})
	spend.AddTxOut(&wire.TxOut{Value: cbTx.TxOut[0].Value - 1000, PkScript: []byte{0x51}})

	ts := clk.Advance(time.Minute)
	height := c.BestHeight() + 1
	coinbase := wire.NewMsgTx(wire.TxVersion)
	coinbase.AddTxIn(&wire.TxIn{
		PreviousOutPoint: wire.OutPoint{Hash: chainhash.ZeroHash, Index: 0xffffffff},
		SignatureScript:  []byte{byte(height), 0x99},
		Sequence:         wire.MaxTxInSequenceNum,
	})
	coinbase.AddTxOut(&wire.TxOut{
		Value:    c.Params().CalcBlockSubsidy(height) + 1000,
		PkScript: []byte{0x51},
	})
	blk := &wire.MsgBlock{
		Header: wire.BlockHeader{
			Version:    1,
			PrevBlock:  c.BestHash(),
			MerkleRoot: wire.ComputeMerkleRoot([]*wire.MsgTx{coinbase, spend}),
			Timestamp:  ts,
			Bits:       c.Params().PowLimitBits,
		},
		Transactions: []*wire.MsgTx{coinbase, spend},
	}
	solve(t, blk, c.Params())
	if _, err := c.ProcessBlock(blk); err != nil {
		t.Fatalf("spend block: %v", err)
	}

	rec, spent := c.IsSpent(cbOut)
	if !spent {
		t.Fatal("spent output not journaled")
	}
	if rec.Spender != spend.TxHash() {
		t.Errorf("journal spender = %s, want %s", rec.Spender, spend.TxHash())
	}
	if rec.Height != height {
		t.Errorf("journal height = %d, want %d", rec.Height, height)
	}

	// A second spend of the same output must be rejected: the affine
	// invariant between transactions (paper, Section 3).
	double := wire.NewMsgTx(wire.TxVersion)
	double.AddTxIn(&wire.TxIn{PreviousOutPoint: cbOut, Sequence: wire.MaxTxInSequenceNum})
	double.AddTxOut(&wire.TxOut{Value: 1000, PkScript: []byte{0x51}})
	ts = clk.Advance(time.Minute)
	height = c.BestHeight() + 1
	cb2 := wire.NewMsgTx(wire.TxVersion)
	cb2.AddTxIn(&wire.TxIn{
		PreviousOutPoint: wire.OutPoint{Hash: chainhash.ZeroHash, Index: 0xffffffff},
		SignatureScript:  []byte{byte(height), 0x98},
		Sequence:         wire.MaxTxInSequenceNum,
	})
	cb2.AddTxOut(&wire.TxOut{Value: c.Params().CalcBlockSubsidy(height), PkScript: []byte{0x51}})
	blk2 := &wire.MsgBlock{
		Header: wire.BlockHeader{
			Version:    1,
			PrevBlock:  c.BestHash(),
			MerkleRoot: wire.ComputeMerkleRoot([]*wire.MsgTx{cb2, double}),
			Timestamp:  ts,
			Bits:       c.Params().PowLimitBits,
		},
		Transactions: []*wire.MsgTx{cb2, double},
	}
	solve(t, blk2, c.Params())
	if _, err := c.ProcessBlock(blk2); !errors.Is(err, ErrDoubleSpend) {
		t.Errorf("double spend: want ErrDoubleSpend, got %v", err)
	}
}

func TestCompactBigRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		// Interpret v as a compact; skip negatives and zero mantissas.
		b := CompactToBig(v)
		if b.Sign() <= 0 {
			return true
		}
		// Round-tripping the *value* may renormalize the encoding, so
		// compare values.
		return CompactToBig(BigToCompact(b)).Cmp(b) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCalcWorkMonotonic(t *testing.T) {
	easy := RegTestParams().PowLimitBits
	harder := BigToCompact(new(big.Int).Rsh(regTestPowLimit, 8))
	if CalcWork(harder).Cmp(CalcWork(easy)) <= 0 {
		t.Error("harder target should carry more work")
	}
}

func TestCheckProofOfWorkLimits(t *testing.T) {
	p := RegTestParams()
	var h chainhash.Hash // zero hash is below any positive target
	if err := CheckProofOfWork(h, p.PowLimitBits, p.PowLimit); err != nil {
		t.Errorf("zero hash rejected: %v", err)
	}
	// A target above the limit is invalid even with a winning hash.
	above := BigToCompact(new(big.Int).Lsh(p.PowLimit, 1))
	if err := CheckProofOfWork(h, above, p.PowLimit); err == nil {
		t.Error("target above limit accepted")
	}
}

func TestSubsidyHalving(t *testing.T) {
	p := RegTestParams()
	if p.CalcBlockSubsidy(0) != p.BaseSubsidy {
		t.Error("initial subsidy wrong")
	}
	if p.CalcBlockSubsidy(p.SubsidyHalvingInterval) != p.BaseSubsidy/2 {
		t.Error("subsidy did not halve")
	}
	if p.CalcBlockSubsidy(p.SubsidyHalvingInterval*64) != 0 {
		t.Error("subsidy did not reach zero")
	}
}

func TestDifficultyRetarget(t *testing.T) {
	// A retargeting chain: blocks come in at half the target spacing, so
	// difficulty should increase (target decrease) at the boundary.
	params := RegTestParams()
	params.NoRetarget = false
	params.RetargetInterval = 8
	params.TargetTimespan = 8 * 10 * time.Minute
	clk := clock.NewSimulated(params.GenesisBlock.Header.Timestamp.Add(time.Minute))
	c := New(params, clk)

	for i := 0; i < 7; i++ {
		ts := clk.Advance(5 * time.Minute) // twice as fast as target
		blk := mineEmpty(t, c, c.BestHash(), c.BestHeight()+1, ts, 0)
		blk.Header.Bits = c.NextRequiredDifficulty()
		solve(t, blk, params)
		if _, err := c.ProcessBlock(blk); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
	}
	// Height 8 is the retarget boundary.
	next := c.NextRequiredDifficulty()
	if next == params.PowLimitBits {
		t.Error("difficulty did not increase despite fast blocks")
	}
	if CompactToBig(next).Cmp(CompactToBig(params.PowLimitBits)) >= 0 {
		t.Error("new target is not below the limit")
	}
}

func TestIntraBlockDoubleSpendRejected(t *testing.T) {
	// Two transactions in ONE block spending the same output: the block
	// is invalid even though each transaction is individually fine.
	c, clk := newTestChain(t)
	blks := extend(t, c, clk, 11, 0)
	cbTx := blks[0].Transactions[0]
	cbOut := wire.OutPoint{Hash: cbTx.TxHash(), Index: 0}

	mkSpend := func(tag byte) *wire.MsgTx {
		tx := wire.NewMsgTx(wire.TxVersion)
		tx.AddTxIn(&wire.TxIn{PreviousOutPoint: cbOut, Sequence: wire.MaxTxInSequenceNum})
		tx.AddTxOut(&wire.TxOut{Value: cbTx.TxOut[0].Value - 1000, PkScript: []byte{0x51, tag}})
		return tx
	}
	s1, s2 := mkSpend(0x51), mkSpend(0x52)

	ts := clk.Advance(time.Minute)
	height := c.BestHeight() + 1
	coinbase := wire.NewMsgTx(wire.TxVersion)
	coinbase.AddTxIn(&wire.TxIn{
		PreviousOutPoint: wire.OutPoint{Hash: chainhash.ZeroHash, Index: 0xffffffff},
		SignatureScript:  []byte{byte(height), 0x77},
		Sequence:         wire.MaxTxInSequenceNum,
	})
	coinbase.AddTxOut(&wire.TxOut{Value: c.Params().CalcBlockSubsidy(height) + 2000, PkScript: []byte{0x51}})
	blk := &wire.MsgBlock{
		Header: wire.BlockHeader{
			Version:    1,
			PrevBlock:  c.BestHash(),
			MerkleRoot: wire.ComputeMerkleRoot([]*wire.MsgTx{coinbase, s1, s2}),
			Timestamp:  ts,
			Bits:       c.Params().PowLimitBits,
		},
		Transactions: []*wire.MsgTx{coinbase, s1, s2},
	}
	solve(t, blk, c.Params())
	if _, err := c.ProcessBlock(blk); !errors.Is(err, ErrDoubleSpend) {
		t.Errorf("want ErrDoubleSpend, got %v", err)
	}
	// The failed connect must not have corrupted the UTXO view: the
	// coinbase output is still spendable in a clean block.
	if c.LookupUtxo(cbOut) == nil {
		t.Error("rolled-back block consumed the output anyway")
	}
	if c.BestHeight() != 11 {
		t.Errorf("height = %d after invalid block", c.BestHeight())
	}
}

func TestGreedyCoinbaseRejected(t *testing.T) {
	c, clk := newTestChain(t)
	ts := clk.Advance(time.Minute)
	blk := mineEmpty(t, c, c.BestHash(), 1, ts, 0)
	// Inflate the subsidy and re-solve. The direct field write bypasses
	// the tx mutators, so drop the memoized hash by hand.
	blk.Transactions[0].TxOut[0].Value = c.Params().CalcBlockSubsidy(1) + 1
	blk.Transactions[0].InvalidateCache()
	blk.Header.MerkleRoot = wire.ComputeMerkleRoot(blk.Transactions)
	solve(t, blk, c.Params())
	if _, err := c.ProcessBlock(blk); !errors.Is(err, ErrBadCoinbase) {
		t.Errorf("want ErrBadCoinbase, got %v", err)
	}
}

func TestSpendJournalRollsBackOnReorg(t *testing.T) {
	// A spend recorded on the main chain must leave the journal when its
	// block is disconnected — otherwise spent(txid.n) conditions would be
	// judged against orphaned history.
	c, clk := newTestChain(t)
	blks := extend(t, c, clk, 11, 0)
	cbTx := blks[0].Transactions[0]
	cbOut := wire.OutPoint{Hash: cbTx.TxHash(), Index: 0}

	// Block 12 (main) spends the mature coinbase.
	spend := wire.NewMsgTx(wire.TxVersion)
	spend.AddTxIn(&wire.TxIn{PreviousOutPoint: cbOut, Sequence: wire.MaxTxInSequenceNum})
	spend.AddTxOut(&wire.TxOut{Value: cbTx.TxOut[0].Value - 1000, PkScript: []byte{0x51}})
	ts := clk.Advance(time.Minute)
	height := c.BestHeight() + 1
	cb12 := wire.NewMsgTx(wire.TxVersion)
	cb12.AddTxIn(&wire.TxIn{
		PreviousOutPoint: wire.OutPoint{Hash: chainhash.ZeroHash, Index: 0xffffffff},
		SignatureScript:  []byte{byte(height), 0x42},
		Sequence:         wire.MaxTxInSequenceNum,
	})
	cb12.AddTxOut(&wire.TxOut{Value: c.Params().CalcBlockSubsidy(height) + 1000, PkScript: []byte{0x51}})
	blk12 := &wire.MsgBlock{
		Header: wire.BlockHeader{
			Version:    1,
			PrevBlock:  c.BestHash(),
			MerkleRoot: wire.ComputeMerkleRoot([]*wire.MsgTx{cb12, spend}),
			Timestamp:  ts,
			Bits:       c.Params().PowLimitBits,
		},
		Transactions: []*wire.MsgTx{cb12, spend},
	}
	solve(t, blk12, c.Params())
	if _, err := c.ProcessBlock(blk12); err != nil {
		t.Fatal(err)
	}
	if _, spent := c.IsSpent(cbOut); !spent {
		t.Fatal("spend not journaled")
	}

	// A competing branch from height 11 with two empty blocks reorgs the
	// spend away.
	fork := blks[10].BlockHash()
	ts = clk.Advance(time.Minute)
	s1 := mineEmpty(t, c, fork, 12, ts, 0xcc)
	if _, err := c.ProcessBlock(s1); err != nil {
		t.Fatal(err)
	}
	ts = clk.Advance(time.Minute)
	s2 := mineEmpty(t, c, s1.BlockHash(), 13, ts, 0xcc)
	if _, err := c.ProcessBlock(s2); err != nil {
		t.Fatal(err)
	}
	if c.BestHash() != s2.BlockHash() {
		t.Fatal("reorg did not take")
	}
	if _, spent := c.IsSpent(cbOut); spent {
		t.Error("orphaned spend still journaled after reorg")
	}
	if c.LookupUtxo(cbOut) == nil {
		t.Error("reorged-away spend did not restore the UTXO")
	}
}

func TestSubsidyHalvingOnChain(t *testing.T) {
	// Cross the regtest halving boundary (150 blocks) and check the
	// consensus actually enforces the halved subsidy.
	c, clk := newTestChain(t)
	extend(t, c, clk, 149, 0)
	// Block 150 claiming the un-halved subsidy is rejected.
	ts := clk.Advance(time.Minute)
	greedy := mineEmpty(t, c, c.BestHash(), 150, ts, 0)
	greedy.Transactions[0].TxOut[0].Value = c.Params().BaseSubsidy
	greedy.Transactions[0].InvalidateCache()
	greedy.Header.MerkleRoot = wire.ComputeMerkleRoot(greedy.Transactions)
	solve(t, greedy, c.Params())
	if _, err := c.ProcessBlock(greedy); !errors.Is(err, ErrBadCoinbase) {
		t.Errorf("un-halved coinbase at 150: %v", err)
	}
	// The correct halved subsidy is accepted (mineEmpty uses
	// CalcBlockSubsidy).
	honest := mineEmpty(t, c, c.BestHash(), 150, ts, 1)
	if honest.Transactions[0].TxOut[0].Value != c.Params().BaseSubsidy/2 {
		t.Fatalf("halved subsidy = %d", honest.Transactions[0].TxOut[0].Value)
	}
	if _, err := c.ProcessBlock(honest); err != nil {
		t.Fatalf("halved coinbase rejected: %v", err)
	}
}

// reorgOnto connects a branch of n empty blocks forking at the main-chain
// block at height fork, and fails unless it becomes the main chain.
func reorgOnto(t *testing.T, c *Chain, clk *clock.Simulated, fork, n int) {
	t.Helper()
	forkBlk, ok := c.BlockAtHeight(fork)
	if !ok {
		t.Fatalf("no main-chain block at height %d", fork)
	}
	branch := mineBranch(t, c, clk, forkBlk.BlockHash(), fork, n, 0xee)
	for _, blk := range branch {
		if _, err := c.ProcessBlock(blk); err != nil {
			t.Fatalf("reorg branch block: %v", err)
		}
	}
	if want := branch[n-1].BlockHash(); c.BestHash() != want {
		t.Fatalf("tip = %s at height %d, want the branch tip", c.BestHash(), c.BestHeight())
	}
	if err := c.AuditFromGenesis(); err != nil {
		t.Fatalf("audit after reorg: %v", err)
	}
}

func TestReincludedTxRollsBackOnlyWhatItApplied(t *testing.T) {
	// A block re-including confirmed transaction T is rejected. Its
	// rollback must leave T's outputs and location alone: a later
	// disconnect of T's spender derives its undo list from them.
	c, clk := newTestChain(t)
	blks := extend(t, c, clk, 11, 0)
	cb := blks[0].Transactions[0]
	tx := wire.NewMsgTx(wire.TxVersion)
	tx.AddTxIn(&wire.TxIn{PreviousOutPoint: wire.OutPoint{Hash: cb.TxHash()}, Sequence: wire.MaxTxInSequenceNum})
	half := (cb.TxOut[0].Value - 1000) / 2
	tx.AddTxOut(&wire.TxOut{Value: half, PkScript: []byte{0x51}})
	tx.AddTxOut(&wire.TxOut{Value: half, PkScript: []byte{0x51}})
	mustProcessBlocks(t, c, []*wire.MsgBlock{
		mineBlock(t, c, c.BestHash(), 12, clk.Advance(time.Minute), 0, 1000, tx),
	})
	unspent := wire.OutPoint{Hash: tx.TxHash(), Index: 0}
	mineSpend(t, c, clk, wire.OutPoint{Hash: tx.TxHash(), Index: 1}, half, 1) // height 13

	again := mineBlock(t, c, c.BestHash(), 14, clk.Advance(time.Minute), 2, 0, tx)
	if status, err := c.ProcessBlock(again); status != StatusInvalid || err == nil {
		t.Fatalf("re-included tx: status %v, err %v; want invalid", status, err)
	}
	if e := c.LookupUtxo(unspent); e == nil || e.Height != 12 {
		t.Fatalf("rollback touched T's unspent output: %+v", e)
	}
	if h, i, ok := c.TxPosition(tx.TxHash()); !ok || h != 12 || i != 1 {
		t.Fatalf("TxPosition(T) = %d, %d, %v; want 12, 1, true", h, i, ok)
	}
	reorgOnto(t, c, clk, 12, 2)
	if c.LookupUtxo(wire.OutPoint{Hash: tx.TxHash(), Index: 1}) == nil {
		t.Error("disconnected spend did not restore T's output")
	}
}

func TestDuplicateCoinbaseRejected(t *testing.T) {
	// A block whose coinbase repeats an earlier main-chain coinbase byte
	// for byte would overwrite the original's outputs and location; the
	// chain refuses it, and a reorg across a spend of the original
	// still derives that spend's undo entry.
	c, clk := newTestChain(t)
	blks := extend(t, c, clk, 11, 0)
	orig := blks[0].Transactions[0]
	op := wire.OutPoint{Hash: orig.TxHash()}
	mineSpend(t, c, clk, op, orig.TxOut[0].Value, 1) // height 12

	// mineEmpty's coinbase is a function of (height, tag) only: asking
	// for height 1 on top of the tip rebuilds the original exactly.
	dup := mineEmpty(t, c, c.BestHash(), 1, clk.Advance(time.Minute), 0)
	if dup.Transactions[0].TxHash() != orig.TxHash() {
		t.Fatal("fixture: coinbase is not a duplicate")
	}
	if status, err := c.ProcessBlock(dup); status != StatusInvalid || !errors.Is(err, ErrDuplicateTx) {
		t.Fatalf("duplicate coinbase: status %v, err %v; want ErrDuplicateTx", status, err)
	}
	if _, spent := c.IsSpent(op); !spent || c.LookupUtxo(op) != nil {
		t.Fatal("rejected duplicate resurrected the spent original")
	}
	reorgOnto(t, c, clk, 11, 2)
	if c.LookupUtxo(op) == nil {
		t.Error("disconnected spend did not restore the original coinbase output")
	}
}
