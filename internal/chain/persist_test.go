package chain

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"typecoin/internal/chainhash"
	"typecoin/internal/clock"
	"typecoin/internal/store"
	"typecoin/internal/telemetry"
	"typecoin/internal/wire"
)

func openFileChain(t testing.TB, dir string, clk clock.Clock) (*Chain, *store.File) {
	t.Helper()
	st, err := store.OpenFile(dir)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	c, err := Open(Config{Params: RegTestParams(), Clock: clk, Store: st})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return c, st
}

// mineSpend builds and connects a block whose second transaction spends
// the given anyone-can-spend outpoint, paying its value (minus a fee
// folded into the coinbase) back to an anyone-can-spend output.
func mineSpend(t testing.TB, c *Chain, clk *clock.Simulated, out wire.OutPoint, value int64, tag byte) *wire.MsgTx {
	t.Helper()
	spend := wire.NewMsgTx(wire.TxVersion)
	spend.AddTxIn(&wire.TxIn{PreviousOutPoint: out, Sequence: wire.MaxTxInSequenceNum})
	spend.AddTxOut(&wire.TxOut{Value: value - 1000, PkScript: []byte{0x51}})

	ts := clk.Advance(time.Minute)
	height := c.BestHeight() + 1
	coinbase := wire.NewMsgTx(wire.TxVersion)
	coinbase.AddTxIn(&wire.TxIn{
		PreviousOutPoint: wire.OutPoint{Hash: chainhash.ZeroHash, Index: 0xffffffff},
		SignatureScript:  []byte{byte(height), byte(height >> 8), tag},
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
	if status, err := c.ProcessBlock(blk); err != nil || status != StatusMainChain {
		t.Fatalf("spend block: status %v, err %v", status, err)
	}
	return spend
}

// TestSpanDurableOverRetryStore runs a chain over the daemon's default
// store stack (the health wrapper over an engine) with spans on: a
// submitted transaction's span must reach the durable stage when the
// block carrying it connects, since that is when its batch was applied.
func TestSpanDurableOverRetryStore(t *testing.T) {
	params := RegTestParams()
	clk := clock.NewSimulated(params.GenesisBlock.Header.Timestamp.Add(time.Minute))
	st := store.NewRetry(store.NewMem(), store.RetryConfig{})
	defer st.Close()
	c, err := Open(Config{Params: params, Clock: clk, Store: st})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	spans := telemetry.NewSpanStore(0, clk)
	c.SetSpans(spans)
	blks := extend(t, c, clk, params.CoinbaseMaturity+1, 0)

	// The spend mineSpend will build, so its span exists before the
	// block does — as a wallet submission would have made it.
	cbTx := blks[0].Transactions[0]
	cbOut := wire.OutPoint{Hash: cbTx.TxHash(), Index: 0}
	want := wire.NewMsgTx(wire.TxVersion)
	want.AddTxIn(&wire.TxIn{PreviousOutPoint: cbOut, Sequence: wire.MaxTxInSequenceNum})
	want.AddTxOut(&wire.TxOut{Value: cbTx.TxOut[0].Value - 1000, PkScript: []byte{0x51}})
	txid := want.TxHash()
	spans.Record(telemetry.SpanTx, txid, telemetry.StageSubmitted)

	if got := mineSpend(t, c, clk, cbOut, cbTx.TxOut[0].Value, 0x42).TxHash(); got != txid {
		t.Fatalf("mined spend %s, span tracks %s", got, txid)
	}
	snap, ok := spans.Snapshot(txid)
	if !ok {
		t.Fatal("span evicted")
	}
	stages := make(map[string]bool)
	for _, m := range snap.Stages {
		stages[m.Stage] = true
	}
	for _, s := range []string{telemetry.StageMined, telemetry.StageConnected, telemetry.StageDurable} {
		if !stages[s] {
			t.Errorf("span after connect lacks %q: %+v", s, snap.Stages)
		}
	}
	if snap.Height != c.BestHeight() {
		t.Errorf("span height %d, tip %d", snap.Height, c.BestHeight())
	}
}

// TestReopenPreservesChain closes a file-backed chain and reopens the
// same directory: tip, UTXO set, spend journal and the transaction index
// must all come back, and the from-genesis audit must pass on the
// reloaded state.
func TestReopenPreservesChain(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	params := RegTestParams()
	clk := clock.NewSimulated(params.GenesisBlock.Header.Timestamp.Add(time.Minute))

	c, st := openFileChain(t, dir, clk)
	blks := extend(t, c, clk, 12, 0)
	cbTx := blks[0].Transactions[0]
	cbOut := wire.OutPoint{Hash: cbTx.TxHash(), Index: 0}
	spend := mineSpend(t, c, clk, cbOut, cbTx.TxOut[0].Value, 0x42)

	wantHash, wantHeight := c.BestHash(), c.BestHeight()
	wantUtxos := c.UtxoOutpoints()
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	c2, st2 := openFileChain(t, dir, clk)
	defer st2.Close()
	if got := c2.BestHash(); got != wantHash {
		t.Fatalf("reopened tip = %s, want %s", got, wantHash)
	}
	if got := c2.BestHeight(); got != wantHeight {
		t.Fatalf("reopened height = %d, want %d", got, wantHeight)
	}
	if got := len(c2.UtxoOutpoints()); got != len(wantUtxos) {
		t.Fatalf("reopened UTXO size = %d, want %d", got, len(wantUtxos))
	}
	for _, op := range wantUtxos {
		if c2.LookupUtxo(op) == nil {
			t.Fatalf("utxo %v missing after reopen", op)
		}
	}
	rec, spent := c2.IsSpent(cbOut)
	if !spent || rec.Spender != spend.TxHash() {
		t.Fatalf("spend journal lost: spent=%v rec=%+v", spent, rec)
	}
	if _, ok := c2.TxByID(spend.TxHash()); !ok {
		t.Fatal("transaction index not rebuilt")
	}
	if err := c2.AuditFromGenesis(); err != nil {
		t.Fatalf("audit after reopen: %v", err)
	}
}

// TestReorgAfterReopen persists a main chain and a lighter side branch,
// reopens the store, then extends the side branch past the main chain:
// the reorganization must succeed using only store-loaded state — in
// particular the spend journals of the blocks being disconnected.
func TestReorgAfterReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	params := RegTestParams()
	clk := clock.NewSimulated(params.GenesisBlock.Header.Timestamp.Add(time.Minute))

	c, st := openFileChain(t, dir, clk)
	blks := extend(t, c, clk, 12, 0)
	forkHash := c.BestHash() // height 12
	forkHeight := c.BestHeight()

	// Main branch gains one more block spending an early coinbase.
	cbTx := blks[0].Transactions[0]
	cbOut := wire.OutPoint{Hash: cbTx.TxHash(), Index: 0}
	mineSpend(t, c, clk, cbOut, cbTx.TxOut[0].Value, 0x42)

	// A competing branch from the fork point, same length: side chain.
	ts := clk.Advance(time.Minute)
	side1 := mineEmpty(t, c, forkHash, forkHeight+1, ts, 0x77)
	if status, err := c.ProcessBlock(side1); err != nil || status != StatusSideChain {
		t.Fatalf("side block: status %v, err %v", status, err)
	}

	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	c2, st2 := openFileChain(t, dir, clk)
	defer st2.Close()
	if !c2.HaveBlock(side1.BlockHash()) {
		t.Fatal("side block lost across reopen")
	}
	if _, spent := c2.IsSpent(cbOut); !spent {
		t.Fatal("spend journal lost across reopen")
	}

	// Extending the side branch now outweighs the main chain and forces
	// a reorg that disconnects the reloaded spend block.
	ts = clk.Advance(time.Minute)
	side2 := mineEmpty(t, c2, side1.BlockHash(), forkHeight+2, ts, 0x78)
	if status, err := c2.ProcessBlock(side2); err != nil || status != StatusMainChain {
		t.Fatalf("reorg block: status %v, err %v", status, err)
	}
	if got := c2.BestHash(); got != side2.BlockHash() {
		t.Fatalf("tip after reorg = %s, want %s", got, side2.BlockHash())
	}
	// The disconnected spend must be undone: the coinbase output is
	// unspent again.
	if _, spent := c2.IsSpent(cbOut); spent {
		t.Fatal("reorged-away spend still journaled")
	}
	if c2.LookupUtxo(cbOut) == nil {
		t.Fatal("reorged-away spend not restored to UTXO set")
	}
	if err := c2.AuditFromGenesis(); err != nil {
		t.Fatalf("audit after reorg: %v", err)
	}

	// And the reorged state survives another reopen.
	if err := st2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	c3, st3 := openFileChain(t, dir, clk)
	defer st3.Close()
	if got := c3.BestHash(); got != side2.BlockHash() {
		t.Fatalf("tip after second reopen = %s, want %s", got, side2.BlockHash())
	}
	if err := c3.AuditFromGenesis(); err != nil {
		t.Fatalf("audit after second reopen: %v", err)
	}
}

// TestIntraBlockSpendDisconnect reorgs away a block that both creates
// and spends an output in the same block: after the disconnect the
// intermediate outpoint must not reappear in the UTXO set (regression
// test for restore-then-remove ordering).
func TestIntraBlockSpendDisconnect(t *testing.T) {
	c, clk := newTestChain(t)
	// The persist hook and the subscribers see one event per change: the
	// same block, direction and spends, inside and after the commit.
	var hooked, notified []Notification
	c.SubscribePersist(func(n Notification, _ *store.Batch) { hooked = append(hooked, n) })
	c.Subscribe(func(n Notification) { notified = append(notified, n) })
	blks := extend(t, c, clk, 12, 0)
	forkHash := c.BestHash()
	forkHeight := c.BestHeight()

	// Block 13: coinbase, spendA (consumes blks[0] coinbase), spendB
	// (consumes spendA's output — the intra-block chain).
	cbTx := blks[0].Transactions[0]
	spendA := wire.NewMsgTx(wire.TxVersion)
	spendA.AddTxIn(&wire.TxIn{
		PreviousOutPoint: wire.OutPoint{Hash: cbTx.TxHash(), Index: 0},
		Sequence:         wire.MaxTxInSequenceNum,
	})
	spendA.AddTxOut(&wire.TxOut{Value: cbTx.TxOut[0].Value - 1000, PkScript: []byte{0x51}})
	midOut := wire.OutPoint{Hash: spendA.TxHash(), Index: 0}
	spendB := wire.NewMsgTx(wire.TxVersion)
	spendB.AddTxIn(&wire.TxIn{PreviousOutPoint: midOut, Sequence: wire.MaxTxInSequenceNum})
	spendB.AddTxOut(&wire.TxOut{Value: spendA.TxOut[0].Value - 1000, PkScript: []byte{0x51}})

	ts := clk.Advance(time.Minute)
	height := forkHeight + 1
	coinbase := wire.NewMsgTx(wire.TxVersion)
	coinbase.AddTxIn(&wire.TxIn{
		PreviousOutPoint: wire.OutPoint{Hash: chainhash.ZeroHash, Index: 0xffffffff},
		SignatureScript:  []byte{byte(height), byte(height >> 8), 0x99},
		Sequence:         wire.MaxTxInSequenceNum,
	})
	coinbase.AddTxOut(&wire.TxOut{
		Value:    c.Params().CalcBlockSubsidy(height) + 2000,
		PkScript: []byte{0x51},
	})
	txs := []*wire.MsgTx{coinbase, spendA, spendB}
	blk := &wire.MsgBlock{
		Header: wire.BlockHeader{
			Version:    1,
			PrevBlock:  forkHash,
			MerkleRoot: wire.ComputeMerkleRoot(txs),
			Timestamp:  ts,
			Bits:       c.Params().PowLimitBits,
		},
		Transactions: txs,
	}
	solve(t, blk, c.Params())
	if status, err := c.ProcessBlock(blk); err != nil || status != StatusMainChain {
		t.Fatalf("chained-spend block: status %v, err %v", status, err)
	}
	if c.LookupUtxo(midOut) != nil {
		t.Fatal("intra-block-spent output in UTXO set while connected")
	}

	// Reorg the chained-spend block away with a heavier branch.
	ts = clk.Advance(time.Minute)
	side1 := mineEmpty(t, c, forkHash, forkHeight+1, ts, 0x77)
	if _, err := c.ProcessBlock(side1); err != nil {
		t.Fatalf("side block: %v", err)
	}
	ts = clk.Advance(time.Minute)
	side2 := mineEmpty(t, c, side1.BlockHash(), forkHeight+2, ts, 0x78)
	if status, err := c.ProcessBlock(side2); err != nil || status != StatusMainChain {
		t.Fatalf("reorg block: status %v, err %v", status, err)
	}

	if c.LookupUtxo(midOut) != nil {
		t.Fatal("intermediate outpoint resurrected by disconnect")
	}
	if c.LookupUtxo(wire.OutPoint{Hash: cbTx.TxHash(), Index: 0}) == nil {
		t.Fatal("original coinbase output not restored by disconnect")
	}
	if err := c.AuditFromGenesis(); err != nil {
		t.Fatalf("audit after intra-block reorg: %v", err)
	}

	if !reflect.DeepEqual(hooked, notified) {
		t.Fatalf("persist hook saw %d events, subscribers %d, and they differ", len(hooked), len(notified))
	}
	// Connect 13, then the reorg: disconnect 13, connect side1, side2.
	want := []SpentOutput{
		{OutPoint: wire.OutPoint{Hash: cbTx.TxHash(), Index: 0}, Entry: &UtxoEntry{Out: *cbTx.TxOut[0], Height: 1, IsCoinBase: true}},
		{OutPoint: midOut, Entry: &UtxoEntry{Out: *spendA.TxOut[0], Height: height}},
	}
	evs := notified[len(notified)-4:]
	for i, dir := range []bool{true, false} {
		if ev := evs[i]; ev.Connected != dir || ev.Block != blk || !reflect.DeepEqual(ev.Spent, want) {
			t.Fatalf("event %d: connected %v, block %s, spent %v; want %v, %s, %v",
				i, ev.Connected, ev.Block.BlockHash(), ev.Spent, dir, blk.BlockHash(), want)
		}
	}
}

// TestStoreFailureRejectsBlock kills the store on a block's commit: the
// block must be rejected and the resident chain state left exactly as it
// was before the block arrived — memory never runs ahead of disk.
func TestStoreFailureRejectsBlock(t *testing.T) {
	params := RegTestParams()
	clk := clock.NewSimulated(params.GenesisBlock.Header.Timestamp.Add(time.Minute))
	// Apply 1 is the genesis bootstrap; applies 2-4 connect three blocks;
	// apply 5 dies mid-commit.
	faulty := store.NewFaultEngine(store.NewMem(), 0)
	faulty.Inject(store.FaultRule{Op: store.OpApply, Kind: store.KindKill,
		Mode: store.ModeOneShot, After: 4, TearBytes: -1})
	c, err := Open(Config{Params: params, Clock: clk, Store: faulty})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	extend(t, c, clk, 3, 0)

	beforeHash, beforeHeight := c.BestHash(), c.BestHeight()
	beforeUtxos := c.UtxoSize()

	blk := mineEmpty(t, c, beforeHash, beforeHeight+1, clk.Advance(time.Minute), 0)
	status, err := c.ProcessBlock(blk)
	if !errors.Is(err, store.ErrClosed) {
		t.Fatalf("ProcessBlock on dead store: status %v, err %v, want ErrClosed", status, err)
	}
	if got := c.BestHash(); got != beforeHash {
		t.Fatalf("tip moved despite failed commit: %s", got)
	}
	if got := c.BestHeight(); got != beforeHeight {
		t.Fatalf("height moved despite failed commit: %d", got)
	}
	if got := c.UtxoSize(); got != beforeUtxos {
		t.Fatalf("UTXO size changed despite failed commit: %d, want %d", got, beforeUtxos)
	}
	if c.HaveBlock(blk.BlockHash()) {
		t.Fatal("rejected block remained in the index")
	}
}

// TestOpenRejectsTamperedState corrupts the persisted main-chain index
// and verifies Open refuses to load it.
func TestOpenRejectsTamperedState(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	params := RegTestParams()
	clk := clock.NewSimulated(params.GenesisBlock.Header.Timestamp.Add(time.Minute))

	c, st := openFileChain(t, dir, clk)
	extend(t, c, clk, 3, 0)
	// Point height 2 at the block stored for height 3.
	h3, _ := c.BlockAtHeight(3)
	wrong := h3.BlockHash()
	b := store.NewBatch()
	b.Put([]byte{'m', 0, 0, 0, 2}, wrong[:])
	if err := st.Apply(b); err != nil {
		t.Fatalf("tamper: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer st2.Close()
	if _, err := Open(Config{Params: params, Clock: clk, Store: st2}); !errors.Is(err, ErrCorruptState) {
		t.Fatalf("Open on tampered state: err %v, want ErrCorruptState", err)
	}
}
