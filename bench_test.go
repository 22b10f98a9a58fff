// Package typecoin_bench holds micro-benchmarks for the hot paths (run
// `go test -bench=. -benchmem .`): block connect, store reopen, proof
// checking, transaction verification, script execution, mining, index
// queries and header sync. They are probes for finding a cause; the
// experiment tables of EXPERIMENTS.md are produced by cmd/tcbench.
package typecoin_bench

import (
	"net/http"
	"net/http/httptest"

	"os"
	"syscall"
	"testing"
	"time"

	"typecoin/internal/bench"
	"typecoin/internal/bkey"
	"typecoin/internal/chain"
	"typecoin/internal/chainhash"
	"typecoin/internal/clock"
	"typecoin/internal/index"
	"typecoin/internal/lf"
	"typecoin/internal/logic"
	"typecoin/internal/mempool"
	"typecoin/internal/miner"
	"typecoin/internal/proof"
	"typecoin/internal/script"
	"typecoin/internal/sigcache"
	"typecoin/internal/store"
	"typecoin/internal/telemetry"
	"typecoin/internal/testutil"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

// --- block-connect pipeline benchmarks ---

// connectBenchSetup holds a pre-built, pre-solved chain whose final
// block carries 64 transactions of 4 signed P2PKH inputs each (256
// signature checks). Iterations replay the funding blocks on a fresh
// chain outside the timer and measure only the final ProcessBlock.
type connectBenchSetup struct {
	params  *chain.Params
	clk     *clock.Simulated
	funding []*wire.MsgBlock // heights 1..12: coinbases + the fan-out split
	final   *wire.MsgBlock   // height 13: the measured block
}

const (
	connectBenchTxs    = 64
	connectBenchInputs = 4
)

func newConnectBenchSetup(b *testing.B) *connectBenchSetup {
	b.Helper()
	params := chain.RegTestParams()
	base := params.GenesisBlock.Header.Timestamp
	key, err := bkey.NewPrivateKey(testutil.NewEntropy("bench-connect-block"))
	if err != nil {
		b.Fatal(err)
	}
	payScript := script.PayToPubKeyHash(key.Principal())
	anyone := []byte{0x51} // OP_1: unchecked coinbase payouts

	newCoinbase := func(height int, pkScript []byte) *wire.MsgTx {
		tx := wire.NewMsgTx(wire.TxVersion)
		tx.AddTxIn(&wire.TxIn{
			PreviousOutPoint: wire.OutPoint{Hash: chainhash.ZeroHash, Index: 0xffffffff},
			SignatureScript:  []byte{byte(height), byte(height >> 8)},
			Sequence:         wire.MaxTxInSequenceNum,
		})
		tx.AddTxOut(&wire.TxOut{Value: params.CalcBlockSubsidy(height), PkScript: pkScript})
		return tx
	}
	buildBlock := func(prev chainhash.Hash, height int, txs []*wire.MsgTx) *wire.MsgBlock {
		blk := &wire.MsgBlock{
			Header: wire.BlockHeader{
				Version:    1,
				PrevBlock:  prev,
				MerkleRoot: wire.ComputeMerkleRoot(txs),
				Timestamp:  base.Add(time.Duration(height) * time.Minute),
				Bits:       params.PowLimitBits,
			},
			Transactions: txs,
		}
		if err := miner.SolveBlock(blk); err != nil {
			b.Fatal(err)
		}
		return blk
	}

	// Heights 1..11: a spendable coinbase, then maturity padding.
	var funding []*wire.MsgBlock
	cb1 := newCoinbase(1, payScript)
	prev := params.GenesisBlock.BlockHash()
	blk := buildBlock(prev, 1, []*wire.MsgTx{cb1})
	funding = append(funding, blk)
	prev = blk.BlockHash()
	for h := 2; h <= 11; h++ {
		blk = buildBlock(prev, h, []*wire.MsgTx{newCoinbase(h, anyone)})
		funding = append(funding, blk)
		prev = blk.BlockHash()
	}

	// Height 12: split the mature coinbase into txs*inputs outputs.
	fanout := connectBenchTxs * connectBenchInputs
	per := params.CalcBlockSubsidy(1) / int64(fanout)
	split := wire.NewMsgTx(wire.TxVersion)
	split.AddTxIn(&wire.TxIn{
		PreviousOutPoint: wire.OutPoint{Hash: cb1.TxHash(), Index: 0},
		Sequence:         wire.MaxTxInSequenceNum,
	})
	for i := 0; i < fanout; i++ {
		split.AddTxOut(&wire.TxOut{Value: per, PkScript: payScript})
	}
	sigScript, err := script.SignatureScript(split, 0, payScript, script.SigHashAll, key)
	if err != nil {
		b.Fatal(err)
	}
	split.TxIn[0].SignatureScript = sigScript
	split.InvalidateCache()
	blk = buildBlock(prev, 12, []*wire.MsgTx{newCoinbase(12, anyone), split})
	funding = append(funding, blk)
	prev = blk.BlockHash()

	// Height 13: the measured block, every tx spending several split
	// outputs under distinct signatures.
	splitID := split.TxHash()
	txs := []*wire.MsgTx{newCoinbase(13, anyone)}
	for i := 0; i < connectBenchTxs; i++ {
		tx := wire.NewMsgTx(wire.TxVersion)
		for j := 0; j < connectBenchInputs; j++ {
			tx.AddTxIn(&wire.TxIn{
				PreviousOutPoint: wire.OutPoint{Hash: splitID, Index: uint32(i*connectBenchInputs + j)},
				Sequence:         wire.MaxTxInSequenceNum,
			})
		}
		tx.AddTxOut(&wire.TxOut{Value: per * connectBenchInputs, PkScript: payScript})
		for j := 0; j < connectBenchInputs; j++ {
			ss, err := script.SignatureScript(tx, j, payScript, script.SigHashAll, key)
			if err != nil {
				b.Fatal(err)
			}
			tx.TxIn[j].SignatureScript = ss
		}
		tx.InvalidateCache()
		txs = append(txs, tx)
	}
	return &connectBenchSetup{
		params:  params,
		clk:     clock.NewSimulated(base.Add(time.Hour)),
		funding: funding,
		final:   buildBlock(prev, 13, txs),
	}
}

// freshChain replays the funding blocks onto a new chain over st (nil:
// in memory). With admit, the chain keeps a verdict set and the final
// block's transactions are first admitted through a mempool, as relay
// would have done; without, connect verifies every input in full.
func (s *connectBenchSetup) freshChain(b *testing.B, st store.Store, admit bool) *chain.Chain {
	cfg := chain.Config{Params: s.params, Clock: s.clk, Store: st}
	if admit {
		cfg.SigCache = sigcache.New(sigcache.DefaultCapacity)
	}
	c, err := chain.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, blk := range s.funding {
		if status, err := c.ProcessBlock(blk); err != nil || status != chain.StatusMainChain {
			b.Fatalf("funding block: status %v, err %v", status, err)
		}
	}
	if admit {
		pool := mempool.New(c, 0) // the block's transactions pay no fee
		for _, tx := range s.final.Transactions[1:] {
			if _, err := pool.Accept(tx); err != nil {
				b.Fatal(err)
			}
		}
	}
	return c
}

// BenchmarkConnectBlock compares connecting a 64-transaction block of
// 256 signed inputs that no mempool admitted (every signature checked in
// full) against the same block after a mempool admitted its
// transactions, when connect runs none of their scripts. Both fan the
// script checks out over GOMAXPROCS; run with -cpu 1 for the serial
// pipeline.
func BenchmarkConnectBlock(b *testing.B) {
	s := newConnectBenchSetup(b)
	for _, bc := range []struct {
		name  string
		admit bool
	}{{"cold", false}, {"warm", true}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := s.freshChain(b, nil, bc.admit)
				b.StartTimer()
				if _, err := c.ProcessBlock(s.final); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConnectBlockPersistent measures the same 64-transaction block
// connect as BenchmarkConnectBlock/warm (its transactions admitted
// first), but on a chain whose every connect writes and applies an
// atomic batch (block bytes, main-chain index row, tip) to the
// file-backed store before returning — the full per-block durability
// overhead.
func BenchmarkConnectBlockPersistent(b *testing.B) {
	s := newConnectBenchSetup(b)
	b.Run("sync", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir, err := os.MkdirTemp(b.TempDir(), "connect")
			if err != nil {
				b.Fatal(err)
			}
			st, err := store.OpenFile(dir)
			if err != nil {
				b.Fatal(err)
			}
			c := s.freshChain(b, st, true)
			b.StartTimer()
			if _, err := c.ProcessBlock(s.final); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}

// BenchmarkSpanRecord measures the commitment-span hot path: stamping a
// full tx lifecycle (submitted through indexed) on a bounded span store
// with the per-stage pair histograms wired — the per-event cost every
// tracked subsystem pays when span tracing is on. Refs cycle past the
// store capacity so ring eviction is part of the measured path.
func BenchmarkSpanRecord(b *testing.B) {
	reg := telemetry.NewRegistry()
	spans := telemetry.NewSpanStore(telemetry.DefaultSpanCapacity, clock.System{})
	telemetry.RegisterSpanMetrics(reg, spans)
	refs := make([]chainhash.Hash, 4*telemetry.DefaultSpanCapacity)
	for i := range refs {
		refs[i][0], refs[i][1] = byte(i), byte(i>>8)
	}
	stages := []string{
		telemetry.StageAccepted, telemetry.StageMined, telemetry.StageConnected,
		telemetry.StageDurable, telemetry.StageIndexed,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref := refs[i%len(refs)]
		spans.Record(telemetry.SpanTx, ref, telemetry.StageSubmitted)
		for _, stage := range stages {
			spans.Observe(telemetry.SpanTx, ref, stage)
		}
	}
}

// BenchmarkStoreReopen measures cold startup from a persisted data
// directory: manifest load, journal replay, and the chain's full
// re-index, linkage verification and fold of a 13-block chain into its
// UTXO table and spend journal.
func BenchmarkStoreReopen(b *testing.B) {
	s := newConnectBenchSetup(b)
	dir := b.TempDir()
	st, err := store.OpenFile(dir)
	if err != nil {
		b.Fatal(err)
	}
	c, err := chain.Open(chain.Config{Params: s.params, Clock: s.clk, Store: st})
	if err != nil {
		b.Fatal(err)
	}
	for _, blk := range append(append([]*wire.MsgBlock{}, s.funding...), s.final) {
		if status, err := c.ProcessBlock(blk); err != nil || status != chain.StatusMainChain {
			b.Fatalf("setup block: status %v, err %v", status, err)
		}
	}
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	// Reopen is fsync-bound (manifest install): flush the page cache so
	// the measured fsyncs don't inherit writeback backlog from earlier
	// benchmarks' temp-dir churn.
	syscall.Sync()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := store.OpenFile(dir)
		if err != nil {
			b.Fatal(err)
		}
		c, err := chain.Open(chain.Config{Params: s.params, Clock: s.clk, Store: st})
		if err != nil {
			b.Fatal(err)
		}
		if c.BestHeight() != 13 {
			b.Fatalf("reopened at height %d", c.BestHeight())
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSigCache measures the verdict set's operations, one probe
// per transaction at connect, against the signature verification a
// 1-input transaction's connect elides on a hit.
func BenchmarkSigCache(b *testing.B) {
	txid := func(i int) (h chainhash.Hash) {
		h[0], h[1], h[2], h[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
		return h
	}
	b.Run("hit", func(b *testing.B) {
		sc := sigcache.New(sigcache.DefaultCapacity)
		sc.Add(txid(0))
		for i := 0; i < b.N; i++ {
			if !sc.Exists(txid(0)) {
				b.Fatal("expected hit")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		sc := sigcache.New(sigcache.DefaultCapacity)
		for i := 0; i < b.N; i++ {
			if sc.Exists(txid(0)) {
				b.Fatal("unexpected hit")
			}
		}
	})
	b.Run("add", func(b *testing.B) {
		sc := sigcache.New(sigcache.DefaultCapacity)
		for i := 0; i < b.N; i++ {
			sc.Add(txid(i))
		}
	})
	b.Run("ecdsa-verify", func(b *testing.B) {
		key, err := bkey.NewPrivateKey(testutil.NewEntropy("bench-sigcache"))
		if err != nil {
			b.Fatal(err)
		}
		digest := chainhash.HashB([]byte("bench sigcache digest"))
		sig, err := key.Sign(digest[:])
		if err != nil {
			b.Fatal(err)
		}
		pk := key.PubKey()
		for i := 0; i < b.N; i++ {
			if !pk.Verify(digest[:], sig) {
				b.Fatal("signature does not verify")
			}
		}
	})
}

// --- micro-benchmarks for the substrate hot paths ---

// BenchmarkMineBlock measures regtest block assembly plus proof-of-work.
func BenchmarkMineBlock(b *testing.B) {
	env, err := bench.NewEnv("bench-mine")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := env.Mine(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPowCheck measures a single proof-of-work verification.
func BenchmarkPowCheck(b *testing.B) {
	params := chain.RegTestParams()
	blk := params.GenesisBlock
	for i := 0; i < b.N; i++ {
		if err := chain.CheckProofOfWork(blk.BlockHash(), blk.Header.Bits, params.PowLimit); err != nil {
			b.Fatal(err)
		}
	}
}

// carrierShapedTx is a signed-looking transaction of a carrier's shape
// (two inputs, a 1-of-2 metadata output, a P2PKH output and change) and
// the locking script its first input spends.
func carrierShapedTx(b *testing.B) (tx *wire.MsgTx, multisig, p2pkh []byte) {
	key, err := bkey.NewPrivateKey(testutil.NewEntropy("bench-script-kernels"))
	if err != nil {
		b.Fatal(err)
	}
	pk := key.PubKey().Serialize()
	multisig, err = script.MultiSigScript(1, pk, script.MetadataKeySlot(chainhash.HashB([]byte("tc"))))
	if err != nil {
		b.Fatal(err)
	}
	p2pkh = script.PayToPubKeyHash(key.Principal())
	sigScript := script.NewBuilder().AddData(make([]byte, 72)).AddData(pk).MustScript()
	tx = wire.NewMsgTx(wire.TxVersion)
	for i := 0; i < 2; i++ {
		tx.AddTxIn(&wire.TxIn{SignatureScript: sigScript, Sequence: wire.MaxTxInSequenceNum})
	}
	tx.AddTxOut(&wire.TxOut{Value: 5_000, PkScript: multisig})
	tx.AddTxOut(&wire.TxOut{Value: 5_000, PkScript: p2pkh})
	tx.AddTxOut(&wire.TxOut{Value: 90_000, PkScript: p2pkh})
	return tx, multisig, p2pkh
}

// BenchmarkCalcSignatureHash measures one SIGHASH_ALL digest of a
// carrier-shaped transaction (a probe: the digest is computed once per
// signature check and once per signature made).
func BenchmarkCalcSignatureHash(b *testing.B) {
	tx, multisig, _ := carrierShapedTx(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := script.CalcSignatureHash(multisig, script.SigHashAll, tx, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassify measures template recognition of the two locking
// scripts a carrier uses (a probe: the mempool classifies every output,
// the wallet and index every output they see).
func BenchmarkClassify(b *testing.B) {
	_, multisig, p2pkh := carrierShapedTx(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if script.Classify(p2pkh) != script.PubKeyHashTy || script.Classify(multisig) != script.MultiSigTy {
			b.Fatal("misclassified")
		}
	}
}

// BenchmarkPropEqual measures proposition comparison with normalization.
func BenchmarkPropEqual(b *testing.B) {
	p := logic.Forall("n", lf.NatFam,
		logic.Lolli(
			logic.Atom(lf.This("coin"), lf.Add(lf.Var(0, "n"), lf.Nat(1))),
			logic.Atom(lf.This("coin"), lf.Add(lf.Nat(1), lf.Var(0, "n")))))
	for i := 0; i < b.N; i++ {
		if _, err := logic.PropEqual(p, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProofEncodeDecode measures proof-term serialization.
func BenchmarkProofEncodeDecode(b *testing.B) {
	m := proof.Lam{Name: "p", Ty: logic.Tensor(logic.One, logic.One),
		Body: proof.LetPair{LName: "x", RName: "y", Of: proof.V("p"),
			Body: proof.Pair{L: proof.V("y"), R: proof.V("x")}}}
	for i := 0; i < b.N; i++ {
		var buf fixedBuffer
		if err := proof.Encode(&buf, m); err != nil {
			b.Fatal(err)
		}
		if _, err := proof.Decode(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// fixedBuffer is a minimal grow-only byte buffer with a read cursor.
type fixedBuffer struct {
	data []byte
	off  int
}

func (f *fixedBuffer) Write(p []byte) (int, error) {
	f.data = append(f.data, p...)
	return len(p), nil
}

func (f *fixedBuffer) Read(p []byte) (int, error) {
	n := copy(p, f.data[f.off:])
	f.off += n
	return n, nil
}

// --- chain index benchmarks ---

// BenchmarkIndexQuery measures the query side of the chain index over a
// node with a deep single-address history (every coinbase plus change
// lands on the miner key): a full default-size page, a cursor walk of
// the whole history in small pages, a point outpoint-spend lookup, and
// the same page served through the HTTP handler with JSON encoding.
func BenchmarkIndexQuery(b *testing.B) {
	h := testutil.NewHarness(b, "bench/index")
	ix, err := index.Open(h.Chain)
	if err != nil {
		b.Fatal(err)
	}
	h.Fund(b)
	dest, err := h.Wallet.NewKey()
	if err != nil {
		b.Fatal(err)
	}
	var spentOp wire.OutPoint
	for i := 0; i < 48; i++ {
		tx, err := h.Wallet.Build([]wallet.Output{
			{Value: 100_000 + int64(i), PkScript: script.PayToPubKeyHash(dest)},
		}, wallet.BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Pool.Accept(tx); err != nil {
			b.Fatal(err)
		}
		spentOp = tx.TxIn[0].PreviousOutPoint
		h.MineBlocks(b, 1)
	}

	b.Run("history-page", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			entries, _, err := ix.AddressHistory(h.MinerKey, index.Cursor{}, index.DefaultPageLimit)
			if err != nil {
				b.Fatal(err)
			}
			if len(entries) != index.DefaultPageLimit {
				b.Fatalf("page of %d entries, want %d", len(entries), index.DefaultPageLimit)
			}
		}
	})
	b.Run("history-walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var cur index.Cursor
			rows := 0
			for {
				entries, next, err := ix.AddressHistory(h.MinerKey, cur, 25)
				if err != nil {
					b.Fatal(err)
				}
				rows += len(entries)
				if next == nil {
					break
				}
				cur = *next
			}
			if rows == 0 {
				b.Fatal("empty history")
			}
		}
	})
	b.Run("outspend", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, found, err := ix.Outspend(spentOp)
			if err != nil {
				b.Fatal(err)
			}
			if !found {
				b.Fatalf("outpoint %v not spent", spentOp)
			}
		}
	})
	b.Run("http-address", func(b *testing.B) {
		handler := ix.Handler()
		path := "/address/" + h.MinerKey.String()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		}
	})
	// The number the load story hangs on: queries/sec while the node is
	// connecting blocks. A background goroutine mines concurrently (each
	// connect commits index rows under the chain lock) and the timed
	// loop serves full HTTP address pages against the moving tip. The
	// miner is paced at one block per 16 queries rather than free-running:
	// a free-running miner's allocations land in this benchmark's
	// -benchmem numbers at a rate set by host speed, making snapshots
	// incomparable across machines. Pacing fixes the work mix per op.
	b.Run("http-address-during-connects", func(b *testing.B) {
		handler := ix.Handler()
		path := "/address/" + h.MinerKey.String()
		work := make(chan struct{}, 1)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range work {
				h.Clock.Advance(h.Params.TargetSpacing)
				if _, _, err := h.Miner.Mine(h.MinerKey); err != nil {
					b.Error(err)
					return
				}
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%16 == 0 {
				work <- struct{}{}
			}
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		}
		b.StopTimer()
		close(work)
		<-done
	})
}

// --- headers-first sync benchmarks ---

const headerBenchDepth = 2000 // one full protocol headers batch

// newHeaderBenchChain mines headerBenchDepth blocks on a throwaway
// chain and returns the connected chain plus the header skeleton and
// the bodies, for both sides of the headers-first exchange.
func newHeaderBenchChain(b *testing.B) (*chain.Chain, []wire.BlockHeader, []*wire.MsgBlock) {
	b.Helper()
	params := chain.RegTestParams()
	clk := clock.NewSimulated(params.GenesisBlock.Header.Timestamp.Add(time.Minute))
	c := chain.New(params, clk)
	w := wallet.New(c, testutil.NewEntropy("bench/headersync"))
	payout, err := w.NewKey()
	if err != nil {
		b.Fatal(err)
	}
	blocks, err := miner.New(c, nil, clk).MineN(headerBenchDepth, payout)
	if err != nil {
		b.Fatal(err)
	}
	headers := make([]wire.BlockHeader, len(blocks))
	for i, blk := range blocks {
		headers[i] = blk.Header
	}
	return c, headers, blocks
}

// BenchmarkHeaderSync measures the two hot paths of headers-first
// synchronization over a 2000-entry skeleton (one full protocol batch):
//
//   - process: contextual validation and indexing of the whole batch on
//     a cold chain — the downloader's cost per headers message.
//   - serve: locator resolution plus batch assembly from a fully
//     connected chain — the cost an honest node pays per getheaders.
//   - needed-bodies: one download-window scan over the indexed skeleton
//     with no bodies connected — the scheduler's refill cost.
func BenchmarkHeaderSync(b *testing.B) {
	full, headers, _ := newHeaderBenchChain(b)
	params := full.Params()
	clk := clock.NewSimulated(params.GenesisBlock.Header.Timestamp.Add(time.Minute))

	b.Run("process", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := chain.New(params, clk)
			b.StartTimer()
			if n, err := c.ProcessHeaders(headers); err != nil || n != headerBenchDepth {
				b.Fatalf("accepted %d headers, err %v", n, err)
			}
		}
	})

	b.Run("serve", func(b *testing.B) {
		fresh := chain.New(params, clk)
		locator := fresh.HeaderLocator()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := full.HeadersAfter(locator, headerBenchDepth); len(got) != headerBenchDepth {
				b.Fatalf("served %d headers", len(got))
			}
		}
	})

	b.Run("needed-bodies", func(b *testing.B) {
		c := chain.New(params, clk)
		if n, err := c.ProcessHeaders(headers); err != nil || n != headerBenchDepth {
			b.Fatalf("accepted %d headers, err %v", n, err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := c.NextNeededBodies(256); len(got) != 256 {
				b.Fatalf("needed %d bodies", len(got))
			}
		}
	})
}
