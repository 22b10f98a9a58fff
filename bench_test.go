// Package typecoin_bench holds the top-level benchmark targets, one per
// experiment in EXPERIMENTS.md (run `go test -bench=. -benchmem .`), plus
// micro-benchmarks for the hot paths: proof checking, transaction
// verification, script execution and mining. The experiment tables
// themselves are regenerated by cmd/tcbench.
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

// BenchmarkE1Race measures the E1 double-spend race simulation (the full
// table is printed by cmd/tcbench -exp e1).
func BenchmarkE1Race(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.RunE1([]float64{0.1, 0.25}, []int{0, 2, 4, 6}, 2000)
		if len(rows) != 8 {
			b.Fatal("unexpected row count")
		}
	}
}

// BenchmarkE2BatchMode measures one direct-vs-batch comparison at k=10.
func BenchmarkE2BatchMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunE2([]int{10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3UtxoTable measures the metadata-deadweight experiment at
// n=25.
func BenchmarkE3UtxoTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunE3([]int{25}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4Revocation measures one revocation round trip.
func BenchmarkE4Revocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunE4(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5Verify measures trust-free verification of a 32-transaction
// upstream history (setup excluded).
func BenchmarkE5Verify(b *testing.B) {
	setup, err := bench.NewE5Setup(32)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := setup.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5ProofChecker measures raw proof-checker throughput on the
// newcoin merge proof.
func BenchmarkE5ProofChecker(b *testing.B) {
	if _, err := bench.RunE5Checker(1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := bench.RunE5Checker(b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkE6Escrow measures one 2-of-3 escrow claim end to end.
func BenchmarkE6Escrow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunE6([][3]int{{2, 3, 0}}); err != nil {
			b.Fatal(err)
		}
	}
}

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

// freshChain replays the funding blocks onto a new chain with the given
// signature cache and worker count (1 = serial, 0 = GOMAXPROCS).
func (s *connectBenchSetup) freshChain(b *testing.B, sc *sigcache.Cache, workers int) *chain.Chain {
	c := chain.NewWithSigCache(s.params, s.clk, sc)
	c.SetScriptWorkers(workers)
	for _, blk := range s.funding {
		if status, err := c.ProcessBlock(blk); err != nil || status != chain.StatusMainChain {
			b.Fatalf("funding block: status %v, err %v", status, err)
		}
	}
	return c
}

// BenchmarkConnectBlock compares connecting a 64-transaction block of
// 256 signed inputs under the two extremes of the validation pipeline:
// serial script checking with no signature cache (the pre-pipeline
// behavior) versus the parallel worker pool with a cache warmed as the
// mempool would have at relay time.
func BenchmarkConnectBlock(b *testing.B) {
	s := newConnectBenchSetup(b)
	b.Run("serial-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := s.freshChain(b, nil, 1)
			b.StartTimer()
			if _, err := c.ProcessBlock(s.final); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel-warm", func(b *testing.B) {
		warm := sigcache.New(sigcache.DefaultCapacity)
		// Prime the cache the way mempool admission would: one full
		// verification of the block's signatures.
		if _, err := s.freshChain(b, warm, 0).ProcessBlock(s.final); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := s.freshChain(b, warm, 0)
			b.StartTimer()
			if _, err := c.ProcessBlock(s.final); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkConnectBlockPersistent measures the same 64-transaction block
// connect as BenchmarkConnectBlock/parallel-warm (same warm signature
// cache), but on a chain whose every connect writes and applies an
// atomic batch (block bytes, index, UTXO deltas, spend journal) to the
// file-backed store before returning — the full per-block durability
// overhead.
func BenchmarkConnectBlockPersistent(b *testing.B) {
	s := newConnectBenchSetup(b)
	warm := sigcache.New(sigcache.DefaultCapacity)
	// Prime the shared cache once, as mempool admission would have.
	if _, err := s.freshChain(b, warm, 0).ProcessBlock(s.final); err != nil {
		b.Fatal(err)
	}
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
			c, err := chain.Open(chain.Config{
				Params: s.params, Clock: s.clk, SigCache: warm, Store: st,
			})
			if err != nil {
				b.Fatal(err)
			}
			for _, blk := range s.funding {
				if status, err := c.ProcessBlock(blk); err != nil || status != chain.StatusMainChain {
					b.Fatalf("funding block: status %v, err %v", status, err)
				}
			}
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

// BenchmarkUTXOShardedRead hammers the lock-striped UTXO view with
// parallel lookups over a populated chain — the read path the mempool
// and RPC layers hit while blocks connect.
func BenchmarkUTXOShardedRead(b *testing.B) {
	s := newConnectBenchSetup(b)
	c := s.freshChain(b, nil, 0)
	if _, err := c.ProcessBlock(s.final); err != nil {
		b.Fatal(err)
	}
	view := c.UtxoView()
	ops := c.UtxoOutpoints()
	if len(ops) == 0 {
		b.Fatal("no outpoints to read")
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if view.Lookup(ops[i%len(ops)]) == nil {
				b.Error("missing outpoint")
				return
			}
			i++
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
// re-index and linkage verification of a 13-block chain.
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

// BenchmarkSigCache measures the signature cache's hot operations
// against the ECDSA verification it elides.
func BenchmarkSigCache(b *testing.B) {
	key, err := bkey.NewPrivateKey(testutil.NewEntropy("bench-sigcache"))
	if err != nil {
		b.Fatal(err)
	}
	digest := chainhash.HashB([]byte("bench sigcache digest"))
	sig, err := key.Sign(digest[:])
	if err != nil {
		b.Fatal(err)
	}
	sigBytes, pkBytes := sig.Serialize(), key.PubKey().Serialize()

	b.Run("hit", func(b *testing.B) {
		sc := sigcache.New(sigcache.DefaultCapacity)
		sc.Add(sigcache.NewKey(digest, sigBytes, pkBytes))
		for i := 0; i < b.N; i++ {
			if !sc.Exists(sigcache.NewKey(digest, sigBytes, pkBytes)) {
				b.Fatal("expected hit")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		sc := sigcache.New(sigcache.DefaultCapacity)
		for i := 0; i < b.N; i++ {
			if sc.Exists(sigcache.NewKey(digest, sigBytes, pkBytes)) {
				b.Fatal("unexpected hit")
			}
		}
	})
	b.Run("add", func(b *testing.B) {
		sc := sigcache.New(sigcache.DefaultCapacity)
		var h chainhash.Hash
		for i := 0; i < b.N; i++ {
			h[0], h[1], h[2], h[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
			sc.Add(sigcache.NewKey(h, sigBytes, pkBytes))
		}
	})
	b.Run("ecdsa-verify", func(b *testing.B) {
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
	env, err := bench.NewEnv("bench-mine", 1)
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
