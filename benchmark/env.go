package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"typecoin/internal/bkey"
	"typecoin/internal/chain"
	"typecoin/internal/chainhash"
	"typecoin/internal/clock"
	"typecoin/internal/index"
	"typecoin/internal/mempool"
	"typecoin/internal/miner"
	"typecoin/internal/p2p"
	"typecoin/internal/script"
	"typecoin/internal/sigcache"
	"typecoin/internal/store"
	"typecoin/internal/telemetry"
	"typecoin/internal/typecoin"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

// node is one composed stack: the layers cmd/typecoind wires, in the same
// order and with the daemon's default flags (synchronous commits, no
// per-commit fsync, five store write attempts, minconf 1, telemetry and
// commitment spans attached), held in one process.
type node struct {
	clk    *clock.Simulated
	params *chain.Params
	file   *store.File  // nil on a memory store
	ts     *tracedStore // nil in an untraced run
	st     store.Store  // what chain.Open was handed
	chain  *chain.Chain
	index  *index.Indexer
	pool   *mempool.Pool
	wallet *wallet.Wallet
	ledger *typecoin.Ledger
	miner  *miner.Miner
	p2p    *p2p.Node
	reg    *telemetry.Registry
	payout bkey.Principal

	// tipWake and poolWake receive a token whenever the chain connects a
	// block or the mempool admits a transaction, so waits are driven by
	// the event instead of by a poll.
	tipWake  chan struct{}
	poolWake chan struct{}
	// settled is the last block whose connect notification every layer
	// of this node has finished handling. The chain's best hash moves
	// before its subscribers run, and a transaction admitted in that gap
	// that spends an output of the new block is evicted again when the
	// mempool's subscriber removes the block's transactions "and their
	// descendants".
	settled atomic.Pointer[chainhash.Hash]
	// onAccept, when set, observes every mempool admission (relay
	// timing in the traced run).
	onAccept func(*wire.MsgTx)
}

// newClock returns a simulated clock set just after the genesis block,
// the clock every node of a world shares.
func newClock() *clock.Simulated {
	genesis := chain.RegTestParams().GenesisBlock.Header.Timestamp
	return clock.NewSimulated(genesis.Add(time.Minute))
}

// openNode composes a stack over a file store in dir, or over a memory
// store when dir is empty. The caller defers close.
func openNode(dir string, clk *clock.Simulated, entropy *rand.Rand, tr *tracer) (*node, error) {
	n := &node{
		clk:      clk,
		params:   chain.RegTestParams(),
		tipWake:  make(chan struct{}, 1),
		poolWake: make(chan struct{}, 1),
	}
	var base store.Store = store.NewMem()
	if dir != "" {
		f, err := store.OpenFile(dir)
		if err != nil {
			return nil, fmt.Errorf("open store: %w", err)
		}
		n.file, base = f, f
	}
	retry := store.NewRetry(base, store.RetryConfig{Attempts: 5})
	n.st = retry
	if tr != nil {
		n.ts = newTracedStore(retry, tr)
		n.st = n.ts
	}
	if err := n.compose(retry, entropy); err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

func (n *node) compose(health *store.Retry, entropy *rand.Rand) error {
	var err error
	n.chain, err = chain.Open(chain.Config{
		Params:   n.params,
		Clock:    n.clk,
		SigCache: sigcache.New(sigcache.DefaultCapacity),
		Store:    n.st,
	})
	if err != nil {
		return fmt.Errorf("open chain: %w", err)
	}
	if n.index, err = index.Open(n.chain); err != nil {
		return fmt.Errorf("open index: %w", err)
	}
	n.pool = mempool.New(n.chain, -1)
	n.pool.SetOnAccept(func(tx *wire.MsgTx) {
		n.index.PublishTx(tx)
		if n.onAccept != nil {
			n.onAccept(tx)
		}
		wake(n.poolWake)
	})
	n.pool.SetGate(func() bool {
		h, _ := health.Health()
		return h != store.HealthDegraded
	})
	if n.file != nil {
		if n.wallet, err = wallet.Open(n.chain, entropy); err != nil {
			return fmt.Errorf("open wallet: %w", err)
		}
		if n.ledger, err = typecoin.OpenLedger(n.chain, 1); err != nil {
			return fmt.Errorf("open ledger: %w", err)
		}
	} else {
		n.wallet = wallet.New(n.chain, entropy)
		n.ledger = typecoin.NewLedger(n.chain, 1)
	}
	if n.payout, err = n.wallet.NewKey(); err != nil {
		return err
	}
	n.miner = miner.New(n.chain, n.pool, n.clk)
	n.p2p = p2p.NewNode(n.chain, n.pool, nil)
	n.p2p.SetLedger(n.ledger)
	// The peer layer reads the chain's clock, which here is simulated and
	// jumps ten minutes per block. A getdata still unanswered at a jump is
	// then dropped as a stall and its late answer scored as unsolicited,
	// so honest peers collect misbehaviour points every round. Those
	// drops are also what keeps the request tables small, so the
	// time-outs keep their defaults and the ban threshold (the daemon's
	// -banthreshold) is put out of reach instead; the correctness gate
	// requires that nobody was banned or rate-limited.
	pol := p2p.DefaultPolicy()
	pol.BanThreshold = math.MaxInt32
	n.p2p.SetPolicy(pol)

	n.reg = telemetry.NewRegistry()
	events := telemetry.NewTracer(telemetry.DefaultTraceCapacity, n.clk)
	n.chain.SetTelemetry(n.reg, events)
	n.pool.SetTelemetry(n.reg, events)
	n.miner.SetTelemetry(n.reg)
	n.p2p.SetTelemetry(n.reg, events)
	n.index.SetTelemetry(n.reg, events)
	spans := telemetry.NewSpanStore(telemetry.DefaultSpanCapacity, n.clk)
	telemetry.RegisterSpanMetrics(n.reg, spans)
	n.chain.SetSpans(spans)
	n.pool.SetSpans(spans)
	n.miner.SetSpans(spans)
	n.p2p.SetSpans(spans)
	n.index.SetSpans(spans)

	// Subscribers run in registration order and this one is the last, so
	// when it sees a block the mempool, wallet, ledger and peer layer
	// have all handled it.
	n.chain.Subscribe(func(ev chain.Notification) {
		if ev.Connected {
			h := ev.Block.BlockHash()
			n.settled.Store(&h)
		}
		wake(n.tipWake)
	})
	return nil
}

// settledOn reports whether every layer of the node has handled the
// connect of block tip.
func (n *node) settledOn(tip chainhash.Hash) bool {
	h := n.settled.Load()
	return h != nil && *h == tip
}

// close stops the peer loops and closes the store.
func (n *node) close() error {
	if n.p2p != nil {
		n.p2p.Stop()
	}
	return n.st.Close()
}

func wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// waitFor blocks until cond holds, re-testing it each time wakeCh
// delivers an event.
func waitFor(ctx context.Context, wakeCh <-chan struct{}, cond func() bool) error {
	for !cond() {
		select {
		case <-wakeCh:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// tempDir makes a scratch directory for a file store; the caller defers
// removeTempDir on it.
func tempDir(workload string) (string, error) {
	dir, err := os.MkdirTemp("", "typecoin-benchmark-"+workload+"-")
	if err == nil {
		trackTempDir(dir)
	}
	return dir, err
}

// writer is the benchmark's single writing client against one node: it
// re-does client.Submit's and Miner.Mine's steps itself, so each step
// into a layer is timed on its own in the traced run.
type writer struct {
	n  *node
	tr *tracer
	ep *epoch // samples of the epoch in progress; nil during set-up
	// logBytes is the size of the store's journal and block log after
	// the last block, to account the bytes each block appends.
	logBytes int64
	// admit, when set, replaces accept as the admission step of pay
	// (relay_mesh broadcasts instead).
	admit func(tx *wire.MsgTx, parent int32) error
}

// enter marks id as the span the writer has open on its node, so store
// writes made underneath are recorded as its children.
func (w *writer) enter(id int32) {
	if w.n.ts != nil {
		w.n.ts.parent.Store(id)
	}
}

// accept is the mempool-admission step of a submission.
func (w *writer) accept(tx *wire.MsgTx, parent int32) error {
	id := w.tr.begin("mempool.accept", parent)
	w.enter(id)
	_, err := w.n.pool.Accept(tx)
	w.enter(noSpan)
	w.tr.end(id)
	return err
}

// build is the wallet step of a submission.
func (w *writer) build(outs []wallet.Output, opts wallet.BuildOptions, parent int32) (*wire.MsgTx, error) {
	id := w.tr.begin("wallet.build", parent)
	tx, err := w.n.wallet.Build(outs, opts)
	w.tr.end(id)
	return tx, err
}

// mined is what one block-commit step produced.
type mined struct {
	blk      *wire.MsgBlock
	start    time.Time // BuildBlock start
	returned time.Time // ProcessBlock return on the mining node
}

// mine advances the simulated clock by the target spacing and commits one
// block on the writer's node: BuildBlock, SolveBlock, ProcessBlock.
func (w *writer) mine() (mined, error) {
	w.n.clk.Advance(w.n.params.TargetSpacing)
	m := mined{start: time.Now()}
	top := w.tr.begin("commit.block", noSpan)
	defer w.tr.end(top)

	id := w.tr.begin("miner.build_block", top)
	blk, err := w.n.miner.BuildBlock(w.n.payout)
	w.tr.end(id)
	if err != nil {
		return m, err
	}
	id = w.tr.begin("miner.solve", top)
	err = miner.SolveBlock(blk)
	w.tr.end(id)
	if err != nil {
		return m, err
	}
	if w.ep != nil {
		w.ep.hashAttempts += float64(blk.Header.Nonce) + 1
	}
	id = w.tr.begin("chain.process_block", top)
	w.enter(id)
	status, err := w.n.chain.ProcessBlock(blk)
	w.enter(noSpan)
	w.tr.end(id)
	m.returned = time.Now()
	if err != nil {
		return m, fmt.Errorf("mined block rejected: %w", err)
	}
	if status != chain.StatusMainChain {
		return m, fmt.Errorf("mined block disposition %v, want main chain", status)
	}
	m.blk = blk
	if f := w.n.file; f != nil {
		// A compaction shrinks the journal; only growth is appended bytes.
		now := f.JournalBytes() + f.BlockLogBytes()
		if w.ep != nil && now > w.logBytes {
			w.ep.journalBytes += float64(now - w.logBytes)
		}
		w.logBytes = now
	}
	if w.tr != nil && w.tr.on.Load() {
		w.probeWire(blk)
	}
	return m, nil
}

// probeWire times one encode and one decode of blk, the cost every relay
// hop pays. Traced run only.
func (w *writer) probeWire(blk *wire.MsgBlock) {
	id := w.tr.begin("wire.block_encode", noSpan)
	raw := blk.Bytes()
	w.tr.end(id)
	id = w.tr.begin("wire.block_decode", noSpan)
	var back wire.MsgBlock
	err := back.Deserialize(bytes.NewReader(raw))
	w.tr.end(id)
	if err != nil {
		panic("benchmark: a block the miner built does not decode: " + err.Error())
	}
}

// coin is a confirmed output the benchmark's wallet controls.
type coin struct {
	op    wire.OutPoint
	value int64
}

// payer generates plain P2PKH payments over a fixed population of coins.
// Every round spends exactly as many coins as it creates (a quarter of
// the payments take one input, half take two, a quarter take three, and
// every payment makes a recipient output and a change output), and only
// confirmed coins are spent, so the UTXO set, the wallet and the mempool
// chains stay the same size for the whole run.
type payer struct {
	rng  *rand.Rand
	keys []bkey.Principal
	// zipf, when set, draws recipients with Zipf popularity; otherwise
	// they are uniform.
	zipf *rand.Zipf
	coins
}

// coins is a population of confirmed coins plus the coins the round in
// progress has created, which become spendable when its block connects.
type coins struct {
	avail   []coin
	pending []coin
}

// take removes and returns a random spendable coin.
func (c *coins) take(rng *rand.Rand) (coin, error) {
	if len(c.avail) == 0 {
		return coin{}, errors.New("coin pool exhausted")
	}
	j := rng.Intn(len(c.avail))
	out := c.avail[j]
	c.avail[j] = c.avail[len(c.avail)-1]
	c.avail = c.avail[:len(c.avail)-1]
	return out, nil
}

// confirmed moves the round's new coins into the spendable population.
func (c *coins) confirmed() {
	c.avail = append(c.avail, c.pending...)
	c.pending = c.pending[:0]
}

func newPayer(rng *rand.Rand, w *wallet.Wallet, nkeys int, zipf bool) (*payer, error) {
	p := &payer{rng: rng}
	for i := 0; i < nkeys; i++ {
		k, err := w.NewKey()
		if err != nil {
			return nil, err
		}
		p.keys = append(p.keys, k)
	}
	if zipf {
		p.zipf = rand.NewZipf(rng, 1.2, 4, uint64(nkeys-1))
	}
	return p, nil
}

func (p *payer) recipient() bkey.Principal {
	if p.zipf != nil {
		return p.keys[p.zipf.Uint64()]
	}
	return p.keys[p.rng.Intn(len(p.keys))]
}

// inputCounts returns the shuffled input count of each of n payments; n
// is a multiple of four.
func (p *payer) inputCounts(n int) []int {
	ks := make([]int, n)
	for i := range ks {
		switch {
		case i < n/4:
			ks[i] = 1
		case i < n/4+n/2:
			ks[i] = 2
		default:
			ks[i] = 3
		}
	}
	p.rng.Shuffle(n, func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	return ks
}

// payment is one generated payment: the coins to spend, whom to pay and
// how much; the rest (less the fee) returns to change.
type payment struct {
	inputs []wire.OutPoint
	to     bkey.Principal
	change bkey.Principal
	amount int64
}

func (p *payer) next(k int) (payment, error) {
	var pay payment
	var total int64
	for i := 0; i < k; i++ {
		c, err := p.take(p.rng)
		if err != nil {
			return payment{}, err
		}
		pay.inputs = append(pay.inputs, c.op)
		total += c.value
	}
	pay.to, pay.change = p.recipient(), p.recipient()
	pay.amount = int64(float64(total) * (0.35 + 0.3*p.rng.Float64()))
	return pay, nil
}

func (pay payment) outputs() []wallet.Output {
	return []wallet.Output{{Value: pay.amount, PkScript: script.PayToPubKeyHash(pay.to)}}
}

func (pay payment) options() wallet.BuildOptions {
	return wallet.BuildOptions{ChangeTo: pay.change, ExtraInputs: pay.inputs}
}

// made records tx's outputs as coins that become spendable once the
// block holding tx is connected.
func (p *payer) made(tx *wire.MsgTx) {
	txid := tx.TxHash()
	for i, out := range tx.TxOut {
		p.pending = append(p.pending, coin{wire.OutPoint{Hash: txid, Index: uint32(i)}, out.Value})
	}
}

// fund mines coinbases to maturity and fans them out into n coins paid to
// keys drawn by rng, through the wallet, mempool and miner.
func (w *writer) fund(c *coins, rng *rand.Rand, keys []bkey.Principal, n, perTx int) error {
	txs := (n + perTx - 1) / perTx
	var bases []coin
	for i := 0; i < txs+w.n.params.CoinbaseMaturity; i++ {
		m, err := w.mine()
		if err != nil {
			return err
		}
		if i < txs {
			cb := m.blk.Transactions[0]
			bases = append(bases, coin{wire.OutPoint{Hash: cb.TxHash(), Index: 0}, cb.TxOut[0].Value})
		}
	}
	for _, base := range bases {
		each := (base.value - wallet.DefaultFee) / int64(perTx)
		outs := make([]wallet.Output, perTx)
		for i := range outs {
			outs[i] = wallet.Output{Value: each, PkScript: script.PayToPubKeyHash(keys[rng.Intn(len(keys))])}
		}
		tx, err := w.build(outs, wallet.BuildOptions{ExtraInputs: []wire.OutPoint{base.op}}, noSpan)
		if err != nil {
			return fmt.Errorf("fan-out: %w", err)
		}
		if err := w.accept(tx, noSpan); err != nil {
			return fmt.Errorf("fan-out: %w", err)
		}
		txid := tx.TxHash()
		for i := 0; i < perTx; i++ {
			c.pending = append(c.pending, coin{wire.OutPoint{Hash: txid, Index: uint32(i)}, each})
		}
	}
	if _, err := w.mine(); err != nil {
		return err
	}
	c.confirmed()
	return nil
}

// pay submits one generated payment and returns the transaction. The
// submission is timed from due when the caller runs an open loop, and
// from now when due is zero.
func (w *writer) pay(p *payer, k int, due time.Time) (*wire.MsgTx, error) {
	pay, err := p.next(k)
	if err != nil {
		return nil, err
	}
	start := due
	if start.IsZero() {
		start = time.Now()
	}
	top := w.tr.begin("submit.payment", noSpan)
	admit := w.accept
	if w.admit != nil {
		admit = w.admit
	}
	tx, err := w.build(pay.outputs(), pay.options(), top)
	if err == nil {
		err = admit(tx, top)
	}
	w.tr.end(top)
	if err != nil {
		return nil, err
	}
	if w.ep != nil {
		w.ep.add("submit", time.Since(start))
	}
	p.made(tx)
	return tx, nil
}
