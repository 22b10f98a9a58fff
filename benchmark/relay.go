package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"typecoin/internal/chainhash"
	"typecoin/internal/clock"
	"typecoin/internal/p2p"
	"typecoin/internal/wire"
)

// relay_mesh sizes. Three nodes in a full mesh of in-process pipes; a
// round is relayPayments payments submitted at node 0 and one block
// mined at node 2 once the payments have reached it.
const (
	relayNodes    = 3
	relayPayments = 100
	relayCoins    = 512
	relayRounds   = 30
	relayWarmup   = 16
)

// relayNote is printed with every relay_mesh report: the pipes add no
// delay, so every latency in this workload is processor time only.
const relayNote = "injected message delay between nodes: 0 (in-process pipes); latencies here are processor time only"

type relayWorld struct {
	baseWorld
	clk   *clock.Simulated
	tr    *tracer
	ns    []*node
	w0    *writer // submits at node 0
	w2    *writer // mines at node 2
	payer *payer
	seed  int64

	// relay timing, traced epochs only.
	mu       sync.Mutex
	sentAt   map[chainhash.Hash]time.Time
	arrived  map[chainhash.Hash]int
	txRelay  []float64 // broadcast -> accepted on the last node, ms
	blkRelay []float64 // miner's ProcessBlock return -> connected on the last node, ms
}

func (r *relayWorld) nodes() []*node { return r.ns }

func (r *relayWorld) close() error {
	var first error
	for _, n := range r.ns {
		if err := n.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func setupRelay(ctx context.Context, cfg runConfig) (world, error) {
	r := &relayWorld{seed: cfg.seed, sentAt: map[chainhash.Hash]time.Time{}, arrived: map[chainhash.Hash]int{}}
	r.tr = cfg.tr
	r.clk = newClock()
	for i := 0; i < relayNodes; i++ {
		n, err := openNode("", r.clk, rand.New(rand.NewSource(cfg.seed^int64(0x5eed+i))), r.tr)
		if err != nil {
			r.close()
			return nil, err
		}
		r.ns = append(r.ns, n)
	}
	for _, n := range r.ns[1:] {
		n.onAccept = r.accepted
	}
	r.w0 = &writer{n: r.ns[0], tr: r.tr, admit: r.broadcast}
	r.w2 = &writer{n: r.ns[2], tr: r.tr}
	var err error
	r.payer, err = newPayer(rand.New(rand.NewSource(cfg.seed)), r.ns[0].wallet, plainKeys, false)
	if err == nil {
		err = r.w0.fund(&r.payer.coins, r.payer.rng, r.payer.keys, relayCoins, 64)
	}
	// The mesh is joined after funding. A node asks only the first peer
	// that completes the handshake for headers, so nodes 1 and 2 are
	// joined to node 0 first, sync the funded chain from it, and are
	// joined to each other afterwards.
	if err == nil {
		p2p.ConnectPipe(r.ns[0].p2p, r.ns[1].p2p)
		p2p.ConnectPipe(r.ns[0].p2p, r.ns[2].p2p)
		err = r.converged(ctx, r.ns[0].chain.BestHash())
	}
	if err == nil {
		p2p.ConnectPipe(r.ns[1].p2p, r.ns[2].p2p)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// converged waits until every node has connected tip and every layer of
// it has handled the connect.
func (r *relayWorld) converged(ctx context.Context, tip chainhash.Hash) error {
	for _, n := range r.ns {
		n := n
		if err := waitFor(ctx, n.tipWake, func() bool { return n.settledOn(tip) }); err != nil {
			return fmt.Errorf("waiting for a node to connect %s (%s): %w", tip, r.state(), err)
		}
	}
	return nil
}

// state describes the mesh for a time-out's error message.
func (r *relayWorld) state() string {
	var b strings.Builder
	for i, n := range r.ns {
		c := scrape(n.reg)
		fmt.Fprintf(&b, "node %d: height %d, mempool %d, peers %v, stalls %v, misbehaviour %v; ",
			i, n.chain.BestHeight(), n.pool.Size(), c["p2p_peers"], c["p2p_stalls_total"], c["p2p_misbehavior_points_total"])
	}
	return b.String()
}

// accepted observes a relayed transaction entering node 1's or node 2's
// mempool; the second arrival closes the relay sample.
func (r *relayWorld) accepted(tx *wire.MsgTx) {
	if r.tr == nil || !r.tr.on.Load() {
		return
	}
	now := time.Now()
	id := tx.TxHash()
	r.mu.Lock()
	defer r.mu.Unlock()
	sent, ok := r.sentAt[id]
	if !ok {
		return
	}
	r.arrived[id]++
	if r.arrived[id] == relayNodes-1 {
		r.txRelay = append(r.txRelay, float64(now.Sub(sent))/1e6)
		delete(r.sentAt, id)
		delete(r.arrived, id)
	}
}

// broadcast is the admission step of a submission at node 0: BroadcastTx
// is the mempool admission plus the inv to both peers.
func (r *relayWorld) broadcast(tx *wire.MsgTx, parent int32) error {
	if r.tr != nil && r.tr.on.Load() {
		r.mu.Lock()
		r.sentAt[tx.TxHash()] = time.Now()
		r.mu.Unlock()
	}
	id := r.tr.begin("p2p.broadcast_tx", parent)
	err := r.ns[0].p2p.BroadcastTx(tx)
	r.tr.end(id)
	return err
}

// round submits the payments at node 0, waits for node 2 to hold them
// all, mines there, and waits for every node to connect the block.
func (r *relayWorld) round(ctx context.Context, ep *epoch) error {
	r.w0.ep, r.w2.ep = ep, ep
	sent := 0
	for _, k := range r.payer.inputCounts(relayPayments) {
		ep.attempted++
		if _, err := r.w0.pay(r.payer, k, time.Time{}); err != nil {
			ep.failed++
			continue
		}
		sent++
	}
	miner := r.ns[2]
	if err := waitFor(ctx, miner.poolWake, func() bool { return miner.pool.Size() >= sent }); err != nil {
		return fmt.Errorf("waiting for the round to reach the miner (%s): %w", r.state(), err)
	}
	m, err := r.w2.mine()
	if err != nil {
		return err
	}
	if err := r.converged(ctx, m.blk.BlockHash()); err != nil {
		return err
	}
	done := time.Now()
	ep.add("block_commit", done.Sub(m.start))
	if r.tr != nil && r.tr.on.Load() {
		r.blkRelay = append(r.blkRelay, float64(done.Sub(m.returned))/1e6)
	}
	if got := len(m.blk.Transactions) - 1; got != sent {
		return fmt.Errorf("block holds %d transactions, %d were submitted", got, sent)
	}
	r.payer.confirmed()
	ep.committed += sent
	ep.blocks++
	return nil
}

// catchUp joins a fresh node to all three peers and times how long it
// takes to reach their tip.
func (r *relayWorld) catchUp(ctx context.Context) (seconds, recvBytes float64, err error) {
	fresh, err := openNode("", r.clk, rand.New(rand.NewSource(r.seed^0xf5e5)), nil)
	if err != nil {
		return 0, 0, err
	}
	defer fresh.close()
	tip := r.ns[0].chain.BestHash()
	start := time.Now()
	for _, n := range r.ns {
		p2p.ConnectPipe(fresh.p2p, n.p2p)
	}
	if err := waitFor(ctx, fresh.tipWake, func() bool { return fresh.settledOn(tip) }); err != nil {
		return 0, 0, fmt.Errorf("catch-up: %w", err)
	}
	seconds = time.Since(start).Seconds()
	recvBytes = scrape(fresh.reg)["p2p_recv_bytes_total"]
	if got, want := fresh.chain.UtxoSize(), r.ns[0].chain.UtxoSize(); got != want {
		return 0, 0, fmt.Errorf("caught-up node holds %d unspent outputs, node 0 holds %d", got, want)
	}
	return seconds, recvBytes, nil
}

// finish times one catch-up, then checks that the mesh agrees and every
// node audits clean.
func (r *relayWorld) finish(ctx context.Context, rep *report) error {
	if len(rep.series["catchup_rate"]) == 0 {
		rep.notes = append(rep.notes, relayNote)
	}
	blocks := float64(r.ns[0].chain.BestHeight())
	secs, recv, err := r.catchUp(ctx)
	if err != nil {
		return err
	}
	add := func(series string, vs ...float64) { rep.series[series] = append(rep.series[series], vs...) }
	add("catchup_rate", blocks/secs)
	add("catchup_bytes_per_block", recv/blocks)
	add("tx_relay", r.txRelay...)
	add("block_relay", r.blkRelay...)
	rates := rep.series["catchup_rate"]
	rep.endToEnd["catchup_blocks_per_s"] = metric{Value: median(rates), Unit: "blocks/s", samples: len(rates), epochs: rates}

	var errs []error
	tip := r.ns[0].chain.BestHash()
	for i, n := range r.ns {
		if n.chain.BestHash() != tip {
			errs = append(errs, fmt.Errorf("node %d is on %s, node 0 on %s", i, n.chain.BestHash(), tip))
		}
		for _, err := range auditNode(n) {
			errs = append(errs, fmt.Errorf("node %d: %w", i, err))
		}
		c := scrape(n.reg)
		if c["p2p_rate_limited_total"] > 0 || c["p2p_bans_total"] > 0 || c["p2p_peers"] < relayNodes-1 {
			errs = append(errs, fmt.Errorf("node %d banned, rate-limited or lost an honest peer", i))
		}
	}
	rep.gate(errs)
	return nil
}
