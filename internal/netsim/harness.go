package netsim

import (
	"fmt"
	"testing"
	"time"

	"typecoin/internal/bkey"
	"typecoin/internal/chain"
	"typecoin/internal/chainhash"
	"typecoin/internal/clock"
	"typecoin/internal/mempool"
	"typecoin/internal/node"
	"typecoin/internal/p2p"
	"typecoin/internal/store"
	"typecoin/internal/telemetry"
	"typecoin/internal/testutil"
	"typecoin/internal/wire"
)

// Harness is a multi-node scenario: N full nodes (chain, index,
// mempool, wallet, ledger, miner) gossiping over one simulated Network
// on one virtual clock. Faults are scripted through the Network
// (Partition, StallOneWay, SetLink) and the harness asserts the system
// invariants after heal via AssertConverged.
type Harness struct {
	T      testing.TB
	Seed   int64
	Params *chain.Params
	Clk    *clock.Simulated
	// Barrier drives virtual time over Net for Nodes, each node's p2p
	// layer (Full[i].P2P). Its Live clock times the nodes' peers
	// (p2p.Node.SetLivenessClock): every tick advances it with Clk;
	// Mine's jump to the next block slot does not, so a request or
	// handshake in flight across the jump is not aged by it.
	Barrier
	// Full holds each node as node.Open assembled it, with its own
	// registry, tracer and span store, so scenarios can assert on
	// defense and chain counters (see Metric) and merge causal spans
	// across the cluster (see AssembleTrace). All span stores run on
	// the shared virtual clock, so cross-node stage deltas are exact.
	Full    []*node.Node
	Payouts []bkey.Principal

	base   time.Time // virtual time origin for the block schedule
	blocks int       // global mined-block counter

	// bounds holds the resource limits configured by SetDefense, for
	// AssertBounds; nil until SetDefense is called.
	bounds *Bounds
}

// Bounds are the resource limits a defended scenario enforces on every
// node. AssertBounds checks they were never exceeded (the underlying
// mechanisms cap continuously, so observing compliance at any instant
// plus the mechanisms' own tests covers the invariant).
type Bounds struct {
	MaxPoolTxs   int
	MaxPoolBytes int64
	MaxPeers     int // total peers per node, inbound plus outbound
}

// NewHarness builds n nodes over a fresh Network with the given seed and
// default link configuration, and stops them on test cleanup. Nodes are
// not connected; call Connect to build a topology.
func NewHarness(t testing.TB, seed int64, n int, cfg LinkConfig) *Harness {
	return NewHarnessWithStores(t, seed, n, cfg, nil)
}

// NewHarnessWithStores is NewHarness with an explicit persistence stack
// per node: storeFor(i) supplies node i's store (nil falls back to a
// fresh in-memory store). Every node is built by node.Open, the
// daemon's own assembly, so a store that reports health (the Retry
// degradation wrapper) exports store_health and gates the node's
// mempool exactly as in a daemon; chaos scenarios assert
// degraded-readonly behavior through the metrics an operator sees.
// Every node, and with it its store, is closed on test cleanup.
func NewHarnessWithStores(t testing.TB, seed int64, n int, cfg LinkConfig, storeFor func(i int) store.Store) *Harness {
	t.Helper()
	clk := node.SimClock()
	h := &Harness{
		T:      t,
		Seed:   seed,
		Params: chain.RegTestParams(),
		Clk:    clk,
		Barrier: Barrier{
			Net:  New(clk, seed, cfg),
			Live: node.SimClock(),
		},
		base: clk.Now(),
	}
	t.Cleanup(func() {
		for _, nd := range h.Full {
			nd.Close()
		}
	})
	for i := 0; i < n; i++ {
		var st store.Store
		if storeFor != nil {
			st = storeFor(i)
		}
		nd, err := node.Open(node.Config{
			Clock:   clk,
			Store:   st,
			Entropy: testutil.NewEntropy(fmt.Sprintf("netsim/%d/node%d", seed, i)),
			Spans:   telemetry.DefaultSpanCapacity,
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		// Span origin ids are 1-based node indices: deterministic, and 0
		// stays "unset" for hop adoption.
		nd.Spans.SetOrigin(uint64(i + 1))
		nd.P2P.SetTransport(h.Net.Transport(h.Host(i)))
		nd.P2P.SetLivenessClock(h.Live)
		h.Full = append(h.Full, nd)
		h.Nodes = append(h.Nodes, nd.P2P)
		if _, err := nd.P2P.Listen(""); err != nil {
			t.Fatalf("node %d listen: %v", i, err)
		}
		payout, err := nd.Wallet.NewKey()
		if err != nil {
			t.Fatalf("node %d payout key: %v", i, err)
		}
		h.Payouts = append(h.Payouts, payout)
	}
	return h
}

// SetDefense applies an adversarial-defense policy and resource bounds
// to every node in the harness. Call it before (or after) connecting;
// policies take effect for new penalties immediately.
func (h *Harness) SetDefense(pol p2p.Policy, b Bounds) {
	h.bounds = &b
	for _, node := range h.Nodes {
		node.SetPolicy(pol)
		node.Pool().SetLimits(b.MaxPoolTxs, b.MaxPoolBytes)
	}
}

// AssertBounds fails the test if any node currently exceeds the resource
// bounds configured by SetDefense. Safe to call repeatedly, including
// inside WaitFor conditions, to sample the invariant throughout a
// scenario.
func (h *Harness) AssertBounds() {
	h.T.Helper()
	if h.bounds == nil {
		h.T.Fatalf("AssertBounds called without SetDefense")
	}
	b := h.bounds
	for i, node := range h.Nodes {
		if got := node.Pool().Size(); got > b.MaxPoolTxs {
			h.T.Fatalf("node %d pools %d txs, bound %d", i, got, b.MaxPoolTxs)
		}
		if got := node.Pool().Bytes(); got > b.MaxPoolBytes {
			h.T.Fatalf("node %d pools %d tx bytes, bound %d", i, got, b.MaxPoolBytes)
		}
		if got := node.PeerCount(); got > b.MaxPeers {
			h.T.Fatalf("node %d has %d peers, bound %d", i, got, b.MaxPeers)
		}
	}
}

// Metric returns the current value of a metric on node i (counter sum,
// gauge, vec total or histogram count; see telemetry.Registry.Value).
// Unregistered names read as zero so assertions stay simple.
func (h *Harness) Metric(i int, name string) float64 {
	v, _ := h.Full[i].Reg.Value(name)
	return v
}

// Host names node i on the simulated network.
func (h *Harness) Host(i int) string { return fmt.Sprintf("n%d", i) }

// Connect dials node i -> node j; node i redials the address whenever
// the connection drops. It returns once node j has accepted the
// connection, so peer ids (which order download scheduling) follow the
// order of Connect calls.
func (h *Harness) Connect(i, j int) {
	h.T.Helper()
	if err := h.Nodes[i].Dial(h.Host(j)); err != nil {
		h.T.Fatalf("connect %d->%d: %v", i, j, err)
	}
	h.Wait()
}

// waitForTicks bounds WaitFor: 25 000 ticks of tickStep, 500 s of
// virtual time, six times the 4 200 ticks the slowest wait (a skeleton
// withholder's ban) needs.
const waitForTicks = 25000

// WaitFor is Barrier.WaitFor bounded at waitForTicks ticks, failing
// the test when cond does not hold by then; it returns the ticks it
// took.
func (h *Harness) WaitFor(what string, cond func() bool) int {
	h.T.Helper()
	ticks, ok := h.Barrier.WaitFor(waitForTicks, cond)
	if !ok {
		h.T.Fatalf("%s: not reached in %d ticks", what, ticks)
	}
	return ticks
}

// Mine mines one block on node i at the next slot of a fixed virtual
// timestamp schedule (one minute per block, globally ordered), so block
// hashes depend only on their content — not on how long the scenario
// settled in between — and settles 5 ticks. The jump to the slot moves
// Clk, not the liveness clock, and waits first for quiescence, so what
// the scenario sent before mining departs before the jump.
func (h *Harness) Mine(i int) *wire.MsgBlock {
	h.T.Helper()
	h.Wait()
	h.blocks++
	target := h.base.Add(time.Duration(h.blocks) * time.Minute)
	if h.Clk.Now().Before(target) {
		h.Clk.Set(target)
	} else {
		h.Clk.Advance(time.Minute)
	}
	blk, _, err := h.Full[i].Miner.Mine(h.Payouts[i])
	if err != nil {
		h.T.Fatalf("mine on node %d: %v", i, err)
	}
	h.Settle(5)
	return blk
}

// MineN mines n blocks on node i.
func (h *Harness) MineN(i, n int) {
	h.T.Helper()
	for k := 0; k < n; k++ {
		h.Mine(i)
	}
}

// Partition splits the network into groups of node indices.
func (h *Harness) Partition(groups ...[]int) {
	named := make([][]string, len(groups))
	for gi, g := range groups {
		for _, i := range g {
			named[gi] = append(named[gi], h.Host(i))
		}
	}
	h.Net.SetPartition(named...)
}

// Heal removes all faults and settles 10 ticks. The nodes recover on
// their own: each redials the addresses it dialed, and its request
// sweep's probe asks every peer for what the faults made it miss.
func (h *Harness) Heal() {
	h.T.Helper()
	h.Net.Heal()
	h.Settle(10)
}

// WaitConverged waits until every node reports the same best hash, and
// returns the ticks that took.
func (h *Harness) WaitConverged() int {
	h.T.Helper()
	return h.WaitFor("best-hash convergence", func() bool {
		best := h.Nodes[0].Chain().BestHash()
		for _, node := range h.Nodes[1:] {
			if node.Chain().BestHash() != best {
				return false
			}
		}
		return true
	})
}

// AssertConverged checks the four system invariants and returns the
// converged best hash:
//
//  1. every node reports the same best hash;
//  2. no UTXO is spent twice across the converged chain's history, and
//     the UTXO set equals created-minus-spent;
//  3. the Typecoin affine invariant holds on every node's ledger, and
//     all ledgers applied the same number of carriers;
//  4. no mempool holds a transaction conflicting with the converged
//     chain;
//  5. every node's chain index sits at the converged tip and its rows —
//     built incrementally through whatever partitions and reorgs the
//     scenario ran — are bit-for-bit what a from-genesis rebuild yields.
func (h *Harness) AssertConverged() chainhash.Hash {
	h.T.Helper()
	best := h.Nodes[0].Chain().BestHash()
	for i, node := range h.Nodes {
		if got := node.Chain().BestHash(); got != best {
			h.T.Fatalf("invariant 1: node %d best hash %s, node 0 has %s (heights %d vs %d)",
				i, got, best, node.Chain().BestHeight(), h.Nodes[0].Chain().BestHeight())
		}
	}
	if err := AuditChainUTXO(h.Nodes[0].Chain()); err != nil {
		h.T.Fatalf("invariant 2: %v", err)
	}
	for i, nd := range h.Full {
		l := nd.Ledger
		if err := l.AuditAffine(); err != nil {
			h.T.Fatalf("invariant 3: node %d: %v", i, err)
		}
		if got, want := l.AppliedCount(), h.Full[0].Ledger.AppliedCount(); got != want {
			h.T.Fatalf("invariant 3: node %d applied %d typecoin carriers, node 0 applied %d",
				i, got, want)
		}
	}
	for i, node := range h.Nodes {
		if err := AuditMempoolAgainstChain(node.Pool(), node.Chain()); err != nil {
			h.T.Fatalf("invariant 4: node %d: %v", i, err)
		}
	}
	for i, nd := range h.Full {
		ix := nd.Index
		tipHash, tipHeight, err := ix.Tip()
		if err != nil {
			h.T.Fatalf("invariant 5: node %d index tip: %v", i, err)
		}
		if tipHash != best || tipHeight != h.Nodes[i].Chain().BestHeight() {
			h.T.Fatalf("invariant 5: node %d index tip %s@%d, chain tip %s@%d",
				i, tipHash, tipHeight, best, h.Nodes[i].Chain().BestHeight())
		}
		if err := ix.AuditRebuild(); err != nil {
			h.T.Fatalf("invariant 5: node %d: %v", i, err)
		}
	}
	return best
}

// AuditChainUTXO re-walks a chain's main-chain history from genesis and
// verifies Bitcoin's between-transaction affine guarantee: every spend
// consumes an output that exists and was not consumed before, and the
// chain's UTXO set is exactly the outputs created and never spent. It
// delegates to the chain's own from-genesis audit, which additionally
// cross-checks the spend journal — the same audit persistent nodes run
// after crash recovery.
func AuditChainUTXO(c *chain.Chain) error {
	return c.AuditFromGenesis()
}

// AuditMempoolAgainstChain verifies that no pooled transaction conflicts
// with the chain: none is already confirmed and none spends an outpoint
// the chain has consumed.
func AuditMempoolAgainstChain(pool *mempool.Pool, c *chain.Chain) error {
	for _, txid := range pool.TxIDs() {
		if _, onChain := c.TxByID(txid); onChain {
			return fmt.Errorf("mempool tx %s is already confirmed", txid)
		}
		tx, ok := pool.Tx(txid)
		if !ok {
			continue
		}
		for _, in := range tx.TxIn {
			if rec, isSpent := c.IsSpent(in.PreviousOutPoint); isSpent {
				return fmt.Errorf("mempool tx %s double-spends %v (consumed on chain: %+v)",
					txid, in.PreviousOutPoint, rec)
			}
		}
	}
	return nil
}
