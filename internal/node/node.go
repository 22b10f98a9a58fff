// Package node assembles one Typecoin node: a regtest chain over a
// store, its index, a mempool, a wallet, the Typecoin ledger, a miner
// and a p2p node, with one telemetry registry, event tracer and span
// store shared by all of them. The daemon, the network simulator, the
// regtest demo, the examples and the experiment harness all build their
// nodes here, so "how a node is put together" is decided once.
package node

import (
	"fmt"
	"io"
	"log/slog"
	"time"

	"typecoin/internal/chain"
	"typecoin/internal/clock"
	"typecoin/internal/index"
	"typecoin/internal/mempool"
	"typecoin/internal/miner"
	"typecoin/internal/p2p"
	"typecoin/internal/sigcache"
	"typecoin/internal/store"
	"typecoin/internal/telemetry"
	"typecoin/internal/typecoin"
	"typecoin/internal/wallet"
)

// Config holds what the callers of Open vary. Each field is set to
// different values by at least two of them; everything only one caller
// varies (the peer layer's liveness clock, transport and policy, the
// span origin) is set through the component's own setter after Open.
type Config struct {
	// Clock drives the chain, the miner and the telemetry: clock.System
	// in cmd/typecoind, a *clock.Simulated (see SimClock) in netsim,
	// cmd/tcregtest, internal/demo and internal/bench. nil means
	// clock.System.
	Clock clock.Clock
	// Store is the persistence engine: cmd/typecoind's file or memory
	// store behind its retry wrapper, and netsim's fault stacks in the
	// chaos scenario. nil means a fresh in-memory store, which every
	// other caller uses.
	Store store.Store
	// Entropy seeds the wallet's keys: nil (crypto/rand) in
	// cmd/typecoind, a testutil.NewEntropy stream in every other caller.
	Entropy io.Reader
	// MinConf is the ledger's confirmation depth: cmd/typecoind's
	// -minconf, and 1 everywhere else (0 also reads as 1).
	MinConf int
	// Spans is the span store's capacity: cmd/typecoind's -trace-spans,
	// netsim's telemetry.DefaultSpanCapacity. 0 disables span tracing,
	// as in the callers that never read spans.
	Spans int
	// Logger is the p2p layer's component logger: cmd/typecoind's, and
	// nil (silent) everywhere else.
	Logger *slog.Logger
}

// Node is one assembled node. Every field is set by Open; Spans is nil
// when Config.Spans is 0.
type Node struct {
	Chain  *chain.Chain
	Index  *index.Indexer
	Pool   *mempool.Pool
	Wallet *wallet.Wallet
	Ledger *typecoin.Ledger
	Miner  *miner.Miner
	P2P    *p2p.Node
	Reg    *telemetry.Registry
	Tracer *telemetry.Tracer
	Spans  *telemetry.SpanStore
}

// SimClock returns a simulated clock at one minute past the regtest
// genesis timestamp, where every simulated node starts.
func SimClock() *clock.Simulated {
	return clock.NewSimulated(chain.RegTestParams().GenesisBlock.Header.Timestamp.Add(time.Minute))
}

// beforeP2P, when set, is subscribed to the chain just ahead of the p2p
// layer, so a test can see what every earlier subscriber has done by
// the time the p2p layer hears of a block.
var beforeP2P func(chain.Notification)

// Open builds a node over cfg.Store, loading whatever state the store
// holds: chain, index, mempool (publishing accepted transactions to the
// index), wallet, ledger, miner and p2p node, then the telemetry. The
// p2p node neither listens nor dials until the caller asks it to.
//
// Chain subscribers run in registration order, which is construction
// order here: index, mempool, wallet, ledger, p2p. The p2p layer comes
// last because its subscriber announces each connected block to the
// peers; a peer that reacts at once must find the block already
// indexed, its transactions gone from the mempool, the wallet's coins
// and the ledger's typed outputs updated.
//
// When the store reports health (store.HealthReporter), the node
// exports it as the store_health gauge and its mempool refuses new
// transactions while the store is degraded to read-only.
func Open(cfg Config) (*Node, error) {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System{}
	}
	st := cfg.Store
	if st == nil {
		st = store.NewMem()
	}
	ch, err := chain.Open(chain.Config{
		Params:   chain.RegTestParams(),
		Clock:    clk,
		SigCache: sigcache.New(sigcache.DefaultCapacity),
		Store:    st,
	})
	if err != nil {
		return nil, fmt.Errorf("open chain: %w", err)
	}
	n := &Node{Chain: ch}
	// The index must subscribe before any block is processed; Open
	// catches it up with the stored chain.
	if n.Index, err = index.Open(ch); err != nil {
		return nil, fmt.Errorf("open index: %w", err)
	}
	n.Pool = mempool.New(ch, -1)
	n.Pool.SetOnAccept(n.Index.PublishTx)
	if n.Wallet, err = wallet.Open(ch, cfg.Entropy); err != nil {
		return nil, fmt.Errorf("open wallet: %w", err)
	}
	if n.Ledger, err = typecoin.OpenLedger(ch, cfg.MinConf); err != nil {
		return nil, fmt.Errorf("open ledger: %w", err)
	}
	n.Miner = miner.New(ch, n.Pool, clk)
	if beforeP2P != nil {
		ch.Subscribe(beforeP2P)
	}
	n.P2P = p2p.NewNode(ch, n.Pool, cfg.Logger)
	n.P2P.SetLedger(n.Ledger)

	n.Reg = telemetry.NewRegistry()
	n.Tracer = telemetry.NewTracer(telemetry.DefaultTraceCapacity, clk)
	ch.SetTelemetry(n.Reg, n.Tracer)
	n.Index.SetTelemetry(n.Reg, n.Tracer)
	n.Pool.SetTelemetry(n.Reg, n.Tracer)
	n.Miner.SetTelemetry(n.Reg)
	n.P2P.SetTelemetry(n.Reg, n.Tracer)
	if cfg.Spans > 0 {
		n.Spans = telemetry.NewSpanStore(cfg.Spans, clk)
		telemetry.RegisterSpanMetrics(n.Reg, n.Spans)
		ch.SetSpans(n.Spans)
		n.Index.SetSpans(n.Spans)
		n.Pool.SetSpans(n.Spans)
		n.Miner.SetSpans(n.Spans)
		n.P2P.SetSpans(n.Spans)
	}

	if hr, ok := st.(store.HealthReporter); ok {
		n.Reg.GaugeFunc("store_health",
			"Store health state (0 healthy, 1 recovering, 2 degraded-readonly).",
			func() float64 {
				h, _ := hr.Health()
				return float64(h)
			})
		n.Pool.SetGate(func() bool {
			h, _ := hr.Health()
			return h != store.HealthDegraded
		})
	}
	return n, nil
}

// Close stops the p2p node, waiting for its goroutines to exit, and
// closes the store.
func (n *Node) Close() error {
	n.P2P.Stop()
	return n.Chain.Store().Close()
}
