package chain

// Chain observability: counters and latency histograms for every
// main-chain mutation, gauges over the resident state, and lifecycle
// events in the shared tracer. All collector fields are nil until
// SetTelemetry is called, and every telemetry type no-ops on nil, so an
// uninstrumented chain (tests, benchmarks) pays only dead branches.

import (
	"fmt"
	"time"

	"typecoin/internal/bkey"
	"typecoin/internal/chainhash"
	"typecoin/internal/telemetry"
)

// chainTelemetry holds the chain's registered collectors. The zero
// value (all nil) disables everything.
type chainTelemetry struct {
	tracer *telemetry.Tracer
	spans  *telemetry.SpanStore

	connects    *telemetry.Counter
	disconnects *telemetry.Counter
	reorgs      *telemetry.Counter
	invalid     *telemetry.Counter
	orphaned    *telemetry.Counter
	sideBlocks  *telemetry.Counter
	duplicates  *telemetry.Counter
	parked      *telemetry.Counter
	headersAcc  *telemetry.Counter

	connectSeconds    *telemetry.Histogram
	disconnectSeconds *telemetry.Histogram
	scriptSeconds     *telemetry.Histogram
	scriptJobs        *telemetry.Counter
	reorgDepth        *telemetry.Histogram

	commits       *telemetry.Counter
	commitSeconds *telemetry.Histogram
	commitOps     *telemetry.Histogram
}

// SetTelemetry registers the chain's metrics on reg and routes lifecycle
// events to tr. Call once, before processing blocks; either argument may
// be nil. The sigcache shared with the mempool is exported here too,
// since the chain owns it.
func (c *Chain) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	c.tel = chainTelemetry{
		tracer: tr,

		connects:    reg.Counter("chain_connects_total", "Blocks connected to the main chain (includes reorg reconnects)."),
		disconnects: reg.Counter("chain_disconnects_total", "Blocks disconnected from the main chain during reorganizations."),
		reorgs:      reg.Counter("chain_reorgs_total", "Completed main-chain reorganizations."),
		invalid:     reg.Counter("chain_invalid_blocks_total", "Blocks rejected as invalid."),
		orphaned:    reg.Counter("chain_orphan_blocks_total", "Bodies dropped because neither their header nor their parent body was known."),
		sideBlocks:  reg.Counter("chain_side_blocks_total", "Blocks stored on side branches."),
		duplicates:  reg.Counter("chain_duplicate_blocks_total", "Already-known blocks offered again."),
		parked:      reg.Counter("chain_parked_blocks_total", "Out-of-order bodies parked until their predecessor connects."),
		headersAcc:  reg.Counter("chain_headers_accepted_total", "Headers validated into the header index."),

		connectSeconds:    reg.Histogram("chain_connect_seconds", "Wall time to validate, persist and connect one block.", telemetry.LatencyBuckets),
		disconnectSeconds: reg.Histogram("chain_disconnect_seconds", "Wall time to disconnect one block.", telemetry.LatencyBuckets),
		scriptSeconds:     reg.Histogram("chain_script_verify_seconds", "Wall time of the parallel script-verification phase per block.", telemetry.LatencyBuckets),
		scriptJobs:        reg.Counter("chain_script_jobs_total", "Input scripts verified by the parallel pipeline."),
		reorgDepth:        reg.Histogram("chain_reorg_depth", "Blocks disconnected per reorganization.", []float64{1, 2, 3, 5, 8, 13, 21}),

		commits:       reg.Counter("store_commits_total", "Atomic batches committed to the store."),
		commitSeconds: reg.Histogram("store_commit_seconds", "Wall time of one atomic batch commit.", telemetry.LatencyBuckets),
		commitOps:     reg.Histogram("store_batch_ops", "Operations per committed batch.", telemetry.ExpBuckets(1, 4, 8)),
	}
	reg.GaugeFunc("chain_height", "Height of the main-chain tip.", func() float64 {
		return float64(c.BestHeight())
	})
	reg.GaugeFunc("chain_header_height", "Height of the best-header tip; the gap above chain_height is the sync backlog.", func() float64 {
		return float64(c.HeaderHeight())
	})
	reg.GaugeFunc("chain_parked_bodies", "Out-of-order bodies currently parked awaiting predecessors.", func() float64 {
		return float64(c.ParkedCount())
	})
	reg.GaugeFunc("chain_utxo_size", "Entries in the unspent-txout table (the paper's deadweight metric).", func() float64 {
		return float64(c.UtxoSize())
	})
	reg.GaugeFunc("chain_spent_journal_size", "Records in the resident spend journal.", func() float64 {
		c.mu.RLock()
		defer c.mu.RUnlock()
		return float64(len(c.spent))
	})
	if sc := c.sigCache; sc != nil {
		reg.CounterFunc("sigcache_hits_total", "Signature verifications answered from the cache.", func() float64 {
			return float64(sc.Stats().Hits)
		})
		reg.CounterFunc("sigcache_misses_total", "Signature verifications that ran the full check.", func() float64 {
			return float64(sc.Stats().Misses)
		})
		reg.CounterFunc("sigcache_evictions_total", "Cache entries evicted to stay within capacity.", func() float64 {
			return float64(sc.Stats().Evictions)
		})
		reg.GaugeFunc("sigcache_size", "Entries currently cached.", func() float64 {
			return float64(sc.Stats().Size)
		})
	}
	// The verifier's key tables are process-wide: every chain in the
	// process reports the same values.
	reg.GaugeFunc("sigverify_key_tables", "Public keys whose precomputed verification table is held (32 KiB each, at most 1024).", func() float64 {
		return float64(bkey.ReadVerifyStats().KeyTables)
	})
	reg.CounterFunc("sigverify_table_builds_total", "Verification tables built, each for a key seen again after a signature under it verified.", func() float64 {
		return float64(bkey.ReadVerifyStats().TableBuilds)
	})
	reg.CounterFunc("sigverify_table_verifies_total", "Signatures fully verified through their key's table.", func() float64 {
		return float64(bkey.ReadVerifyStats().TableVerifies)
	})
	reg.CounterFunc("sigverify_cold_verifies_total", "Signatures fully verified by crypto/ecdsa, under keys not yet tabled.", func() float64 {
		return float64(bkey.ReadVerifyStats().ColdVerifies)
	})
}

// SetSpans routes commitment-latency span stages to s: connect and
// durability of blocks, inclusion, connect and durability of their
// transactions, and the confirmation depth. Call once, before
// processing blocks; s may be nil (spans disabled, the default).
func (c *Chain) SetSpans(s *telemetry.SpanStore) {
	c.tel.spans = s
}

// spanConnected marks the span stages a block connect implies. Mined,
// connected and durable are the same instant for a transaction observed
// through its block: the connect batch's Apply has returned before the
// tip moves (whether that write was fsynced is the engine's sync
// policy). Nodes that tracked the tx earlier (miner, mempool) have
// already recorded the earlier stages. Observe-only: historical blocks
// replayed during initial sync create no spans here — only subjects
// some other path chose to track accrue stages. Caller holds c.mu.
func (c *Chain) spanConnected(node *blockNode) {
	sp := c.tel.spans
	if sp == nil {
		return
	}
	sp.Observe(telemetry.SpanBlock, node.hash, telemetry.StageConnected)
	sp.Observe(telemetry.SpanBlock, node.hash, telemetry.StageDurable)
	sp.MarkHeight(node.hash, node.height)
	for i, tx := range node.block.Transactions {
		if i == 0 {
			continue // coinbase: never submitted, relayed or pooled
		}
		txid := tx.TxHash()
		sp.Observe(telemetry.SpanTx, txid, telemetry.StageMined)
		sp.Observe(telemetry.SpanTx, txid, telemetry.StageConnected)
		sp.Observe(telemetry.SpanTx, txid, telemetry.StageDurable)
		sp.MarkHeight(txid, node.height)
	}
	sp.NotifyHeight(node.height)
}

// recordStatus translates a ProcessBlock outcome into counters and a
// trace event. Connected blocks are counted in connectBlock (a reorg
// connects several per call), so StatusMainChain records nothing here.
func (c *Chain) recordStatus(hash chainhash.Hash, status BlockStatus, err error) {
	switch status {
	case StatusSideChain:
		c.tel.sideBlocks.Inc()
		if c.tel.tracer != nil {
			c.tel.tracer.Record(telemetry.EvBlockSideChain, hash.String(), "")
		}
	case StatusOrphan:
		c.tel.orphaned.Inc()
		if c.tel.tracer != nil {
			c.tel.tracer.Record(telemetry.EvBlockOrphaned, hash.String(), "")
		}
	case StatusDuplicate:
		c.tel.duplicates.Inc()
	case StatusParked:
		// Counted in parkBlockLocked (an over-cap park is dropped, not
		// held); nothing to record here.
	case StatusInvalid:
		c.tel.invalid.Inc()
		if c.tel.tracer != nil {
			detail := ""
			if err != nil {
				detail = err.Error()
			}
			c.tel.tracer.Record(telemetry.EvBlockInvalid, hash.String(), detail)
		}
	}
}

// traceConnected records a block-connected lifecycle event.
func (c *Chain) traceConnected(node *blockNode) {
	if c.tel.tracer == nil {
		return
	}
	c.tel.tracer.Record(telemetry.EvBlockConnected, node.hash.String(),
		fmt.Sprintf("height=%d txs=%d", node.height, len(node.block.Transactions)))
}

// observeSince is time.Since in seconds for latency histograms. Latency
// uses the wall clock even under a simulated chain clock: a virtual
// clock does not advance during validation, so it would observe zero.
func observeSince(h *telemetry.Histogram, start time.Time) {
	h.Observe(time.Since(start).Seconds())
}
