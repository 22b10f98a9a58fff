package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"

	"typecoin/internal/telemetry"
)

// layerMetric names one per-layer metric and its unit. The list is the
// per_layer list of BENCHMARK.json, in the same order; every workload
// reports every name, with 0 where the layer does no work for it.
type layerMetric struct{ name, unit string }

var perLayer = []layerMetric{
	{"wallet.build_p50_us", "us"},
	{"wallet.build_busy_s", "s"},
	{"typecoin.embed_p50_us", "us"},
	{"ledger.check_p50_us", "us"},
	{"ledger.announce_p50_us", "us"},
	{"ledger.applied_count", "count"},
	{"ledger.verify_us_per_bundle", "us"},
	{"ledger.export_claim_p50_us", "us"},
	{"proof.encode_decode_p50_us", "us"},
	{"mempool.accept_p50_us", "us"},
	{"mempool.accept_p95_us", "us"},
	{"mempool.accept_busy_s", "s"},
	{"mempool.accept_count", "count"},
	{"mempool.rejected_count", "count"},
	{"sigcache.hit_ratio", "ratio"},
	{"miner.build_block_p50_ms", "ms"},
	{"miner.solve_p50_ms", "ms"},
	{"miner.hash_attempts_per_block", "count"},
	{"chain.process_block_p50_ms", "ms"},
	{"chain.process_block_p95_ms", "ms"},
	{"chain.process_block_busy_s", "s"},
	{"chain.process_block_self_ms", "ms"},
	{"chain.script_verify_s", "s"},
	{"chain.script_jobs_count", "count"},
	{"store.apply_p50_us", "us"},
	{"store.apply_busy_s", "s"},
	{"store.apply_count", "count"},
	{"store.ops_per_batch", "count"},
	{"store.journal_bytes_per_tx", "bytes"},
	{"store.get_count", "count"},
	{"store.iterate_busy_s", "s"},
	{"store.failed_count", "count"},
	{"index.rows_per_tx", "count"},
	{"index.query_address_p50_us", "us"},
	{"index.query_walk_p50_us", "us"},
	{"index.query_outspend_p50_us", "us"},
	{"index.query_p99_us", "us"},
	{"index.query_busy_s", "s"},
	{"p2p.sent_bytes_per_tx", "bytes"},
	{"p2p.sent_msgs_per_tx", "count"},
	{"p2p.tx_relay_p50_ms", "ms"},
	{"p2p.tx_relay_iqr_ms", "ms"},
	{"p2p.block_relay_p50_ms", "ms"},
	{"p2p.block_relay_iqr_ms", "ms"},
	{"p2p.catchup_bytes_per_block", "bytes"},
	{"wire.block_encode_p50_us", "us"},
	{"wire.block_decode_p50_us", "us"},
	{"gen.late_p95_ms", "ms"},
	{"submit_p99_ms", "ms"},
	{"block_commit_p95_ms", "ms"},
	{"runtime.alloc_bytes_per_tx", "bytes"},
	{"runtime.gc_pause_total_ms", "ms"},
	{"runtime.heap_inuse_max_mb", "MB"},
	{"trace.overhead_share", "ratio"},
	// End-to-end metrics without a bound: block-commit latency and the
	// submission tail, which did not repeat within a bound on the
	// reference machine, and the metrics only one workload reports (the
	// driver's end_to_end list holds what every workload reports; these
	// are 0 on the other workloads).
	{"block_commit_p50_ms", "ms"},
	{"submit_p95_ms", "ms"},
	{"verify_p50_ms", "ms"},
	{"query_per_s", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p95_ms", "ms"},
	{"catchup_blocks_per_s", "blocks/s"},
}

// unboundEndToEnd are the end-to-end metrics copied into the per-layer
// report.
var unboundEndToEnd = []string{
	"block_commit_p50_ms", "submit_p95_ms", "verify_p50_ms",
	"query_per_s", "query_p50_ms", "query_p95_ms", "catchup_blocks_per_s",
}

// scrape reads every counter, gauge and histogram sum and count of a
// registry through its Prometheus rendering, summing label children.
func scrape(reg *telemetry.Registry) map[string]float64 {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		panic(err) // a bytes.Buffer does not fail
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[name] += v
		}
	}
	return out
}

// scrapeAll sums the counters of every node, plus the counts the layers
// expose through methods instead of the registry.
func scrapeAll(nodes []*node) map[string]float64 {
	out := make(map[string]float64)
	for _, n := range nodes {
		for k, v := range scrape(n.reg) {
			out[k] += v
		}
		out["ledger_applied"] += float64(n.ledger.AppliedCount())
		if n.ts != nil {
			out["store_gets"] += float64(n.ts.gets.Load())
			out["store_iterate_ns"] += float64(n.ts.iterateNs.Load())
			out["store_failed"] += float64(n.ts.failed.Load())
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics fills rep.perLayer from the spans of the traced epochs,
// the counter deltas over the measured phase and the runtime's memory
// statistics.
func layerMetrics(rep *report, tr *tracer, acc *measured) {
	own, epochs := rep.series, acc.epochs
	delta := func(name string) float64 { return acc.counters[name] }
	set := func(name string, v float64) {
		for _, lm := range perLayer {
			if lm.name == name {
				rep.perLayer[name] = metric{Value: v, Unit: lm.unit}
				return
			}
		}
		panic("benchmark: per-layer metric not in the list: " + name)
	}
	for _, lm := range perLayer {
		if _, ok := rep.perLayer[lm.name]; !ok {
			set(lm.name, 0)
		}
	}
	var txs, tracedTxs, blocks float64
	var tracedWall, plainWall float64
	var hashAttempts, journal float64
	var submits, commits, late []float64
	for _, ep := range epochs {
		txs += float64(ep.committed)
		blocks += float64(ep.blocks)
		hashAttempts += ep.hashAttempts
		journal += ep.journalBytes
		submits = append(submits, ep.lat["submit"]...)
		commits = append(commits, ep.lat["block_commit"]...)
		late = append(late, ep.lat["late"]...)
		if ep.traced {
			tracedTxs += float64(ep.committed)
			tracedWall += ep.wall.Seconds()
		} else {
			plainWall += ep.wall.Seconds()
		}
	}
	p := func(span string, pct float64) float64 { return percentile(tr.durations(span), pct) }
	busy := func(span string) float64 { return sum(tr.durations(span)) / 1e6 }
	count := func(span string) float64 { return float64(len(tr.durations(span))) }

	set("wallet.build_p50_us", p("wallet.build", 50))
	set("wallet.build_busy_s", busy("wallet.build"))
	set("typecoin.embed_p50_us", p("typecoin.embed", 50))
	set("ledger.check_p50_us", p("ledger.check", 50))
	set("ledger.announce_p50_us", p("ledger.announce", 50))
	set("ledger.applied_count", delta("ledger_applied"))
	set("ledger.verify_us_per_bundle", ratio(sum(tr.durations("ledger.verify_claim")), sum(own["bundles"])))
	set("ledger.export_claim_p50_us", p("ledger.export_claim", 50))
	set("proof.encode_decode_p50_us", p("proof.encode_decode", 50))

	set("mempool.accept_p50_us", p("mempool.accept", 50))
	set("mempool.accept_p95_us", p("mempool.accept", 95))
	set("mempool.accept_busy_s", busy("mempool.accept"))
	set("mempool.accept_count", delta("mempool_accepted_total"))
	set("mempool.rejected_count", delta("mempool_rejected_total"))
	hits, misses := delta("sigcache_hits_total"), delta("sigcache_misses_total")
	set("sigcache.hit_ratio", ratio(hits, hits+misses))

	set("miner.build_block_p50_ms", p("miner.build_block", 50)/1e3)
	set("miner.solve_p50_ms", p("miner.solve", 50)/1e3)
	set("miner.hash_attempts_per_block", ratio(hashAttempts, blocks))

	set("chain.process_block_p50_ms", p("chain.process_block", 50)/1e3)
	set("chain.process_block_p95_ms", p("chain.process_block", 95)/1e3)
	set("chain.process_block_busy_s", busy("chain.process_block"))
	set("chain.process_block_self_ms", percentile(tr.selfTimes()["chain.process_block"], 50)/1e3)
	set("chain.script_verify_s", delta("chain_script_verify_seconds_sum"))
	set("chain.script_jobs_count", delta("chain_script_jobs_total"))

	set("store.apply_p50_us", p("store.apply", 50))
	set("store.apply_busy_s", busy("store.apply"))
	set("store.apply_count", count("store.apply"))
	set("store.ops_per_batch", ratio(delta("store_batch_ops_sum"), delta("store_batch_ops_count")))
	set("store.journal_bytes_per_tx", ratio(journal, txs))
	set("store.get_count", delta("store_gets"))
	set("store.iterate_busy_s", delta("store_iterate_ns")/1e9)
	set("store.failed_count", delta("store_failed"))

	set("index.rows_per_tx", ratio(delta("index_rows_written_total"), txs))
	set("index.query_address_p50_us", p("index.query_address", 50))
	set("index.query_walk_p50_us", p("index.query_walk", 50))
	set("index.query_outspend_p50_us", p("index.query_outspend", 50))
	queries := append(append(tr.durations("index.query_address"), tr.durations("index.query_walk")...),
		tr.durations("index.query_outspend")...)
	set("index.query_p99_us", percentile(queries, 99))
	set("index.query_busy_s", sum(queries)/1e6)

	if len(own["tx_relay"]) > 0 {
		set("p2p.sent_bytes_per_tx", ratio(delta("p2p_sent_bytes_total"), txs))
		set("p2p.sent_msgs_per_tx", ratio(delta("p2p_sent_messages_total"), txs))
		set("p2p.tx_relay_p50_ms", percentile(own["tx_relay"], 50))
		set("p2p.tx_relay_iqr_ms", percentile(own["tx_relay"], 75)-percentile(own["tx_relay"], 25))
		set("p2p.block_relay_p50_ms", percentile(own["block_relay"], 50))
		set("p2p.block_relay_iqr_ms", percentile(own["block_relay"], 75)-percentile(own["block_relay"], 25))
		set("p2p.catchup_bytes_per_block", median(own["catchup_bytes_per_block"]))
	}
	set("wire.block_encode_p50_us", p("wire.block_encode", 50))
	set("wire.block_decode_p50_us", p("wire.block_decode", 50))

	set("gen.late_p95_ms", percentile(late, 95))
	set("submit_p99_ms", percentile(submits, 99))
	set("block_commit_p95_ms", percentile(commits, 95))
	set("runtime.alloc_bytes_per_tx", ratio(float64(acc.alloc), txs))
	set("runtime.gc_pause_total_ms", float64(acc.gcPause)/1e6)
	set("runtime.heap_inuse_max_mb", float64(acc.heapMax)/(1<<20))
	if tracedWall > 0 && plainWall > 0 {
		set("trace.overhead_share", 1-ratio(tracedTxs/tracedWall, (txs-tracedTxs)/plainWall))
	}
	for _, name := range unboundEndToEnd {
		if m, ok := rep.endToEnd[name]; ok {
			set(name, m.Value)
		}
	}
}
