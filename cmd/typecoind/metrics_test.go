package main

// End-to-end observability smoke test: boots a real daemon as a child
// process (reusing the startDaemon helper from recovery_test.go),
// scrapes /metrics, and fails on malformed exposition output or
// missing series. `make metrics-smoke` runs exactly this test.

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"typecoin/internal/chain"
)

// sampleLine matches one Prometheus text-format sample:
// name{labels} value — labels optional, value a Go float.
var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|[+-]?Inf|NaN)$`)

// scrapeMetrics fetches and strictly parses /metrics, returning the
// value of each sample keyed by full series (name plus label set).
func scrapeMetrics(t *testing.T, d *daemon) map[string]float64 {
	t.Helper()
	resp, err := http.Get("http://" + d.addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content-type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := make(map[string]float64)
	for i, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed exposition line %d: %q", i+1, line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", i+1, m[3], err)
		}
		samples[m[1]+m[2]] = v
	}
	return samples
}

// familyNames reduces full series keys to their bare metric names.
func familyNames(samples map[string]float64) map[string]bool {
	names := make(map[string]bool)
	for k := range samples {
		name := k
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		names[name] = true
	}
	return names
}

func TestMetricsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	dir := t.TempDir()
	d := startDaemon(t, dir)

	// The exposition must parse and span every instrumented subsystem.
	samples := scrapeMetrics(t, d)
	names := familyNames(samples)
	if len(names) < 25 {
		t.Errorf("only %d distinct metric families, want >= 25: %v", len(names), names)
	}
	for _, want := range []string{
		"chain_height", "chain_connects_total", "chain_connect_seconds_count",
		"chain_utxo_size", "sigcache_hits_total", "sigcache_size", "sigverify_key_tables",
		"mempool_size", "mempool_accepted_total",
		"p2p_peers", "p2p_bans_total",
		"miner_blocks_found_total", "miner_hash_attempts_total",
		"store_journal_bytes", "store_commits_total",
		"chain_header_height", "p2p_inflight_bodies", "p2p_download_peers",
		"process_uptime_seconds",
		"tx_submit_to_accept_seconds_count", "tx_accept_to_mined_seconds_count",
		"tx_mined_to_durable_seconds_count", "tx_durable_to_indexed_seconds_count",
		"block_first_seen_to_connected_seconds_count",
	} {
		if !names[want] {
			t.Errorf("metric family %q missing from /metrics", want)
		}
	}

	// Counters move with work and stay monotone.
	d.post(t, "/mine", map[string]int{"blocks": 3})
	after := scrapeMetrics(t, d)
	if got := after["chain_height"]; got != 3 {
		t.Errorf("chain_height = %v after mining 3, want 3", got)
	}
	for _, c := range []string{"chain_connects_total", "miner_blocks_found_total"} {
		if after[c] < 3 {
			t.Errorf("%s = %v after mining 3 blocks", c, after[c])
		}
		if after[c] < samples[c] {
			t.Errorf("%s went backwards: %v -> %v", c, samples[c], after[c])
		}
	}
	if after["miner_hash_attempts_total"] <= 0 {
		t.Errorf("miner_hash_attempts_total = %v", after["miner_hash_attempts_total"])
	}

	// The block-lifecycle tracer saw the connects.
	code, ev, err := d.get(t, "/debug/events")
	if err != nil || code != http.StatusOK {
		t.Fatalf("GET /debug/events: code=%d err=%v", code, err)
	}
	if n := ev["count"].(float64); n < 3 {
		t.Errorf("/debug/events count = %v, want >= 3", n)
	}
	connected := 0
	for _, raw := range ev["events"].([]interface{}) {
		if raw.(map[string]interface{})["kind"] == "block_connected" {
			connected++
		}
	}
	if connected < 3 {
		t.Errorf("%d block_connected events, want >= 3", connected)
	}

	// /status carries the new operational fields, including headers-first
	// sync progress; a node that mined its own chain is caught up.
	st := d.status(t)
	for _, field := range []string{"uptimeSeconds", "tipAgeSeconds", "mempoolBytes",
		"headerHeight", "inflightBodies", "downloadPeers", "syncing"} {
		if _, ok := st[field]; !ok {
			t.Errorf("/status missing %q: %v", field, st)
		}
	}
	if st["headerHeight"].(float64) != st["height"].(float64) {
		t.Errorf("/status headerHeight %v != height %v on a caught-up node",
			st["headerHeight"], st["height"])
	}
	if st["syncing"].(bool) {
		t.Errorf("/status reports syncing on a caught-up node: %v", st)
	}
	if after["chain_header_height"] != after["chain_height"] {
		t.Errorf("chain_header_height %v != chain_height %v on a caught-up node",
			after["chain_header_height"], after["chain_height"])
	}

	// pprof is wired under /debug/pprof/.
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/", d.addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/: status %d", resp.StatusCode)
	}

	// A wallet send walks a transaction span through every stage: once
	// its block connects, the durable stage and both pairs around it have
	// been observed on a default daemon.
	maturity := chain.RegTestParams().CoinbaseMaturity
	d.post(t, "/mine", map[string]int{"blocks": maturity})
	principal := d.post(t, "/newkey", nil)["principal"].(string)
	txid := d.post(t, "/send", map[string]interface{}{"to": principal, "amount": 1_500_000})["txid"].(string)
	d.post(t, "/mine", map[string]int{"blocks": 1})
	finalHeight := 3 + maturity + 1
	waitDaemon(t, "span durable and indexed", func() bool {
		st, _, _, ok := spanStages(t, d, txid)
		return ok && st["durable"] && st["indexed"]
	})
	spanned := scrapeMetrics(t, d)
	for _, c := range []string{"tx_mined_to_durable_seconds_count", "tx_durable_to_indexed_seconds_count"} {
		if spanned[c] < 1 {
			t.Errorf("%s = %v after a send was mined", c, spanned[c])
		}
	}

	// Graceful shutdown snapshots the final metric values.
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("graceful shutdown: %v\nlogs:\n%s", err, d.logs.String())
	}
	snap, err := os.ReadFile(filepath.Join(dir, "metrics.last"))
	if err != nil {
		t.Fatalf("metrics.last: %v", err)
	}
	if got := snapshotMetric(t, snap, "chain_height"); got != float64(finalHeight) {
		t.Errorf("metrics.last chain_height = %v, want %d", got, finalHeight)
	}
}
