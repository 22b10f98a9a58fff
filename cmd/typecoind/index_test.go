package main

// Daemon-level index recovery: the chain index rides the store's commit
// batches, so a SIGKILL — no shutdown path at all — must leave index
// and chain at the same durable prefix. The restarted daemon has to
// serve exactly the address history it served before the kill, pass the
// index rebuild audit over HTTP, and keep indexing new blocks.

import (
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"typecoin/internal/chain"
)

func TestDaemonKillIndexRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	dir := t.TempDir()

	// Phase 1: build address history a client would care about — two
	// confirmed sends to a fresh principal — then capture the index API
	// responses verbatim.
	d := startDaemon(t, dir)
	maturity := chain.RegTestParams().CoinbaseMaturity
	d.post(t, "/mine", map[string]int{"blocks": maturity + 2})
	principal := d.post(t, "/newkey", nil)["principal"].(string)
	d.post(t, "/send", map[string]interface{}{"to": principal, "amount": 1_500_000})
	d.post(t, "/mine", map[string]int{"blocks": 1})
	d.post(t, "/send", map[string]interface{}{"to": principal, "amount": 750_000})
	d.post(t, "/mine", map[string]int{"blocks": 1})

	code, beforeStatus, err := d.get(t, "/index/status")
	if err != nil || code != http.StatusOK {
		t.Fatalf("GET /index/status: code=%d err=%v", code, err)
	}
	if beforeStatus["indexHeight"] != beforeStatus["chainHeight"] {
		t.Fatalf("index lagging before kill: %v", beforeStatus)
	}
	code, beforeAddr, err := d.get(t, "/index/address/"+principal)
	if err != nil || code != http.StatusOK {
		t.Fatalf("GET /index/address: code=%d err=%v", code, err)
	}
	if n := len(beforeAddr["entries"].([]interface{})); n != 2 {
		t.Fatalf("address history has %d entries before kill, want 2", n)
	}

	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = d.cmd.Wait()

	// Phase 2: restart on the same datadir. The index must come back at
	// the recovered chain tip and serve the identical address history.
	d2 := startDaemon(t, dir)
	code, afterStatus, err := d2.get(t, "/index/status")
	if err != nil || code != http.StatusOK {
		t.Fatalf("GET /index/status after restart: code=%d err=%v", code, err)
	}
	for _, field := range []string{"indexHeight", "indexHash", "chainHeight"} {
		if beforeStatus[field] != afterStatus[field] {
			t.Errorf("%s: before kill %v, after restart %v\nlogs:\n%s",
				field, beforeStatus[field], afterStatus[field], d2.logs.String())
		}
	}
	code, afterAddr, err := d2.get(t, "/index/address/"+principal)
	if err != nil || code != http.StatusOK {
		t.Fatalf("GET /index/address after restart: code=%d err=%v", code, err)
	}
	if !reflect.DeepEqual(beforeAddr, afterAddr) {
		t.Errorf("address history changed across kill/restart:\nbefore %v\nafter  %v",
			beforeAddr, afterAddr)
	}
	// The rebuild audit — incremental rows bit-equal a from-genesis
	// replay — over the public API.
	code, audit, err := d2.get(t, "/index/audit")
	if err != nil || code != http.StatusOK || audit["ok"] != true {
		t.Fatalf("GET /index/audit: code=%d out=%v err=%v", code, audit, err)
	}

	// The recovered index is live: new blocks keep flowing into it.
	d2.post(t, "/mine", map[string]int{"blocks": 1})
	code, grown, err := d2.get(t, "/index/status")
	if err != nil || code != http.StatusOK {
		t.Fatalf("GET /index/status after mine: code=%d err=%v", code, err)
	}
	if want := beforeStatus["indexHeight"].(float64) + 1; grown["indexHeight"] != want {
		t.Fatalf("indexHeight after mine: %v, want %v", grown["indexHeight"], want)
	}
	if err := d2.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = d2.cmd.Wait()

	// Phase 3: restart after the second kill, keep mining, and shut down
	// gracefully: index, audit and the final metrics snapshot all agree
	// on the tip.
	d3 := startDaemon(t, dir)
	d3.post(t, "/mine", map[string]int{"blocks": 2})
	code, st3, err := d3.get(t, "/index/status")
	if err != nil || code != http.StatusOK {
		t.Fatalf("GET /index/status after second restart: code=%d err=%v", code, err)
	}
	if st3["indexHeight"] != st3["chainHeight"] {
		t.Fatalf("index lagging after second restart: %v", st3)
	}
	if code, audit, err := d3.get(t, "/index/audit"); err != nil || code != http.StatusOK || audit["ok"] != true {
		t.Fatalf("GET /index/audit after second restart: code=%d out=%v err=%v", code, audit, err)
	}
	if err := d3.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d3.cmd.Wait(); err != nil {
		t.Fatalf("graceful shutdown exit: %v\nlogs:\n%s", err, d3.logs.String())
	}
	snap, err := os.ReadFile(filepath.Join(dir, "metrics.last"))
	if err != nil {
		t.Fatalf("metrics.last after graceful shutdown: %v", err)
	}
	if got, want := snapshotMetric(t, snap, "chain_height"), st3["chainHeight"].(float64); got != want {
		t.Fatalf("final chain_height = %v, want tip %v", got, want)
	}
}
