package main

// Two-daemon end-to-end trace test: a transaction submitted on one real
// daemon relays to a second over p2p, gets mined, and both daemons must
// then serve complete commitment-latency spans at /debug/spans — the
// origin with the full submitted→accepted→mined→connected→durable→
// indexed waterfall, the relay peer with a recorded hop that adopted the
// origin's wire-propagated identity. This is exactly the data
// `typecoin-cli trace <txid>` renders. The same two daemons also show
// that one redials a peer that restarted, and three show that two
// daemons on one host are two peers of a third.

import (
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"typecoin/internal/chain"
)

// waitDaemon polls cond against live daemons with a real-time deadline.
func waitDaemon(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// spanStages fetches ref's span from a daemon and reduces it to the
// stage set, the hop count and the origin identity; ok is false while
// the daemon does not track the subject.
// origin comes back as float64 (generic JSON decoding), so identity
// comparisons convert the expected uint64 the same way.
func spanStages(t *testing.T, d *daemon, ref string) (stages map[string]bool, hops int, origin float64, ok bool) {
	t.Helper()
	code, out, err := d.get(t, "/debug/spans?ref="+ref)
	if err != nil || code != http.StatusOK {
		return nil, 0, 0, false
	}
	raw, _ := out["spans"].([]interface{})
	if len(raw) == 0 {
		return nil, 0, 0, false
	}
	sp := raw[0].(map[string]interface{})
	stages = make(map[string]bool)
	if ss, ok := sp["stages"].([]interface{}); ok {
		for _, s := range ss {
			stages[s.(map[string]interface{})["stage"].(string)] = true
		}
	}
	if hs, ok := sp["hops"].([]interface{}); ok {
		hops = len(hs)
	}
	origin, _ = sp["origin"].(float64)
	return stages, hops, origin, true
}

func TestTraceSpansAcrossRelay(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	// Both daemons run the default store stack: durable is stamped when
	// a block's connect batch is applied, whether or not it was fsynced.
	dirA, dirB := t.TempDir(), t.TempDir()
	dA := startDaemon(t, dirA, "-listen", "127.0.0.1:0")
	p2pAddr, err := os.ReadFile(filepath.Join(dirA, "p2p.addr"))
	if err != nil {
		t.Fatalf("p2p.addr: %v", err)
	}
	dB := startDaemon(t, dirB, "-connect", string(p2pAddr))

	// Fund B's wallet; the chain relays B -> A over the live connection.
	maturity := chain.RegTestParams().CoinbaseMaturity
	dB.post(t, "/mine", map[string]int{"blocks": maturity + 2})
	waitDaemon(t, "chain relay to A", func() bool {
		return dA.status(t)["height"].(float64) == float64(maturity+2)
	})

	// Submit on B, watch the tx cross one relay hop into A's mempool,
	// then confirm it.
	principal := dB.post(t, "/newkey", nil)["principal"].(string)
	txid := dB.post(t, "/send",
		map[string]interface{}{"to": principal, "amount": 1_500_000})["txid"].(string)
	waitDaemon(t, "tx relay to A", func() bool {
		return dA.status(t)["mempool"].(float64) == 1
	})
	dB.post(t, "/mine", map[string]int{"blocks": 1})
	waitDaemon(t, "block relay to A", func() bool {
		return dA.status(t)["height"].(float64) == float64(maturity+3)
	})

	// The origin daemon's span is the complete waterfall; indexing
	// trails the connect notification, so wait for it.
	waitDaemon(t, "origin span durable and indexed", func() bool {
		st, _, _, ok := spanStages(t, dB, txid)
		return ok && st["indexed"] && st["durable"]
	})
	stagesB, _, _, _ := spanStages(t, dB, txid)
	for _, want := range []string{"submitted", "accepted", "mined", "connected", "durable", "indexed"} {
		if !stagesB[want] {
			t.Errorf("origin span missing stage %q (has %v)", want, stagesB)
		}
	}

	// The relay daemon's span has the post-relay stages, no local
	// submission claim, and a hop record that adopted the origin's
	// wire-propagated identity.
	waitDaemon(t, "relay span durable and indexed", func() bool {
		st, _, _, ok := spanStages(t, dA, txid)
		return ok && st["indexed"] && st["durable"]
	})
	stagesA, hopsA, originA, _ := spanStages(t, dA, txid)
	for _, want := range []string{"accepted", "mined", "connected", "durable", "indexed"} {
		if !stagesA[want] {
			t.Errorf("relay span missing stage %q (has %v)", want, stagesA)
		}
	}
	if stagesA["submitted"] {
		t.Errorf("relay span claims local submission: %v", stagesA)
	}
	if hopsA < 1 {
		t.Errorf("relay span recorded %d hops, want >= 1", hopsA)
	}
	// B ran with the startDaemon defaults (-listen "" -http 127.0.0.1:0),
	// so its origin identity is a known constant of those flags.
	if want := float64(originID("", "127.0.0.1:0")); originA != want {
		t.Errorf("relay span origin = %.0f, want %.0f (adopted from the submitting daemon)",
			originA, want)
	}
}

// TestPeerRedialedAfterRestart: a daemon whose -connect peer stops is
// apart from it for longer than a few redials' back-off, until the peer
// restarts on the same port and mines a block. The daemon redials on its
// own, with no operator action, and syncs that block.
func TestPeerRedialedAfterRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	dA := startDaemon(t, dirA, "-listen", "127.0.0.1:0")
	p2pAddr, err := os.ReadFile(filepath.Join(dirA, "p2p.addr"))
	if err != nil {
		t.Fatalf("p2p.addr: %v", err)
	}
	dB := startDaemon(t, dirB, "-connect", string(p2pAddr))
	dA.post(t, "/mine", map[string]int{"blocks": 1})
	waitDaemon(t, "block relay to B", func() bool {
		return dB.status(t)["height"].(float64) == 1
	})

	if err := dA.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := dA.cmd.Wait(); err != nil {
		t.Fatalf("shutdown exit: %v\nlogs:\n%s", err, dA.logs.String())
	}
	time.Sleep(2500 * time.Millisecond)
	dA = startDaemon(t, dirA, "-listen", string(p2pAddr))
	dA.post(t, "/mine", map[string]int{"blocks": 1})
	waitDaemon(t, "B reconnects and syncs the block mined after the restart", func() bool {
		return dB.status(t)["height"].(float64) == 2
	})
}

// TestTwoDaemonsOnOneHostStayConnected: two daemons on 127.0.0.1 dial a
// third, which keeps both as peers. A block mined on either reaches the
// other through the third, and the third counts two peers throughout.
func TestTwoDaemonsOnOneHostStayConnected(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	dirA := t.TempDir()
	dA := startDaemon(t, dirA, "-listen", "127.0.0.1:0")
	p2pAddr, err := os.ReadFile(filepath.Join(dirA, "p2p.addr"))
	if err != nil {
		t.Fatalf("p2p.addr: %v", err)
	}
	dB := startDaemon(t, t.TempDir(), "-connect", string(p2pAddr))
	dC := startDaemon(t, t.TempDir(), "-connect", string(p2pAddr))
	peers := func(d *daemon) float64 { return d.status(t)["peers"].(float64) }
	waitDaemon(t, "A holds both peers", func() bool { return peers(dA) == 2 })

	dB.post(t, "/mine", map[string]int{"blocks": 1})
	waitDaemon(t, "B's block reaches C through A", func() bool {
		return dC.status(t)["height"].(float64) == 1
	})
	dC.post(t, "/mine", map[string]int{"blocks": 1})
	waitDaemon(t, "C's block reaches B through A", func() bool {
		return dB.status(t)["height"].(float64) == 2
	})
	for i := 0; i < 20; i++ {
		if a, b, c := peers(dA), peers(dB), peers(dC); a != 2 || b != 1 || c != 1 {
			t.Fatalf("peer counts A %v, B %v, C %v; want 2, 1, 1", a, b, c)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
