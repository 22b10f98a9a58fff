package netsim

import (
	"testing"
	"time"
)

// TestStalledHandshakeReapedOnLivenessTime: a peer that connects over
// the simulated network and never sends its version is reaped after
// exactly the handshake time-out (10 s) of liveness time: present one
// tick before, gone on the tick that reaches it.
func TestStalledHandshakeReapedOnLivenessTime(t *testing.T) {
	h := NewHarness(t, 3, 1, LinkConfig{Latency: time.Millisecond})
	conn, err := h.Net.Dial("mute", h.Host(0))
	if err != nil {
		t.Fatal(err)
	}
	// Read and discard what the node sends, as a peer that stalls
	// mid-handshake would; close once the node hangs up.
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := conn.Read(buf); err != nil {
				conn.Close()
				return
			}
		}
	}()
	h.Settle(0)
	if got := h.Nodes[0].PeerCount(); got != 1 {
		t.Fatalf("mute peer not registered: %d peers", got)
	}
	start := h.Live.Now()
	ticks := h.WaitFor("mute peer reaped", func() bool { return h.Nodes[0].PeerCount() == 0 })
	if got := h.Live.Now().Sub(start); got != 10*time.Second {
		t.Fatalf("mute peer reaped after %v of liveness time (%d ticks), want 10s", got, ticks)
	}
}

// TestRedialBackoffOnLivenessTime: when a dialed peer goes away, the
// dialer redials it on the back-off schedule in liveness time, and
// keeps dialing; Stop cancels a pending attempt. The first attempt is
// due 25 ms after the drop and each later one twice as long after its
// predecessor as that one was after its own, up to the 10 s cap; each
// fires on the first 20 ms tick at or past its due time: 40, 100, 200,
// 400, 800, 1600, 3200, 6400 and 12 800 ms after the drop, then every
// 10 s.
func TestRedialBackoffOnLivenessTime(t *testing.T) {
	h := NewHarness(t, 4, 3, LinkConfig{Latency: time.Millisecond})
	h.Connect(0, 1)
	h.Connect(0, 2)
	h.Settle(5)
	if h.Nodes[0].PeerCount() != 2 {
		t.Fatalf("node 0 has %d peers, want 2", h.Nodes[0].PeerCount())
	}

	// Node 1 goes away: its listener closes, so every redial is refused.
	h.Nodes[1].Stop()
	h.Settle(0)
	if h.Nodes[0].HasPeerAddr(h.Host(1)) {
		t.Fatal("node 0 still has its peer after node 1 stopped")
	}
	drop := h.Live.Now()
	var at []time.Duration
	for k := 0; k < 2000; k++ {
		before := h.Metric(0, "p2p_redials_total")
		h.Settle(1)
		if h.Metric(0, "p2p_redials_total") > before {
			at = append(at, h.Live.Now().Sub(drop))
		}
	}
	want := []time.Duration{40, 100, 200, 400, 800, 1600, 3200, 6400, 12800, 22800, 32800}
	if len(at) != len(want) {
		t.Fatalf("redials at %v, want at %v ms", at, want)
	}
	for i := range want {
		if at[i] != want[i]*time.Millisecond {
			t.Fatalf("redials at %v, want at %v ms", at, want)
		}
	}

	// Node 2 goes away too, and node 0 stops before the first attempt
	// of the new chain is due: Stop cancels it (and returns, so the
	// attempt's wait-group slot was released).
	h.Nodes[2].Stop()
	h.Settle(0)
	h.Nodes[0].Stop()
	redials := h.Metric(0, "p2p_redials_total")
	h.Settle(10)
	if got := h.Metric(0, "p2p_redials_total"); got != redials {
		t.Fatalf("a stopped node redialed: %v attempts, had %v", got, redials)
	}
}
