package netsim

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"typecoin/internal/clock"
	"typecoin/internal/wire"
)

// pair dials from -> to and returns both ends.
func pair(t *testing.T, n *Network, from, to string) (net.Conn, net.Conn) {
	t.Helper()
	l, err := n.Listen(to)
	if err != nil {
		t.Fatalf("Listen(%s): %v", to, err)
	}
	c, err := n.Dial(from, to)
	if err != nil {
		t.Fatalf("Dial(%s->%s): %v", from, to, err)
	}
	s, err := l.Accept()
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	return c, s
}

// readN reads exactly n already-delivered bytes without blocking forever.
func readN(t *testing.T, c net.Conn, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("ReadFull(%d): %v", n, err)
	}
	return buf
}

func TestInstantDeliveryOnPerfectLink(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(0, 0))
	n := New(clk, 1, LinkConfig{})
	a, b := pair(t, n, "a", "b")
	if _, err := a.Write([]byte("hello")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if got := readN(t, b, 5); string(got) != "hello" {
		t.Fatalf("read %q, want hello", got)
	}
	// And the other direction.
	if _, err := b.Write([]byte("world")); err != nil {
		t.Fatalf("Write back: %v", err)
	}
	if got := readN(t, a, 5); string(got) != "world" {
		t.Fatalf("read back %q, want world", got)
	}
}

func TestLatencyGatesDelivery(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(0, 0))
	n := New(clk, 1, LinkConfig{Latency: 50 * time.Millisecond})
	a, b := pair(t, n, "a", "b")
	if _, err := a.Write([]byte("late")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if st := n.Stats(); st.Delivered != 0 {
		t.Fatalf("delivered before latency elapsed: %+v", st)
	}
	clk.Advance(49 * time.Millisecond)
	if st := n.Stats(); st.Delivered != 0 {
		t.Fatalf("delivered at 49ms: %+v", st)
	}
	clk.Advance(2 * time.Millisecond)
	if st := n.Stats(); st.Delivered != 1 {
		t.Fatalf("not delivered at 51ms: %+v", st)
	}
	if got := readN(t, b, 4); string(got) != "late" {
		t.Fatalf("read %q, want late", got)
	}
}

func TestBandwidthSerializesFrames(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(0, 0))
	n := New(clk, 1, LinkConfig{BandwidthBps: 1000})
	a, _ := pair(t, n, "a", "b")
	// Two 500-byte frames at 1000 B/s: departures at +0.5s and +1.0s.
	frame := make([]byte, 500)
	a.Write(frame)
	a.Write(frame)
	clk.Advance(400 * time.Millisecond)
	if st := n.Stats(); st.Delivered != 0 {
		t.Fatalf("delivered before serialization delay: %+v", st)
	}
	clk.Advance(200 * time.Millisecond) // 0.6s
	if st := n.Stats(); st.Delivered != 1 {
		t.Fatalf("first frame not alone at 0.6s: %+v", st)
	}
	clk.Advance(500 * time.Millisecond) // 1.1s
	if st := n.Stats(); st.Delivered != 2 {
		t.Fatalf("second frame missing at 1.1s: %+v", st)
	}
}

func TestDuplicationDeliversTwice(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(0, 0))
	n := New(clk, 1, LinkConfig{DupRate: 1})
	a, b := pair(t, n, "a", "b")
	a.Write([]byte("dup!"))
	clk.Advance(time.Second)
	st := n.Stats()
	if st.Duplicated != 1 || st.Delivered != 2 {
		t.Fatalf("stats = %+v, want 1 duplicated / 2 delivered", st)
	}
	if got := readN(t, b, 8); string(got) != "dup!dup!" {
		t.Fatalf("read %q, want dup!dup!", got)
	}
}

func TestDropLosesWholeFrames(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(0, 0))
	n := New(clk, 7, LinkConfig{DropRate: 0.5})
	a, _ := pair(t, n, "a", "b")
	for i := 0; i < 100; i++ {
		a.Write([]byte{byte(i)})
	}
	clk.Advance(time.Second)
	st := n.Stats()
	if st.Dropped == 0 || st.Delivered == 0 {
		t.Fatalf("expected both drops and deliveries: %+v", st)
	}
	if st.Dropped+st.Delivered != 100 {
		t.Fatalf("dropped+delivered = %d, want 100 (%+v)", st.Dropped+st.Delivered, st)
	}
}

func TestReorderSwapsWireMessages(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(0, 0))
	n := New(clk, 3, LinkConfig{
		Latency:      time.Millisecond,
		ReorderRate:  0.5,
		ReorderDelay: 10 * time.Millisecond,
	})
	a, b := pair(t, n, "a", "b")
	const count = 30
	for i := 0; i < count; i++ {
		msg := &wire.Message{Command: wire.CmdPing, Payload: []byte{byte(i)}}
		if err := wire.WriteMessage(a, wire.RegTestMagic, msg); err != nil {
			t.Fatalf("WriteMessage(%d): %v", i, err)
		}
	}
	clk.Advance(time.Second)
	a.Close()
	var order []int
	seen := make(map[int]bool)
	for {
		msg, err := wire.ReadMessage(b, wire.RegTestMagic)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadMessage: %v", err)
		}
		order = append(order, int(msg.Payload[0]))
		seen[int(msg.Payload[0])] = true
	}
	if len(order) != count || len(seen) != count {
		t.Fatalf("got %d messages (%d distinct), want %d", len(order), len(seen), count)
	}
	inOrder := true
	for i := 1; i < count; i++ {
		if order[i] < order[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatalf("no reordering observed with seed 3: %v (stats %+v)", order, n.Stats())
	}
	if st := n.Stats(); st.Reordered == 0 {
		t.Fatalf("Reordered counter is zero: %+v", st)
	}
}

func TestCorruptionCannotPassUnnoticed(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(0, 0))
	n := New(clk, 5, LinkConfig{CorruptRate: 1})
	a, b := pair(t, n, "a", "b")
	orig := &wire.Message{Command: wire.CmdPing, Payload: []byte("nonce123")}
	if err := wire.WriteMessage(a, wire.RegTestMagic, orig); err != nil {
		t.Fatalf("WriteMessage: %v", err)
	}
	clk.Advance(time.Second)
	a.Close() // a corrupted length field must hit EOF, not block
	msg, err := wire.ReadMessage(b, wire.RegTestMagic)
	if err == nil && msg.Command == orig.Command && bytes.Equal(msg.Payload, orig.Payload) {
		t.Fatalf("corrupted frame read back unchanged (stats %+v)", n.Stats())
	}
	if st := n.Stats(); st.Corrupted != 1 {
		t.Fatalf("Corrupted = %d, want 1", st.Corrupted)
	}
}

func TestPartitionBlackholesThenHeals(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(0, 0))
	n := New(clk, 1, LinkConfig{})
	a, b := pair(t, n, "a", "b")
	n.SetPartition([]string{"a"}, []string{"b"})

	if _, err := a.Write([]byte("void")); err != nil {
		t.Fatalf("Write into partition should succeed silently: %v", err)
	}
	clk.Advance(time.Second)
	st := n.Stats()
	if st.Blackholed != 1 || st.Delivered != 0 {
		t.Fatalf("stats = %+v, want 1 blackholed / 0 delivered", st)
	}
	if _, err := n.Dial("a", "b"); err == nil {
		t.Fatal("Dial across partition should fail")
	}

	n.Heal()
	if _, err := a.Write([]byte("back")); err != nil {
		t.Fatalf("Write after heal: %v", err)
	}
	if got := readN(t, b, 4); string(got) != "back" {
		t.Fatalf("read %q after heal, want back", got)
	}
	// The blackholed frame is gone for good.
	if st := n.Stats(); st.Delivered != 1 {
		t.Fatalf("blackholed frame resurrected: %+v", st)
	}
}

func TestStallOneWayHoldsUntilRelease(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(0, 0))
	n := New(clk, 1, LinkConfig{})
	a, b := pair(t, n, "a", "b")
	n.StallOneWay("a", "b")

	a.Write([]byte("held"))
	clk.Advance(time.Second)
	st := n.Stats()
	if st.Stalled != 1 || st.Delivered != 0 {
		t.Fatalf("stats = %+v, want 1 stalled / 0 delivered", st)
	}
	// The reverse direction is unaffected.
	b.Write([]byte("flow"))
	if got := readN(t, a, 4); string(got) != "flow" {
		t.Fatalf("reverse read %q, want flow", got)
	}

	n.Unstall("a", "b")
	if got := readN(t, b, 4); string(got) != "held" {
		t.Fatalf("read %q after unstall, want held", got)
	}
}

func TestDialRefusedWithoutListener(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(0, 0))
	n := New(clk, 1, LinkConfig{})
	if _, err := n.Dial("a", "nobody"); err == nil {
		t.Fatal("Dial to missing listener should fail")
	}
	l, err := n.Listen("b")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	l.Close()
	if _, err := n.Dial("a", "b"); err == nil {
		t.Fatal("Dial to closed listener should fail")
	}
	if _, err := l.Accept(); err != net.ErrClosed {
		t.Fatalf("Accept on closed listener = %v, want net.ErrClosed", err)
	}
	// The host name is free again.
	if _, err := n.Listen("b"); err != nil {
		t.Fatalf("re-Listen after close: %v", err)
	}
}

func TestCloseLosesInFlightDeliversBuffered(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(0, 0))
	n := New(clk, 1, LinkConfig{Latency: 10 * time.Millisecond})
	a, b := pair(t, n, "a", "b")
	a.Write([]byte("kept"))
	clk.Advance(20 * time.Millisecond) // delivered to b's buffer
	a.Write([]byte("lost"))            // still in flight at close
	a.Close()
	if got := readN(t, b, 4); string(got) != "kept" {
		t.Fatalf("read %q, want kept", got)
	}
	clk.Advance(time.Second)
	if _, err := b.Read(make([]byte, 4)); err != io.EOF {
		t.Fatalf("read after peer close = %v, want EOF", err)
	}
	if _, err := a.Write([]byte("x")); err == nil {
		t.Fatal("Write on closed conn should fail")
	}
}

func TestScriptedHealViaAfterFunc(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(0, 0))
	n := New(clk, 1, LinkConfig{})
	a, b := pair(t, n, "a", "b")
	n.SetPartition([]string{"a"}, []string{"b"})
	clk.AfterFunc(5*time.Second, n.Heal)

	a.Write([]byte("gone"))
	clk.Advance(4 * time.Second)
	if st := n.Stats(); st.Blackholed != 1 {
		t.Fatalf("stats before heal: %+v", st)
	}
	clk.Advance(2 * time.Second) // heal fires at +5s
	a.Write([]byte("live"))
	if got := readN(t, b, 4); string(got) != "live" {
		t.Fatalf("read %q after scripted heal, want live", got)
	}
}

// replayRun pushes a fixed write schedule through a lossy link and
// returns the delivered byte stream and the fault counters.
func replayRun(seed int64) ([]byte, Stats) {
	clk := clock.NewSimulated(time.Unix(0, 0))
	n := New(clk, seed, LinkConfig{
		Latency:     5 * time.Millisecond,
		Jitter:      3 * time.Millisecond,
		DropRate:    0.2,
		DupRate:     0.15,
		CorruptRate: 0.1,
		ReorderRate: 0.3,
	})
	l, _ := n.Listen("b")
	a, _ := n.Dial("a", "b")
	b, _ := l.Accept()
	for i := 0; i < 200; i++ {
		frame := []byte(fmt.Sprintf("frame-%03d", i))
		a.Write(frame)
	}
	clk.Advance(time.Minute)
	a.Close()
	data, _ := io.ReadAll(b)
	return data, n.Stats()
}

func TestExactReplayFromSeed(t *testing.T) {
	d1, s1 := replayRun(42)
	d2, s2 := replayRun(42)
	if !bytes.Equal(d1, d2) {
		t.Fatal("same seed produced different delivered streams")
	}
	if s1 != s2 {
		t.Fatalf("same seed produced different stats: %+v vs %+v", s1, s2)
	}
	if s1.Dropped == 0 || s1.Duplicated == 0 || s1.Corrupted == 0 || s1.Reordered == 0 {
		t.Fatalf("lossy run exercised no faults: %+v", s1)
	}
	d3, s3 := replayRun(43)
	if bytes.Equal(d1, d3) && s1 == s3 {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestListenerCloseEndsUnacceptedConns: a connection dialed but never
// accepted ends when its listener closes, as a TCP backlog is reset; its
// dialer reads io.EOF instead of waiting forever.
func TestListenerCloseEndsUnacceptedConns(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(0, 0))
	n := New(clk, 1, LinkConfig{})
	l, err := n.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	c, err := n.Dial("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("Read on a connection its listener dropped: %v, want io.EOF", err)
	}
}
