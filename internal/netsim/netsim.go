// Package netsim is a deterministic fault-injection network simulator for
// the p2p layer. It implements net.Conn and net.Listener over in-process
// message queues, so a p2p.Node can run unmodified on top of it, and
// injects the failure modes a commitment layer must survive: per-link
// latency and jitter, bandwidth shaping, message drop, duplication,
// reordering, byte-level corruption, one-way stalls, and scripted
// partitions and heals.
//
// Every probabilistic decision is drawn from a PRNG derived from the
// network seed, the connection id and the direction, and delivery timing
// runs on a virtual clock (clock.Simulated), so a failing run replays
// from its seed: the same seed and the same write sequence produce the
// same fault schedule, byte for byte (TestExactReplay).
//
// The simulator is message-oriented: each Write is one frame, and faults
// apply to whole frames. wire.WriteMessage emits one frame per p2p
// message, so "drop" loses a whole protocol message while keeping the
// stream parseable, "reorder" swaps protocol messages, and "corrupt"
// flips a byte inside one message (caught by the wire checksum, killing
// the connection — which is the point: the peer must recover by
// redialing).
package netsim

import (
	"bytes"
	"container/heap"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"typecoin/internal/clock"
)

// LinkConfig describes the behaviour of one direction of a link.
type LinkConfig struct {
	// Latency is the base one-way propagation delay.
	Latency time.Duration
	// Jitter adds a uniformly random extra delay in [0, Jitter).
	Jitter time.Duration
	// BandwidthBps serializes frames at this many bytes per virtual
	// second; 0 means infinite bandwidth.
	BandwidthBps int64
	// DropRate is the probability a frame is silently discarded.
	DropRate float64
	// DupRate is the probability a frame is delivered twice.
	DupRate float64
	// CorruptRate is the probability one byte of a frame is flipped.
	CorruptRate float64
	// ReorderRate is the probability a frame is delayed by ReorderDelay,
	// letting frames sent after it overtake it.
	ReorderRate float64
	// ReorderDelay is the extra delay for reordered frames; 0 selects
	// 4*Latency + 1ms.
	ReorderDelay time.Duration
}

// Stats counts fault decisions across the network. Frames eaten by a
// partition count only as Blackholed; Dropped counts only PRNG drops.
type Stats struct {
	Sent       int64 // frames offered by writers
	Delivered  int64 // frames moved into a reader's buffer
	Dropped    int64
	Duplicated int64
	Corrupted  int64
	Reordered  int64
	Blackholed int64 // eaten by a partition
	Stalled    int64 // held by a one-way stall
}

type pairKey struct{ from, to string }

// Network is a simulated network of named hosts sharing one virtual
// clock and one seed.
type Network struct {
	clk  *clock.Simulated
	seed int64
	def  LinkConfig

	mu sync.Mutex
	// quiet is broadcast, and gen counted, whenever a reader parks or an
	// endpoint closes: the two events that can make the network idle
	// (see Barrier).
	quiet     *sync.Cond
	gen       uint64
	listeners map[string]*Listener
	links     map[pairKey]LinkConfig
	groups    map[string]int // partition group per host; absent = unrestricted
	stalls    map[pairKey]bool
	halves    []*halfConn
	nextConn  int64
	nextSeq   int64
	stats     Stats
}

// New creates a network over the virtual clock clk. def is the link
// configuration used for every direction without a SetLink override; the
// zero LinkConfig is a perfect, instantaneous network. The network
// subscribes to the clock, delivering in-flight frames as virtual time
// advances.
func New(clk *clock.Simulated, seed int64, def LinkConfig) *Network {
	n := &Network{
		clk:       clk,
		seed:      seed,
		def:       def,
		listeners: make(map[string]*Listener),
		links:     make(map[pairKey]LinkConfig),
		stalls:    make(map[pairKey]bool),
	}
	n.quiet = sync.NewCond(&n.mu)
	clk.Subscribe(n.onTick)
	return n
}

// Clock returns the network's virtual clock.
func (n *Network) Clock() *clock.Simulated { return n.clk }

// SetLink overrides the configuration for frames sent from -> to.
func (n *Network) SetLink(from, to string, cfg LinkConfig) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[pairKey{from, to}] = cfg
}

// SetLinkBoth overrides both directions between a and b.
func (n *Network) SetLinkBoth(a, b string, cfg LinkConfig) {
	n.SetLink(a, b, cfg)
	n.SetLink(b, a, cfg)
}

// SetPartition splits the network: hosts in different groups cannot
// exchange frames (in-flight and future frames are blackholed) and
// cannot dial each other. Hosts in no group are unrestricted. A new call
// replaces the previous partition.
func (n *Network) SetPartition(groups ...[]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.groups = make(map[string]int)
	for i, g := range groups {
		for _, host := range g {
			n.groups[host] = i
		}
	}
}

// StallOneWay holds every frame sent from -> to until Unstall or Heal;
// held frames are then delivered (late), modeling a half-open link.
func (n *Network) StallOneWay(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stalls[pairKey{from, to}] = true
}

// Unstall releases a one-way stall, delivering the held frames.
func (n *Network) Unstall(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.releaseLocked(pairKey{from, to})
}

// Heal removes every partition and stall, releasing held frames.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.groups = nil
	for key := range n.stalls {
		n.releaseLocked(key)
	}
}

// releaseLocked ends the stall on key and re-queues frames held on the
// receiving halves of that direction.
func (n *Network) releaseLocked(key pairKey) {
	delete(n.stalls, key)
	now := n.clk.Now()
	for _, h := range n.halves {
		if h.local != key.to || h.remote != key.from || len(h.held) == 0 {
			continue
		}
		for _, fr := range h.held {
			if fr.arrival.Before(now) {
				fr.arrival = now
			}
			heap.Push(&h.pending, fr)
		}
		h.held = nil
		h.flushLocked(now)
	}
}

// idleLocked reports whether every open endpoint's reader is parked in Read
// with nothing buffered and its peer still open, i.e. no delivered frame
// or end of stream is still waiting for, or being handled by, its
// reader. A reader counts as busy from the moment its endpoint opens
// until it first parks, and from the moment it sees the stream end
// until its endpoint closes. Frames in flight do not count: they wait on
// the virtual clock, not on a goroutine.
func (n *Network) idleLocked() bool {
	for _, h := range n.halves {
		if !h.closed && (h.readBuf.Len() > 0 || !h.parked || h.remoteClosed) {
			return false
		}
	}
	return true
}

// awaitIdle blocks until the network is idle and returns its generation
// at that moment.
func (n *Network) awaitIdle() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	for !n.idleLocked() {
		n.quiet.Wait()
	}
	return n.gen
}

// Stats returns a snapshot of the fault counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

func (n *Network) blockedLocked(a, b string) bool {
	ga, aok := n.groups[a]
	gb, bok := n.groups[b]
	return aok && bok && ga != gb
}

func (n *Network) linkLocked(from, to string) LinkConfig {
	if cfg, ok := n.links[pairKey{from, to}]; ok {
		return cfg
	}
	return n.def
}

// onTick delivers every frame whose arrival time has passed.
func (n *Network) onTick(now time.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, h := range n.halves {
		h.flushLocked(now)
	}
}

// rngFor derives a deterministic per-direction PRNG so the fault
// schedule of a connection depends only on (seed, connID, direction) and
// the sequence of frames written — not on cross-connection scheduling.
func (n *Network) rngFor(connID int64, dir byte, from, to string) *rand.Rand {
	var buf bytes.Buffer
	_ = binary.Write(&buf, binary.LittleEndian, n.seed)
	_ = binary.Write(&buf, binary.LittleEndian, connID)
	buf.WriteByte(dir)
	buf.WriteString(from)
	buf.WriteByte(0)
	buf.WriteString(to)
	sum := sha256.Sum256(buf.Bytes())
	return rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(sum[:8]))))
}

// Listen starts accepting connections for the named host. There is one
// listener per host name.
func (n *Network) Listen(host string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[host]; ok {
		return nil, fmt.Errorf("netsim: host %q already listening", host)
	}
	l := &Listener{
		net:  n,
		host: host,
		ch:   make(chan net.Conn, 64),
		quit: make(chan struct{}),
	}
	n.listeners[host] = l
	return l, nil
}

// Dial connects host from to the listener at host to, applying the
// current link configuration in each direction. Dialing fails when no
// listener exists or a partition separates the hosts.
func (n *Network) Dial(from, to string) (net.Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.listeners[to]
	if !ok || l.closed {
		return nil, &net.OpError{Op: "dial", Net: "sim", Addr: Addr(to),
			Err: fmt.Errorf("connection refused")}
	}
	if n.blockedLocked(from, to) {
		return nil, &net.OpError{Op: "dial", Net: "sim", Addr: Addr(to),
			Err: fmt.Errorf("host unreachable (partitioned)")}
	}
	connID := n.nextConn
	n.nextConn++
	a := &halfConn{net: n, local: from, remote: to,
		rng: n.rngFor(connID, 0, from, to)}
	b := &halfConn{net: n, local: to, remote: from,
		rng: n.rngFor(connID, 1, to, from)}
	a.peer, b.peer = b, a
	a.readCond = sync.NewCond(&n.mu)
	b.readCond = sync.NewCond(&n.mu)
	select {
	case l.ch <- &Conn{h: b}:
	default:
		return nil, &net.OpError{Op: "dial", Net: "sim", Addr: Addr(to),
			Err: fmt.Errorf("accept backlog full")}
	}
	n.halves = append(n.halves, a, b)
	return &Conn{h: a}, nil
}

// Addr is a host name on the simulated network.
type Addr string

// Network returns the simulated network name.
func (Addr) Network() string { return "sim" }

// String returns the host name.
func (a Addr) String() string { return string(a) }

// Listener accepts simulated connections for one host.
type Listener struct {
	net    *Network
	host   string
	ch     chan net.Conn
	quit   chan struct{}
	closed bool
}

// Accept waits for the next inbound connection.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.quit:
		return nil, net.ErrClosed
	}
}

// Close stops the listener; pending Accept calls return net.ErrClosed,
// and connections dialed but never accepted are closed.
func (l *Listener) Close() error {
	l.net.mu.Lock()
	defer l.net.mu.Unlock()
	if !l.closed {
		l.closed = true
		close(l.quit)
		delete(l.net.listeners, l.host)
		for len(l.ch) > 0 {
			(<-l.ch).(*Conn).h.closeLocked()
		}
	}
	return nil
}

// Addr returns the listening host's address.
func (l *Listener) Addr() net.Addr { return Addr(l.host) }

// frame is one Write's worth of bytes in flight.
type frame struct {
	data    []byte
	arrival time.Time
	seq     int64
}

// frameHeap orders frames by (arrival, seq).
type frameHeap []frame

func (h frameHeap) Len() int { return len(h) }
func (h frameHeap) Less(i, j int) bool {
	if !h[i].arrival.Equal(h[j].arrival) {
		return h[i].arrival.Before(h[j].arrival)
	}
	return h[i].seq < h[j].seq
}
func (h frameHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *frameHeap) Push(x interface{}) { *h = append(*h, x.(frame)) }
func (h *frameHeap) Pop() interface{} {
	old := *h
	n := len(old)
	fr := old[n-1]
	*h = old[:n-1]
	return fr
}

// halfConn is one endpoint of a connection. Its rng governs the frames
// it SENDS (the link config is read live from the network's link
// table); its pending/held/readBuf hold the frames it RECEIVES. All
// mutable state is guarded by the network mutex.
type halfConn struct {
	net           *Network
	local, remote string
	rng           *rand.Rand
	lastDepart    time.Time

	peer         *halfConn
	pending      frameHeap
	held         []frame
	readBuf      bytes.Buffer
	readCond     *sync.Cond
	closed       bool // this end closed
	remoteClosed bool // peer end closed
	// parked is set while a reader waits in Read on an empty buffer:
	// whatever the last delivery caused, that reader has finished it.
	parked bool
}

// flushLocked moves due frames into the read buffer and wakes readers.
func (h *halfConn) flushLocked(now time.Time) {
	moved := false
	for len(h.pending) > 0 && !h.pending[0].arrival.After(now) {
		fr := heap.Pop(&h.pending).(frame)
		h.readBuf.Write(fr.data)
		h.net.stats.Delivered++
		moved = true
	}
	if moved {
		h.readCond.Broadcast()
	}
}

// Conn is a simulated net.Conn.
type Conn struct{ h *halfConn }

var _ net.Conn = (*Conn)(nil)

// Read returns buffered delivered bytes, blocking until a frame arrives
// (virtual time advances past its arrival), the remote closes (io.EOF),
// or this end closes.
func (c *Conn) Read(b []byte) (int, error) {
	h := c.h
	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	for {
		if h.readBuf.Len() > 0 {
			return h.readBuf.Read(b)
		}
		if h.closed {
			return 0, io.ErrClosedPipe
		}
		if h.remoteClosed {
			return 0, io.EOF
		}
		h.parked = true
		h.net.gen++
		h.net.quiet.Broadcast()
		h.readCond.Wait()
		h.parked = false
	}
}

// Write sends b as one frame through the fault pipeline. The PRNG draw
// sequence is fixed per frame regardless of which faults apply, so a
// fault schedule replays exactly from the seed.
func (c *Conn) Write(b []byte) (int, error) {
	h := c.h
	n := h.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if h.closed || h.remoteClosed {
		return 0, io.ErrClosedPipe
	}
	if len(b) == 0 {
		return 0, nil
	}
	n.stats.Sent++
	dropDraw := h.rng.Float64()
	dupDraw := h.rng.Float64()
	corruptDraw := h.rng.Float64()
	corruptPos := h.rng.Intn(1 << 20)
	jitterDraw := h.rng.Float64()
	reorderDraw := h.rng.Float64()

	if n.blockedLocked(h.local, h.remote) {
		n.stats.Blackholed++
		return len(b), nil
	}
	// Consult the live link table so SetLink mid-connection takes effect
	// on the next frame.
	cfg := n.linkLocked(h.local, h.remote)
	if dropDraw < cfg.DropRate {
		n.stats.Dropped++
		return len(b), nil
	}
	data := append([]byte(nil), b...)
	if corruptDraw < cfg.CorruptRate {
		data[corruptPos%len(data)] ^= 0xff
		n.stats.Corrupted++
	}

	now := n.clk.Now()
	depart := now
	if depart.Before(h.lastDepart) {
		depart = h.lastDepart
	}
	if cfg.BandwidthBps > 0 {
		depart = depart.Add(time.Duration(float64(len(data)) /
			float64(cfg.BandwidthBps) * float64(time.Second)))
	}
	h.lastDepart = depart
	delay := cfg.Latency
	if cfg.Jitter > 0 {
		delay += time.Duration(jitterDraw * float64(cfg.Jitter))
	}
	if reorderDraw < cfg.ReorderRate {
		rd := cfg.ReorderDelay
		if rd == 0 {
			rd = 4*cfg.Latency + time.Millisecond
		}
		delay += rd
		n.stats.Reordered++
	}
	h.sendFrameLocked(frame{data: data, arrival: depart.Add(delay)})
	if dupDraw < cfg.DupRate {
		dup := frame{
			data:    append([]byte(nil), data...),
			arrival: depart.Add(delay + cfg.Latency/2 + time.Millisecond),
		}
		h.sendFrameLocked(dup)
		n.stats.Duplicated++
	}
	h.peer.flushLocked(now)
	return len(b), nil
}

// sendFrameLocked queues a frame on the peer's receive side, honouring
// one-way stalls.
func (h *halfConn) sendFrameLocked(fr frame) {
	fr.seq = h.net.nextSeq
	h.net.nextSeq++
	if h.net.stalls[pairKey{h.local, h.remote}] {
		h.peer.held = append(h.peer.held, fr)
		h.net.stats.Stalled++
		return
	}
	heap.Push(&h.peer.pending, fr)
}

// Close closes this end. The remote may still read frames already
// delivered to its buffer, then sees io.EOF; in-flight frames are lost.
func (c *Conn) Close() error {
	c.h.net.mu.Lock()
	defer c.h.net.mu.Unlock()
	c.h.closeLocked()
	return nil
}

func (h *halfConn) closeLocked() {
	if h.closed {
		return
	}
	h.closed = true
	h.peer.remoteClosed = true
	// In-flight and stalled frames in both directions are lost; only
	// bytes already delivered to the peer's buffer remain readable.
	h.pending, h.peer.pending = nil, nil
	h.held, h.peer.held = nil, nil
	h.readCond.Broadcast()
	h.peer.readCond.Broadcast()
	h.net.gen++
	h.net.quiet.Broadcast()
}

// LocalAddr returns the local host name.
func (c *Conn) LocalAddr() net.Addr { return Addr(c.h.local) }

// RemoteAddr returns the remote host name.
func (c *Conn) RemoteAddr() net.Addr { return Addr(c.h.remote) }

// SetDeadline is a no-op: simulated time is driven by the virtual clock.
func (c *Conn) SetDeadline(time.Time) error { return nil }

// SetReadDeadline is a no-op.
func (c *Conn) SetReadDeadline(time.Time) error { return nil }

// SetWriteDeadline is a no-op.
func (c *Conn) SetWriteDeadline(time.Time) error { return nil }

// Transport binds a Network to one host, yielding the Listen/Dial pair
// the p2p layer plugs in under a Node.
type Transport struct {
	n    *Network
	host string
}

// Transport returns the transport for host.
func (n *Network) Transport(host string) *Transport {
	return &Transport{n: n, host: host}
}

// Listen listens as the transport's host; addr other than "" or the host
// name is rejected so misconfigurations surface early.
func (t *Transport) Listen(addr string) (net.Listener, error) {
	if addr == "" {
		addr = t.host
	}
	if addr != t.host {
		return nil, fmt.Errorf("netsim: transport for %q cannot listen on %q", t.host, addr)
	}
	return t.n.Listen(addr)
}

// Dial dials from the transport's host.
func (t *Transport) Dial(addr string) (net.Conn, error) {
	return t.n.Dial(t.host, addr)
}
