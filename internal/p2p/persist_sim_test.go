package p2p_test

import (
	"testing"
	"time"

	"typecoin/internal/chain"
	"typecoin/internal/clock"
	"typecoin/internal/mempool"
	"typecoin/internal/miner"
	"typecoin/internal/netsim"
	"typecoin/internal/p2p"
	"typecoin/internal/store"
	"typecoin/internal/telemetry"
	"typecoin/internal/testutil"
	"typecoin/internal/wallet"
)

// simWaitTicks bounds the waits of the scenarios here that drive a
// netsim.Barrier without a harness: 5 000 ticks, 100 s of virtual time.
const simWaitTicks = 5000

// TestSimRestartResyncFromPersistedTip: a persistent node that synced
// part of the chain, shut down, and restarted from the same data
// directory must come back at its recorded tip — not genesis — and
// fetch only the blocks mined while it was offline.
func TestSimRestartResyncFromPersistedTip(t *testing.T) {
	params := chain.RegTestParams()
	start := params.GenesisBlock.Header.Timestamp.Add(time.Minute)
	clk := clock.NewSimulated(start)
	net := netsim.New(clk, 5, netsim.LinkConfig{Latency: time.Millisecond})
	bar := &netsim.Barrier{Net: net, Live: clock.NewSimulated(start)}

	// Node A: the always-up in-memory peer that mines.
	chA := chain.New(params, clk)
	poolA := mempool.New(chA, -1)
	nodeA := p2p.NewNode(chA, poolA, nil)
	nodeA.SetTransport(net.Transport("a"))
	nodeA.SetLivenessClock(bar.Live)
	if _, err := nodeA.Listen(""); err != nil {
		t.Fatalf("node A listen: %v", err)
	}
	defer nodeA.Stop()
	bar.Nodes = []*p2p.Node{nodeA}
	wA := wallet.New(chA, testutil.NewEntropy("p2p/restart"))
	payout, err := wA.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	mA := miner.New(chA, poolA, clk)

	blocks := 0
	mine := func(n int) {
		t.Helper()
		for k := 0; k < n; k++ {
			blocks++
			target := start.Add(time.Duration(blocks) * time.Minute)
			if clk.Now().Before(target) {
				clk.Set(target)
			} else {
				clk.Advance(time.Minute)
			}
			if _, _, err := mA.Mine(payout); err != nil {
				t.Fatalf("mine: %v", err)
			}
			bar.Settle(5)
		}
	}

	// Node B: persistent; openB builds a full fresh stack over the same
	// data directory, as a restart would.
	dir := t.TempDir()
	openB := func() (*chain.Chain, *p2p.Node, *store.File) {
		t.Helper()
		st, err := store.OpenFile(dir)
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		chB, err := chain.Open(chain.Config{Params: params, Clock: clk, Store: st})
		if err != nil {
			t.Fatalf("open chain: %v", err)
		}
		poolB := mempool.New(chB, -1)
		nodeB := p2p.NewNode(chB, poolB, nil)
		nodeB.SetTransport(net.Transport("b"))
		nodeB.SetLivenessClock(bar.Live)
		if _, err := nodeB.Listen(""); err != nil {
			t.Fatalf("node B listen: %v", err)
		}
		if err := nodeB.Dial("a"); err != nil {
			t.Fatalf("dial: %v", err)
		}
		bar.Nodes = []*p2p.Node{nodeA, nodeB}
		return chB, nodeB, st
	}

	waitHeight := func(c *chain.Chain, want int) {
		t.Helper()
		if ticks, ok := bar.WaitFor(simWaitTicks, func() bool {
			return c.BestHeight() == want && c.BestHash() == chA.BestHash()
		}); !ok {
			t.Fatalf("height %d (want %d) after %d ticks", c.BestHeight(), want, ticks)
		}
	}

	// Phase 1: B syncs the first 20 blocks, then shuts down cleanly.
	chB, nodeB, stB := openB()
	mine(20)
	waitHeight(chB, 20)
	tipAt20 := chB.BestHash()
	nodeB.Stop()
	if err := stB.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := stB.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Phase 2: A mines on while B is down.
	mine(10)

	// Phase 3: B restarts from the same directory. Before any network
	// traffic settles it must already be at its persisted tip — that
	// restored height is what makes the subsequent sync a delta fetch.
	chB2, nodeB2, stB2 := openB()
	defer func() { nodeB2.Stop(); stB2.Close() }()
	if got := chB2.BestHeight(); got != 20 {
		t.Fatalf("restarted at height %d, want persisted 20", got)
	}
	if chB2.BestHash() != tipAt20 {
		t.Fatalf("restarted tip %s, want %s", chB2.BestHash(), tipAt20)
	}
	// The persisted header index must restore alongside the blocks: the
	// best-header tip is never below the connected tip.
	if got := chB2.HeaderHeight(); got < chB2.BestHeight() {
		t.Fatalf("restarted header height %d below connected height %d", got, chB2.BestHeight())
	}

	// The periodic resync fetches blocks 21..30 from A.
	waitHeight(chB2, 30)
	if err := chB2.AuditFromGenesis(); err != nil {
		t.Fatalf("post-resync audit: %v", err)
	}
}

// TestSimRestartResyncAfterCrashMidSync: a persistent node killed in the
// middle of a headers-first catch-up — header skeleton fully persisted,
// bodies only partially connected, the in-flight journal write torn —
// must reopen with its header tip at or above its connected tip, resume
// the body download from where it stopped, and not refetch any body it
// had already connected.
func TestSimRestartResyncAfterCrashMidSync(t *testing.T) {
	params := chain.RegTestParams()
	start := params.GenesisBlock.Header.Timestamp.Add(time.Minute)
	clk := clock.NewSimulated(start)
	net := netsim.New(clk, 5, netsim.LinkConfig{Latency: time.Millisecond})
	bar := &netsim.Barrier{Net: net, Live: clock.NewSimulated(start)}

	// Node A: in-memory peer with the full chain mined up front, so B's
	// whole run is one cold headers-first sync.
	chA := chain.New(params, clk)
	poolA := mempool.New(chA, -1)
	nodeA := p2p.NewNode(chA, poolA, nil)
	nodeA.SetTransport(net.Transport("a"))
	nodeA.SetLivenessClock(bar.Live)
	if _, err := nodeA.Listen(""); err != nil {
		t.Fatalf("node A listen: %v", err)
	}
	defer nodeA.Stop()
	wA := wallet.New(chA, testutil.NewEntropy("p2p/crash-mid-sync"))
	payout, err := wA.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	mA := miner.New(chA, poolA, clk)
	const tipHeight = 60
	for k := 0; k < tipHeight; k++ {
		clk.Set(start.Add(time.Duration(k+1) * time.Minute))
		if _, _, err := mA.Mine(payout); err != nil {
			t.Fatalf("mine: %v", err)
		}
	}

	dir := t.TempDir()
	openB := func() (*chain.Chain, *p2p.Node, *store.File, *telemetry.Registry) {
		t.Helper()
		st, err := store.OpenFile(dir)
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		chB, err := chain.Open(chain.Config{Params: params, Clock: clk, Store: st})
		if err != nil {
			t.Fatalf("open chain: %v", err)
		}
		reg := telemetry.NewRegistry()
		chB.SetTelemetry(reg, nil)
		poolB := mempool.New(chB, -1)
		nodeB := p2p.NewNode(chB, poolB, nil)
		nodeB.SetTransport(net.Transport("b"))
		nodeB.SetLivenessClock(bar.Live)
		if _, err := nodeB.Listen(""); err != nil {
			t.Fatalf("node B listen: %v", err)
		}
		if err := nodeB.Dial("a"); err != nil {
			t.Fatalf("dial: %v", err)
		}
		bar.Nodes = []*p2p.Node{nodeA, nodeB}
		return chB, nodeB, st, reg
	}

	// Phase 1: B syncs until the skeleton is complete but the body
	// download is still in flight, then the next journal write tears —
	// the on-disk state a SIGKILL mid-write leaves behind.
	chB, nodeB, stB, _ := openB()
	if _, ok := bar.WaitFor(simWaitTicks, func() bool {
		return chB.HeaderHeight() == tipHeight && chB.BestHeight() > 0 && chB.BestHeight() < tipHeight
	}); !ok {
		t.Fatalf("never reached mid-sync: header %d connected %d",
			chB.HeaderHeight(), chB.BestHeight())
	}
	connectedAtCrash := chB.BestHeight()
	stB.CrashNextApply(10)
	bar.Settle(10)
	nodeB.Stop()
	_ = stB.Close() // poisoned: the torn frame already hit the disk

	// Phase 2: reopen. The header skeleton was persisted before the
	// crash, the torn body connect must be discarded, and the header tip
	// must sit at or above whatever body progress survived.
	chB2, nodeB2, stB2, regB2 := openB()
	defer func() { nodeB2.Stop(); stB2.Close() }()
	if got := chB2.BestHeight(); got <= 0 || got > connectedAtCrash {
		t.Fatalf("reopened at height %d, want in (0, %d]", got, connectedAtCrash)
	}
	if got := chB2.HeaderHeight(); got < chB2.BestHeight() {
		t.Fatalf("reopened header height %d below connected height %d", got, chB2.BestHeight())
	}
	if got := chB2.HeaderHeight(); got != tipHeight {
		t.Fatalf("reopened header height %d, want persisted skeleton %d", got, tipHeight)
	}

	// Phase 3: the resumed download fetches only the missing suffix —
	// every already-connected body stays local (no duplicate deliveries).
	if _, ok := bar.WaitFor(simWaitTicks, func() bool { return chB2.BestHash() == chA.BestHash() }); !ok {
		t.Fatalf("resync stuck at height %d (want %d)", chB2.BestHeight(), tipHeight)
	}
	if dup, _ := regB2.Value("chain_duplicate_blocks_total"); dup != 0 {
		t.Fatalf("resync refetched %v already-connected bodies", dup)
	}
	if err := chB2.AuditFromGenesis(); err != nil {
		t.Fatalf("post-crash audit: %v", err)
	}
}
