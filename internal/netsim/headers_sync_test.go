package netsim

// Headers-first catch-up scenario: a ten-node network where one node is
// a thousand blocks behind. The laggard pulls the header skeleton from
// its sync peer and bodies in parallel windows from every connected
// donor; the same cold start forced through a single peer is the
// baseline. The comparison is in virtual time (clock ticks to tip) and
// bytes on the wire (the per-peer receive counters): parallel download
// must reach the tip in fewer ticks, spread body traffic across at
// least three donors, and not amplify total download volume.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"typecoin/internal/chain"
	"typecoin/internal/clock"
	"typecoin/internal/miner"
	"typecoin/internal/testutil"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

// catchUpDepth is how far behind the laggard starts.
const catchUpDepth = 1000

// mineDonorChain mines the shared donor history on a scratch chain with
// its own virtual clock, so the blocks depend only on the seed — both
// the parallel and the single-peer run replay the identical chain.
func mineDonorChain(t *testing.T, seed int64, params *chain.Params, depth int) []*wire.MsgBlock {
	t.Helper()
	clk := clock.NewSimulated(params.GenesisBlock.Header.Timestamp.Add(time.Minute))
	c := chain.New(params, clk)
	w := wallet.New(c, testutil.NewEntropy(fmt.Sprintf("netsim/headsync/%d", seed)))
	payout, err := w.NewKey()
	if err != nil {
		t.Fatalf("donor payout key: %v", err)
	}
	m := miner.New(c, nil, clk)
	blocks, err := m.MineN(depth, payout)
	if err != nil {
		t.Fatalf("donor pre-mine: %v", err)
	}
	return blocks
}

// runHeaderCatchUp feeds the donor chain into the first donorCount
// nodes, dials the laggard (node 9) into each, and drives the virtual
// clock until the laggard's connected tip reaches the donor tip.
// It returns the tick count and the laggard's per-peer receive-byte
// snapshot.
func runHeaderCatchUp(t *testing.T, seed int64, blocks []*wire.MsgBlock, donorCount int) (int, map[string]uint64) {
	t.Helper()
	cfg := LinkConfig{Latency: 25 * time.Millisecond, Jitter: 2 * time.Millisecond}
	h := NewHarness(t, seed, 10, cfg)
	const laggard = 9
	for i := 0; i < donorCount; i++ {
		for _, blk := range blocks {
			if _, err := h.Nodes[i].Chain().ProcessBlock(blk); err != nil {
				t.Fatalf("feed donor %d: %v", i, err)
			}
		}
	}
	for i := 0; i < donorCount; i++ {
		h.Connect(laggard, i)
	}

	tip := blocks[len(blocks)-1].BlockHash()
	lchain := h.Nodes[laggard].Chain()
	ticks := h.WaitFor("laggard at donor tip", func() bool { return lchain.BestHash() == tip })
	if got := lchain.HeaderHeight(); got != catchUpDepth {
		t.Fatalf("laggard header height %d, want %d", got, catchUpDepth)
	}
	if got := h.Metric(laggard, "chain_header_height"); int(got) != catchUpDepth {
		t.Fatalf("chain_header_height reads %v, want %d", got, catchUpDepth)
	}
	return ticks, h.Full[laggard].Reg.VecValues("p2p_recv_bytes_total")
}

// donorBytes extracts the receive-byte totals per donor host from a
// label-rendered snapshot (keys look like `{peer="n3"}`).
func donorBytes(snapshot map[string]uint64, donorCount int) map[string]uint64 {
	out := make(map[string]uint64)
	for i := 0; i < donorCount; i++ {
		host := fmt.Sprintf("%q", fmt.Sprintf("n%d", i))
		for key, v := range snapshot {
			if strings.Contains(key, host) {
				out[host] += v
			}
		}
	}
	return out
}

func sumBytes(m map[string]uint64) uint64 {
	var n uint64
	for _, v := range m {
		n += v
	}
	return n
}

func runHeaderSyncScenario(t *testing.T, seed int64) {
	params := chain.RegTestParams()
	blocks := mineDonorChain(t, seed, params, catchUpDepth)

	const donors = 6
	multiTicks, multiSnap := runHeaderCatchUp(t, seed, blocks, donors)
	singleTicks, singleSnap := runHeaderCatchUp(t, seed, blocks, 1)

	multi := donorBytes(multiSnap, donors)
	single := donorBytes(singleSnap, 1)
	multiTotal, singleTotal := sumBytes(multi), sumBytes(single)
	t.Logf("seed=%d multi: %d ticks, %d bytes across %v; single: %d ticks, %d bytes",
		seed, multiTicks, multiTotal, multi, singleTicks, singleTotal)

	// Virtual time to tip must improve: parallel windows keep several
	// round trips in flight where the single peer serializes them.
	if multiTicks >= singleTicks {
		t.Fatalf("parallel sync took %d ticks, single-peer baseline %d — no improvement",
			multiTicks, singleTicks)
	}

	// Body traffic must actually spread: at least three distinct donors
	// each delivered a meaningful share of the download.
	const minShare = 2048 // a handful of bodies, well above handshake noise
	served := 0
	for _, v := range multi {
		if v >= minShare {
			served++
		}
	}
	if served < 3 {
		t.Fatalf("bodies came from %d donors with >= %d bytes, want >= 3 (per-peer bytes: %v)",
			served, minShare, multi)
	}

	// Bytes on the wire must improve per peer without amplifying in
	// aggregate: no single donor carries what the lone peer carried, and
	// the parallel run downloads at most modest overhead (extra
	// handshakes and header probes) beyond the baseline.
	for host, v := range multi {
		if v >= singleTotal {
			t.Fatalf("donor %s received %d bytes, not below single-peer total %d", host, v, singleTotal)
		}
	}
	if singleTotal == 0 {
		t.Fatalf("single-peer baseline recorded no received bytes")
	}
	if multiTotal > singleTotal+singleTotal/4 {
		t.Fatalf("parallel run pulled %d bytes, more than 1.25x the single-peer %d — amplification",
			multiTotal, singleTotal)
	}
}

// TestHeaderSyncCatchUp runs the ten-node catch-up comparison across
// the replayable seed list (override with SIM_SEED).
func TestHeaderSyncCatchUp(t *testing.T) {
	seeds := byzantineSeeds(t)
	if len(seeds) > 2 {
		// The full five-seed sweep is for the cheap byzantine scenarios;
		// two thousand-block cold syncs per seed is the expensive path.
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runHeaderSyncScenario(t, seed)
		})
	}
}

// TestHeaderSyncConvergedInvariants re-runs the parallel catch-up on the
// first seed with every donor populated and checks the five harness
// invariants at the converged tip.
func TestHeaderSyncConvergedInvariants(t *testing.T) {
	seed := byzantineSeeds(t)[0]
	params := chain.RegTestParams()
	blocks := mineDonorChain(t, seed, params, catchUpDepth)

	cfg := LinkConfig{Latency: 25 * time.Millisecond, Jitter: 2 * time.Millisecond}
	h := NewHarness(t, seed, 10, cfg)
	const laggard = 9
	for i := 0; i < laggard; i++ {
		for _, blk := range blocks {
			if _, err := h.Nodes[i].Chain().ProcessBlock(blk); err != nil {
				t.Fatalf("feed donor %d: %v", i, err)
			}
		}
	}
	for i := 0; i < 6; i++ {
		h.Connect(laggard, i)
	}
	tip := blocks[len(blocks)-1].BlockHash()
	// Wait for the download windows to drain too: stall rotation can
	// leave duplicate requests in flight at the instant the tip
	// connects, and they only release when the redundant bodies arrive.
	h.WaitFor("laggard at donor tip with windows drained", func() bool {
		if h.Nodes[laggard].Chain().BestHash() != tip {
			return false
		}
		status := h.Nodes[laggard].SyncStatus()
		return status.InflightBodies == 0 && status.ParkedBodies == 0
	})
	if got := h.AssertConverged(); got != tip {
		t.Fatalf("converged on %s, want donor tip %s", got, tip)
	}
	status := h.Nodes[laggard].SyncStatus()
	if status.HeaderHeight != status.Height || status.Height != catchUpDepth {
		t.Fatalf("laggard sync status %+v, want header and connected height %d", status, catchUpDepth)
	}
	if status.InflightBodies != 0 || status.ParkedBodies != 0 {
		t.Fatalf("laggard still has %d in-flight and %d parked bodies at tip",
			status.InflightBodies, status.ParkedBodies)
	}
}

// TestMissedAnnouncementsFetchHeadersFirst: a node that missed two block
// announcements hears the third. It asks the announcer for headers
// before the body, so the body arrives after its ancestry's headers and
// parks; no body is dropped as an orphan and the node reaches the tip.
// The link neither drops nor reorders; the two announcements are lost
// to a partition that leaves the connection up.
func TestMissedAnnouncementsFetchHeadersFirst(t *testing.T) {
	h := NewHarness(t, 1, 2, LinkConfig{Latency: 2 * time.Millisecond})
	h.Connect(1, 0)
	h.WaitFor("handshake", func() bool { return h.Nodes[0].PeerCount() == 1 && h.Nodes[1].PeerCount() == 1 })

	h.Partition([]int{0}, []int{1})
	h.MineN(0, 2)
	if got := h.Nodes[1].Chain().HeaderHeight(); got != 0 {
		t.Fatalf("node 1 heard of height %d through the partition", got)
	}
	h.Net.Heal()
	tip := h.Mine(0).BlockHash()
	h.WaitFor("node 1 at the tip", func() bool { return h.Nodes[1].Chain().BestHash() == tip })
	if got := h.Metric(1, "chain_orphan_blocks_total"); got != 0 {
		t.Fatalf("node 1 dropped %v parentless bodies on the way to the tip, want 0", got)
	}
}
