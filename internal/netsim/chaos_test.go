package netsim

// Chaos scenario: disk faults combined with network partitions. One
// node's store starts returning sticky write EIOs mid-partition; the
// node must flip to degraded-readonly (observable through the same
// store_health gauge an operator scrapes), keep serving chain, header
// and index queries, refuse new mempool obligations, and ban nobody —
// a dying local disk is not a peer's fault in either direction. When
// the disk recovers and the partition heals, the node must rejoin and
// the whole network must reconverge with every system invariant intact.
//
// Scenarios run across a fixed seed list; replay one failing seed with
// FAULT_SEED=<n> (the seed drives both the simulated network and the
// fault engine RNG).

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"typecoin/internal/chainhash"
	"typecoin/internal/mempool"
	"typecoin/internal/store"
	"typecoin/internal/wire"
)

// chaosSeeds returns the scenario seed list, or the single seed from
// FAULT_SEED for replaying a failure.
func chaosSeeds(t *testing.T) []int64 {
	t.Helper()
	if env := os.Getenv("FAULT_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("FAULT_SEED=%q: %v", env, err)
		}
		return []int64{seed}
	}
	return []int64{1, 7, 23, 42, 1337}
}

// chaosStack is one node's persistence stack in a chaos run: a fault
// engine over an in-memory store, under the Retry health wrapper —
// the same shape a production node runs (minus the engine).
type chaosStack struct {
	engine *store.FaultEngine
	retry  *store.Retry
}

func newChaosStack(seed int64) *chaosStack {
	eng := store.NewFaultEngine(store.NewMem(), seed)
	// Tight real-time budgets: the scenario wants the state machine's
	// transitions, not its production pacing.
	ret := store.NewRetry(eng, store.RetryConfig{
		Attempts:   3,
		Backoff:    50 * time.Microsecond,
		BackoffMax: time.Millisecond,
	})
	return &chaosStack{engine: eng, retry: ret}
}

func TestChaosStoreFaults(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosStoreFaults(t, seed)
		})
	}
}

func runChaosStoreFaults(t *testing.T, seed int64) {
	const n = 4
	stacks := make([]*chaosStack, n)
	for i := range stacks {
		stacks[i] = newChaosStack(seed + int64(i))
	}
	cfg := LinkConfig{Latency: 2 * time.Millisecond, Jitter: time.Millisecond}
	h := NewHarnessWithStores(t, seed, n, cfg, func(i int) store.Store {
		return stacks[i].retry
	})
	// Mirror the daemon's fault telemetry: every fired injection counts
	// into store_faults_total{op,kind} on the node's own registry.
	for i, s := range stacks {
		faults := h.Full[i].Reg.CounterVec("store_faults_total",
			"Storage faults observed, by operation and kind.", "op", "kind")
		s.engine.SetOnFault(func(op store.FaultOp, kind store.FaultKind) {
			faults.With(op.String(), kind.String()).Inc()
		})
		ret := s.retry
		h.Full[i].Reg.CounterFunc("store_retries_total",
			"Write attempts beyond each first try.",
			func() float64 { return float64(ret.Retries()) })
	}

	// Ring topology, so the partition below still leaves every node a
	// path within its side.
	for i := 0; i < n; i++ {
		h.Connect(i, (i+1)%n)
	}
	h.MineN(0, 3)
	h.WaitConverged()
	preHeight := h.Nodes[0].Chain().BestHeight()

	// The disk turns hostile: sticky write EIOs on the victim. The
	// flush rule keeps the recovery probe failing too, so the node
	// stays degraded until the "device" is repaired with Clear.
	const victim = 1
	stacks[victim].engine.Inject(
		store.FaultRule{Op: store.OpApply, Kind: store.KindEIO, Mode: store.ModeSticky},
		store.FaultRule{Op: store.OpAppendBlock, Kind: store.KindEIO, Mode: store.ModeSticky},
		store.FaultRule{Op: store.OpFlush, Kind: store.KindEIO, Mode: store.ModeSticky},
	)

	// Partition the ring and mine on both sides while the victim's
	// disk is failing: the victim (on the short side) receives blocks
	// it cannot persist, the far side builds the chain everyone must
	// land on after heal.
	h.Partition([]int{0, victim}, []int{2, 3})
	h.MineN(0, 1)
	h.MineN(2, 3)

	h.WaitFor("victim degraded-readonly", func() bool {
		return h.Metric(victim, "store_health") == float64(store.HealthDegraded)
	})

	// Degraded is read-only, not dead. The node still answers chain,
	// header and index queries...
	if got := h.Nodes[victim].Chain().BestHeight(); got < preHeight {
		t.Fatalf("degraded node lost chain state: height %d, had %d", got, preHeight)
	}
	locator := []chainhash.Hash{h.Params.GenesisBlock.BlockHash()}
	if hdrs := h.Nodes[victim].Chain().HeadersAfter(locator, 32); len(hdrs) == 0 {
		t.Fatalf("degraded node stopped serving headers")
	}
	if _, _, err := h.Full[victim].Index.Tip(); err != nil {
		t.Fatalf("degraded node index tip: %v", err)
	}
	// ...while refusing new write obligations.
	if _, err := h.Nodes[victim].Pool().Accept(wire.NewMsgTx(1)); !errors.Is(err, mempool.ErrDegraded) {
		t.Fatalf("degraded mempool accepted work: err=%v, want ErrDegraded", err)
	}
	if got := h.Metric(victim, "store_faults_total"); got == 0 {
		t.Fatalf("store_faults_total = 0 on the faulted node")
	}
	// A local disk failure must not score peers in either direction:
	// the victim keeps its neighbors, the neighbors keep the victim.
	for _, peer := range []int{0, 2} {
		if h.Nodes[victim].IsBanned(h.Host(peer)) {
			t.Fatalf("degraded node banned honest peer %d", peer)
		}
		if h.Nodes[peer].IsBanned(h.Host(victim)) {
			t.Fatalf("node %d banned the degraded node", peer)
		}
	}

	// Repair the device and heal the network: the probe must notice,
	// the resync must land writes (closing the loop back to healthy),
	// and the whole network must converge on the far side's chain.
	stacks[victim].engine.Clear()
	h.Heal()
	h.WaitFor("victim healthy again", func() bool {
		return h.Metric(victim, "store_health") == float64(store.HealthHealthy)
	})
	h.WaitConverged()
	h.AssertConverged()

	if h.Metric(victim, "store_retries_total") == 0 {
		t.Fatalf("victim reported no write retries despite sticky EIOs")
	}
	final := h.Nodes[victim].Chain().BestHeight()
	if final <= preHeight {
		t.Fatalf("victim never caught up: height %d, pre-fault %d", final, preHeight)
	}
}
