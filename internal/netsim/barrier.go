package netsim

import (
	"runtime"
	"time"

	"typecoin/internal/clock"
	"typecoin/internal/p2p"
)

// tickStep is the virtual time one tick of a Barrier advances.
const tickStep = 20 * time.Millisecond

// Barrier is the simulator's one wait. It drives virtual time for p2p
// nodes on a Network and advances it only when the nodes are quiescent:
//
//   - every reader is parked on an empty buffer, its peer still open;
//   - every node's SendBacklog is zero;
//   - no timer is due on the nodes' liveness clock.
//
// So every cascade a tick starts (frames delivered, handlers run,
// replies written, timers fired, redials dialed) finishes at that tick's
// virtual time, however slowly the host runs it: what happens at which
// virtual time is a function of the seed. The barrier also delivers the
// frames due on a tick itself, one connection end at a time in an order
// fixed by the seed (Network.deliverNext), waiting for quiescence after
// each, so no two readers handle frames at once and the order in which
// a node handles same-tick frames does not depend on the Go scheduler.
// There is no wall-clock wait: while the predicate is false the barrier
// blocks on the network or yields. The one goroutine it does not see is
// store.Retry's recovery probe, which sleeps on its own schedule.
type Barrier struct {
	Net *Network
	// Live is the nodes' liveness clock (p2p.Node.SetLivenessClock), a
	// clock apart from the network's. Each tick advances it first, so
	// the frames the tick delivers are handled at the new liveness time.
	Live  *clock.Simulated
	Nodes []*p2p.Node
}

// Wait blocks until the nodes are quiescent and no frame is due. It
// reads the network's generation, then the send backlogs, then the
// generation again: if no reader parked and no endpoint closed in
// between, every reader was parked throughout, so nothing queued a
// message after the backlogs were read. Only then does it deliver the
// next connection end's due frames, and wait again.
func (b *Barrier) Wait() {
	for {
		gen := b.Net.awaitIdle()
		if !b.sendsDrained() {
			// A write loop has a message in hand; its write (or its
			// bookkeeping after one) takes no virtual time.
			runtime.Gosched()
			continue
		}
		if b.Net.awaitIdle() != gen {
			continue
		}
		if b.Net.deliverNext() {
			continue
		}
		if !b.Live.Due() {
			return
		}
		b.Live.Advance(0)
	}
}

func (b *Barrier) sendsDrained() bool {
	for _, node := range b.Nodes {
		if node.SendBacklog() != 0 {
			return false
		}
	}
	return true
}

// tick advances both clocks one step. The liveness clock goes first and
// its timers' cascades (a redial dialed, then accepted and greeted on
// the far side) finish before the network clock moves, so the frames
// they write depart at the same virtual time in every run.
func (b *Barrier) tick() {
	b.Live.Advance(tickStep)
	b.Wait()
	b.Net.clk.Advance(tickStep)
}

// Settle waits for quiescence, then advances ticks ticks, waiting again
// after each.
func (b *Barrier) Settle(ticks int) {
	b.Wait()
	for k := 0; k < ticks; k++ {
		b.tick()
		b.Wait()
	}
}

// WaitFor settles tick by tick until cond holds at quiescence, and
// returns the number of ticks that took; ok is false if cond still fails
// after bound ticks. Every 100 ticks it makes all nodes re-sync from
// their peers: lossy links can swallow a one-shot inv/getdata exchange,
// and the protocol has no per-message retry, so liveness under faults
// comes from periodic resync (as in Bitcoin).
func (b *Barrier) WaitFor(bound int, cond func() bool) (ticks int, ok bool) {
	for k := 0; ; k++ {
		b.Wait()
		if cond() {
			return k, true
		}
		if k == bound {
			return k, false
		}
		b.tick()
		if k%100 == 99 {
			for _, node := range b.Nodes {
				node.SyncPeers()
			}
		}
	}
}
