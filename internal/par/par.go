// Package par runs a batch of independent jobs — the script checks of a
// block's inputs, of one transaction's inputs, or the signatures a
// wallet makes for them — on the caller's goroutine and on helpers that
// are already running.
//
// A helper joins a batch only if it is awake. The caller never waits
// for one to start: it claims and runs jobs itself, and waits only for
// the jobs a helper has claimed and not yet finished. After a batch a
// helper keeps polling, yielding the processor between polls; a batch
// posted while it polls is helped at once, without the wake-up latency
// of a parked goroutine. A helper exits once Do has not been called for
// idleWindow, so none stays parked and nothing needs closing. DESIGN.md
// ("Validation pipeline") gives the measurements.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// idleWindow is how long a helper polls after the last call of Do
// before it exits. It spans the gap between a submission's signing and
// its admission's verification, and between one submission and the
// next, so a closed loop of submissions finds the helper still polling.
const idleWindow = 100 * time.Microsecond

var (
	epoch    = time.Now()
	posted   atomic.Pointer[batch] // the batch helpers join, or nil
	lastCall atomic.Int64          // when Do was last called, in ns since epoch
	helpers  atomic.Int32          // helpers alive
)

// batch is one call of Do.
type batch struct {
	n      int
	width  int32 // helpers that may join
	f      func(i int) error
	next   atomic.Int64 // the next unclaimed index; n or more once claims stop
	active atomic.Int32 // helpers that joined and have not left

	mu     sync.Mutex
	errIdx int // the lowest failed index, n if none
	err    error
}

// Do calls f(i) for every i in [0, n) and returns the error of the lowest
// index whose call failed, or nil. The caller and up to GOMAXPROCS−1
// helpers claim indices in order through one counter; a failure stops
// further claims, and every claimed index runs to completion before Do
// returns. So every index below a failing one has run, and the error
// returned is the same whatever the interleaving. With n ≤ 1 or
// GOMAXPROCS = 1, Do is the plain loop.
//
// f runs concurrently with itself on other goroutines: it must not take
// a lock its caller holds, and must write only to what index i owns.
func Do(n int, f func(i int) error) error {
	lastCall.Store(int64(time.Since(epoch)))
	width := min(runtime.GOMAXPROCS(0), n) - 1
	if width <= 0 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	b := &batch{n: n, width: int32(width), f: f, errIdx: n}
	posted.Store(b)
	for h := helpers.Load(); h < b.width; h = helpers.Load() {
		if helpers.CompareAndSwap(h, h+1) {
			go help()
		}
	}
	b.work()
	posted.CompareAndSwap(b, nil)
	// A helper joins before it claims, so once the caller has seen the
	// claims stop, active counts every helper still running an index.
	for b.active.Load() != 0 {
		runtime.Gosched()
	}
	return b.err
}

// work claims and runs indices of b until none is left or one fails.
func (b *batch) work() {
	for {
		i := int(b.next.Add(1) - 1)
		if i >= b.n {
			return
		}
		if err := b.f(i); err != nil {
			b.next.Store(int64(b.n))
			b.mu.Lock()
			if i < b.errIdx {
				b.errIdx, b.err = i, err
			}
			b.mu.Unlock()
			return
		}
	}
}

// help is a helper's life: join each newly posted batch that has room,
// and exit once Do has not been called for idleWindow. A call of one
// index posts no batch but keeps the helper polling for the next call.
func help() {
	defer helpers.Add(-1)
	var last *batch
	for {
		if b := posted.Load(); b != nil && b != last {
			last = b
			if a := b.active.Add(1); a <= b.width {
				b.work()
			}
			b.active.Add(-1)
			continue
		}
		if time.Since(epoch)-time.Duration(lastCall.Load()) > idleWindow {
			return
		}
		runtime.Gosched()
	}
}
