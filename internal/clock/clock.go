// Package clock abstracts time so that the chain, the miner and the
// Typecoin condition checker (before(t), paper Section 5) can run against
// wall time in production and a deterministic simulated clock in tests and
// benchmarks.
package clock

import (
	"sort"
	"sync"
	"time"
)

// Clock supplies the current time and runs callbacks once it has passed
// a point.
type Clock interface {
	Now() time.Time
	// AfterFunc schedules fn to run once the clock has advanced by at
	// least d. Calling stop cancels it; stop reports whether the call
	// prevented fn from running.
	AfterFunc(d time.Duration, fn func()) (stop func() bool)
}

// System is the wall clock.
type System struct{}

// Now returns time.Now.
func (System) Now() time.Time { return time.Now() }

// AfterFunc is time.AfterFunc: fn runs on its own goroutine.
func (System) AfterFunc(d time.Duration, fn func()) func() bool { return time.AfterFunc(d, fn).Stop }

// Simulated is a manually advanced clock. The zero value is not usable;
// create one with NewSimulated. It is safe for concurrent use.
//
// Beyond Now, a Simulated clock supports virtual timers (AfterFunc) and
// change subscriptions (Subscribe), which the netsim package uses to
// deliver in-flight network traffic as virtual time passes.
type Simulated struct {
	mu     sync.Mutex
	now    time.Time
	timers []*timer
	subs   []func(time.Time)
}

// NewSimulated returns a simulated clock starting at start.
func NewSimulated(start time.Time) *Simulated {
	return &Simulated{now: start}
}

// Now returns the simulated current time.
func (c *Simulated) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d and returns the new time. Timers
// that become due fire (in due order) before Advance returns, followed by
// the change subscribers.
func (c *Simulated) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	c.now = c.now.Add(d)
	now := c.now
	due, subs := c.collectLocked(now)
	c.mu.Unlock()
	runCallbacks(due, subs, now)
	return now
}

// Set jumps the clock to t, firing any timers due at or before t and then
// the change subscribers.
func (c *Simulated) Set(t time.Time) {
	c.mu.Lock()
	c.now = t
	due, subs := c.collectLocked(t)
	c.mu.Unlock()
	runCallbacks(due, subs, t)
}

// timer is a pending AfterFunc callback on a Simulated clock.
type timer struct {
	c     *Simulated
	at    time.Time
	fn    func()
	fired bool
}

// AfterFunc schedules fn to run once the clock has advanced by at least d.
// The callback runs on the goroutine that advances the clock, after the
// clock's internal lock is released, so it may use the clock freely.
func (c *Simulated) AfterFunc(d time.Duration, fn func()) func() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &timer{c: c, at: c.now.Add(d), fn: fn}
	c.timers = append(c.timers, t)
	return t.stop
}

// stop cancels the timer. It reports whether the call prevented the
// callback from firing.
func (t *timer) stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if t.fired {
		return false
	}
	t.fired = true
	return true
}

// Due reports whether a timer is due but has not fired: one armed with
// a delay of zero or less since the clock last changed. Advance(0) fires
// it.
func (c *Simulated) Due() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range c.timers {
		if !t.fired && !t.at.After(c.now) {
			return true
		}
	}
	return false
}

// Subscribe registers fn to run after every clock change (Advance or
// Set), on the advancing goroutine, outside the clock's internal lock.
// Subscriptions cannot be removed; they live as long as the clock.
func (c *Simulated) Subscribe(fn func(now time.Time)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.subs = append(c.subs, fn)
}

// collectLocked extracts the timers due at now (marking them fired and
// removing them from the pending set) plus a snapshot of the subscribers.
func (c *Simulated) collectLocked(now time.Time) ([]*timer, []func(time.Time)) {
	var due []*timer
	keep := c.timers[:0]
	for _, t := range c.timers {
		switch {
		case t.fired:
			// Stopped; drop it.
		case !t.at.After(now):
			t.fired = true
			due = append(due, t)
		default:
			keep = append(keep, t)
		}
	}
	c.timers = keep
	sort.SliceStable(due, func(i, j int) bool { return due[i].at.Before(due[j].at) })
	subs := make([]func(time.Time), len(c.subs))
	copy(subs, c.subs)
	return due, subs
}

func runCallbacks(due []*timer, subs []func(time.Time), now time.Time) {
	for _, t := range due {
		t.fn()
	}
	for _, fn := range subs {
		fn(now)
	}
}
