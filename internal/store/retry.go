package store

import (
	"fmt"
	"sync"
	"time"
)

// Retry is the graceful-degradation layer: a Store decorator that turns
// raw device failures into a health state machine instead of a dead
// node.
//
//	healthy ──(writes keep failing / persistent error)──▶ degraded-readonly
//	degraded-readonly ──(background probe succeeds)──▶ recovering
//	recovering ──(first successful write)──▶ healthy
//
// Transient write errors (EIO blips, short writes) are retried in place
// with capped exponential backoff; persistent errors (ENOSPC) and
// exhausted retries flip the store to degraded-readonly, where writes
// fail fast with ErrDegraded while reads keep flowing — the node can
// still serve chain and index queries, relay headers, and answer RPCs.
// A background prober fsyncs the inner store on a backoff cadence;
// success moves the state to recovering, and the next write that lands
// closes the loop back to healthy.
//
// Reads are never retried and never degrade the store: a read failure
// is returned to the caller (with the fault counted), because the whole
// point of degraded mode is that reads keep working.
type Retry struct {
	inner Store
	cfg   RetryConfig

	mu       sync.Mutex
	state    Health
	cause    error // what degraded us; nil when healthy
	closed   bool
	probing  bool
	retries  uint64 // write attempts beyond the first
	degrades uint64 // healthy→degraded transitions
	onState  func(h Health, cause error)
	onFault  func(op string, err error)
	quit     chan struct{}
}

// RetryConfig tunes the health wrapper. Zero values get defaults.
type RetryConfig struct {
	// Attempts is how many tries a write gets (first try included)
	// before the store degrades. Default 5.
	Attempts int
	// Backoff is the initial retry delay, doubled per retry. Default 10ms.
	Backoff time.Duration
	// BackoffMax caps both the retry delay and the recovery-probe
	// cadence. Default 2s.
	BackoffMax time.Duration
	// Sleep replaces the delay function for tests; nil means a real
	// (close-interruptible) sleep.
	Sleep func(time.Duration)
}

// NewRetry wraps inner in the health state machine.
func NewRetry(inner Store, cfg RetryConfig) *Retry {
	if cfg.Attempts <= 0 {
		cfg.Attempts = 5
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 10 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	return &Retry{
		inner: inner,
		cfg:   cfg,
		state: HealthHealthy,
		quit:  make(chan struct{}),
	}
}

// SetOnState installs a hook observed (without the lock held) on every
// health transition. Telemetry seam; call before concurrent use.
func (r *Retry) SetOnState(fn func(h Health, cause error)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onState = fn
}

// SetOnFault installs a hook observed on every store fault Retry sees,
// with the logical operation name ("apply", "flush", "get", ...) and
// the error. Telemetry seam; call before concurrent use.
func (r *Retry) SetOnFault(fn func(op string, err error)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onFault = fn
}

// Health implements HealthReporter: the current state and, when not
// healthy, the error that caused it.
func (r *Retry) Health() (Health, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state, r.cause
}

// Retries reports write attempts beyond each first try (telemetry).
func (r *Retry) Retries() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retries
}

// Degrades reports how many times the store entered degraded-readonly.
func (r *Retry) Degrades() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.degrades
}

// sleep waits d, returning false if the store closed meanwhile.
func (r *Retry) sleep(d time.Duration) bool {
	if r.cfg.Sleep != nil {
		r.cfg.Sleep(d)
		r.mu.Lock()
		closed := r.closed
		r.mu.Unlock()
		return !closed
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-r.quit:
		return false
	}
}

func (r *Retry) noteFault(op string, err error) {
	r.mu.Lock()
	cb := r.onFault
	r.mu.Unlock()
	if cb != nil {
		cb(op, err)
	}
}

// setStateLocked moves the machine and schedules the transition hook;
// the returned func must be called after r.mu is released.
func (r *Retry) setStateLocked(h Health, cause error) func() {
	if r.state == h {
		r.cause = cause
		return func() {}
	}
	r.state = h
	r.cause = cause
	if h == HealthDegraded {
		r.degrades++
		if !r.probing && !r.closed {
			r.probing = true
			go r.probe()
		}
	}
	cb := r.onState
	if cb == nil {
		return func() {}
	}
	return func() { cb(h, cause) }
}

// probe is the background recovery loop: while degraded, periodically
// ask the inner store to fsync. The first success proves the device is
// taking writes again and moves the state to recovering; the next
// caller write that lands closes the loop back to healthy.
func (r *Retry) probe() {
	delay := r.cfg.Backoff
	for {
		if !r.sleep(delay) {
			r.mu.Lock()
			r.probing = false
			r.mu.Unlock()
			return
		}
		r.mu.Lock()
		if r.closed || r.state != HealthDegraded {
			r.probing = false
			r.mu.Unlock()
			return
		}
		r.mu.Unlock()
		err := r.inner.Flush()
		if err == nil {
			r.mu.Lock()
			var fire func()
			if r.state == HealthDegraded {
				fire = r.setStateLocked(HealthRecovering, nil)
			} else {
				fire = func() {}
			}
			r.probing = false
			r.mu.Unlock()
			fire()
			return
		}
		r.noteFault("probe", err)
		if delay *= 2; delay > r.cfg.BackoffMax {
			delay = r.cfg.BackoffMax
		}
	}
}

// write runs fn under the retry policy: transient failures are retried
// with capped exponential backoff; persistent and fatal failures, or an
// exhausted retry budget, degrade the store. While degraded, writes
// fail fast with ErrDegraded.
func (r *Retry) write(op string, fn func() error) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	if r.state == HealthDegraded {
		cause := r.cause
		r.mu.Unlock()
		if cause != nil {
			return fmt.Errorf("%w: %v", ErrDegraded, cause)
		}
		return ErrDegraded
	}
	r.mu.Unlock()

	delay := r.cfg.Backoff
	var err error
	for attempt := 0; attempt < r.cfg.Attempts; attempt++ {
		if attempt > 0 {
			r.mu.Lock()
			r.retries++
			r.mu.Unlock()
			if !r.sleep(delay) {
				return ErrClosed
			}
			if delay *= 2; delay > r.cfg.BackoffMax {
				delay = r.cfg.BackoffMax
			}
		}
		err = fn()
		if err == nil {
			r.mu.Lock()
			var fire func()
			if r.state == HealthRecovering {
				fire = r.setStateLocked(HealthHealthy, nil)
			} else {
				fire = func() {}
			}
			r.mu.Unlock()
			fire()
			return nil
		}
		r.noteFault(op, err)
		if Classify(err) != ClassTransient {
			break
		}
	}

	r.mu.Lock()
	var fire func()
	if r.closed {
		// A shutdown race, not a device failure: the caller raced our
		// Close. Report the error without flipping health state.
		fire = func() {}
	} else {
		fire = r.setStateLocked(HealthDegraded, err)
	}
	r.mu.Unlock()
	fire()
	return err
}

// readFault counts a read-side failure without retrying or degrading.
// ErrNotFound is not a fault — it is the store's normal vocabulary.
func (r *Retry) readFault(op string, err error) {
	if err == nil || err == ErrNotFound {
		return
	}
	if IsStoreFault(err) {
		r.noteFault(op, err)
	}
}

// Get implements Store (read path: pass through, count faults).
func (r *Retry) Get(key []byte) ([]byte, error) {
	v, err := r.inner.Get(key)
	r.readFault("get", err)
	return v, err
}

// Has implements Store.
func (r *Retry) Has(key []byte) (bool, error) {
	ok, err := r.inner.Has(key)
	r.readFault("get", err)
	return ok, err
}

// Iterate implements Store.
func (r *Retry) Iterate(prefix []byte, fn func(key, value []byte) error) error {
	err := r.inner.Iterate(prefix, fn)
	r.readFault("iterate", err)
	return err
}

// IterateFrom keeps the inner store's seek reachable through the
// wrapper.
func (r *Retry) IterateFrom(prefix, start []byte, fn func(key, value []byte) error) error {
	err := IterateFrom(r.inner, prefix, start, fn)
	r.readFault("iterate", err)
	return err
}

// Apply implements Store (write path: retried, degradable).
func (r *Retry) Apply(b *Batch) error {
	return r.write("apply", func() error { return r.inner.Apply(b) })
}

// AppendBlock implements Store (write path).
func (r *Retry) AppendBlock(data []byte) (BlockRef, error) {
	var ref BlockRef
	err := r.write("append_block", func() error {
		var ierr error
		ref, ierr = r.inner.AppendBlock(data)
		return ierr
	})
	return ref, err
}

// ReadBlock implements Store (read path).
func (r *Retry) ReadBlock(ref BlockRef) ([]byte, error) {
	data, err := r.inner.ReadBlock(ref)
	r.readFault("read_block", err)
	return data, err
}

// Flush implements Store (write path).
func (r *Retry) Flush() error {
	return r.write("flush", func() error { return r.inner.Flush() })
}

// Close implements Store.
func (r *Retry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	close(r.quit)
	r.mu.Unlock()
	return r.inner.Close()
}
