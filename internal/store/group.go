package store

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Group is the async group-commit pipeline: a Store decorator that
// makes Apply enqueue-and-return instead of write-and-return. A
// committer goroutine coalesces the pending batches into one journal
// write (one frame per batch, so per-batch atomicity is untouched) and
// fsyncs on a configurable cadence. This is the paper's batching
// argument applied one layer down: E2 amortizes per-commitment cost by
// batching propositions into a transaction; Group amortizes per-block
// durability cost by batching commit frames into a write.
//
// Reads see read-your-writes semantics through an overlay of the
// not-yet-flushed ops, so the chain above cannot observe the pipeline
// at all — except through the durability watermark: batches may carry a
// block height mark (ApplyMarked), and Flushed reports the highest
// marked height whose batch has reached the inner store. A crash while
// batches are pending loses exactly the unflushed tail — whole blocks
// from the tip, which sync re-downloads — never a half-applied batch.
//
// Write ordering is preserved: batches reach the inner store in Apply
// order, and a group write is a contiguous run of them, so the inner
// journal is byte-identical in content to the synchronous schedule.
type Group struct {
	inner Store
	cfg   GroupConfig

	mu      sync.Mutex
	waiters *sync.Cond // broadcast when durable/sticky/flushedHeight change
	pending []groupBatch
	overlay map[string]overlayEntry
	seq     uint64 // last enqueued batch
	durable uint64 // last batch applied to the inner store
	flushed int    // highest marked height known durable; -1 before any
	force   bool   // a Drain wants an immediate flush
	flushes uint64 // completed group flushes, for the SyncEvery cadence
	sticky  error  // first FATAL inner-store failure; poisons the pipeline
	// lastErr/consecFails track the current transient failure streak:
	// the committer keeps the batches (requeued in order) and retries
	// with capped exponential backoff instead of poisoning, so an EIO
	// blip costs latency, not the node. Enqueues beyond MaxPending are
	// refused with ErrBackpressure while the streak lasts.
	lastErr     error
	consecFails int
	needSync    bool // a due fsync failed transiently; retry it
	closed      bool
	onFlush     func(batches int, lag time.Duration)
	onError     func(err error, fatal bool, consecutive int)
	pendChan    chan struct{} // kick: work or force arrived (buffered 1)
	quit        chan struct{}
	done        chan struct{}
}

// GroupConfig tunes the committer.
type GroupConfig struct {
	// Interval is how long the committer lingers after the first pending
	// batch arrives, collecting more before flushing. Zero means flush
	// as soon as the committer wakes (still coalescing whatever queued
	// while a previous flush was in progress).
	Interval time.Duration
	// MaxBatches flushes early once this many batches are pending.
	// Zero means 32.
	MaxBatches int
	// SyncEvery fsyncs the inner store every Nth group flush. Zero means
	// no periodic fsync — durability only on Flush/Close, matching the
	// synchronous engine's default.
	SyncEvery int
	// MaxPending bounds enqueued-but-unflushed batches. While the inner
	// store is failing, enqueues beyond the bound are refused with
	// ErrBackpressure instead of growing the overlay without limit.
	// Zero means 4096.
	MaxPending int
	// RetryBackoff is the committer's initial delay before retrying a
	// transiently failed flush, doubling up to RetryBackoffMax.
	// Zeros mean 10ms and 2s.
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
}

// groupGiveUpAfter is the failure streak at which Drain stops waiting
// and reports the transient error instead: callers that need the store
// caught up (reorg disconnects, shutdown flushes) must not hang on a
// device that keeps failing. The batches stay queued; a later recovery
// still flushes them.
const groupGiveUpAfter = 3

type groupBatch struct {
	b        *Batch
	seq      uint64
	height   int // marked block height, or -1
	enqueued time.Time
}

type overlayEntry struct {
	value []byte
	del   bool
	seq   uint64 // batch that last wrote this key
}

// NewGroup wraps inner in a group-commit pipeline and starts its
// committer goroutine. Close stops the committer and closes inner.
func NewGroup(inner Store, cfg GroupConfig) *Group {
	if cfg.MaxBatches <= 0 {
		cfg.MaxBatches = 32
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 4096
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 10 * time.Millisecond
	}
	if cfg.RetryBackoffMax <= 0 {
		cfg.RetryBackoffMax = 2 * time.Second
	}
	g := &Group{
		inner:    inner,
		cfg:      cfg,
		overlay:  make(map[string]overlayEntry),
		flushed:  -1,
		pendChan: make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	g.waiters = sync.NewCond(&g.mu)
	go g.committer()
	return g
}

// SetOnFlush installs a hook observed after every successful group
// flush with the group size and the flush lag (time the oldest batch
// spent pending). Fired without the group lock held, so the hook may
// call back into the Group (e.g. Flushed). Telemetry seam; call before
// concurrent use.
func (g *Group) SetOnFlush(fn func(batches int, lag time.Duration)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.onFlush = fn
}

// SetOnError installs a hook observed (without the group lock held)
// whenever an inner-store flush fails — fatal reports whether the
// pipeline poisoned itself, consecutive the length of the failure
// streak — and once with a nil err when a streak ends in a successful
// flush. Health-tracking seam; call before concurrent use.
func (g *Group) SetOnError(fn func(err error, fatal bool, consecutive int)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.onError = fn
}

// Err reports the pipeline's current failure, if any: the fatal sticky
// error, or the transient error the committer is retrying. Nil means
// the last flush attempt (if any) succeeded.
func (g *Group) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.sticky != nil {
		return g.sticky
	}
	return g.lastErr
}

// kick wakes the committer without blocking.
func (g *Group) kick() {
	select {
	case g.pendChan <- struct{}{}:
	default:
	}
}

// Apply implements Store: the batch is enqueued for the committer and
// immediately visible to reads through the overlay. The batch is
// retained by the pipeline until flushed; callers must not mutate it
// after Apply (chain and mempool build fresh batches per commit, so
// this holds everywhere in-tree).
func (g *Group) Apply(b *Batch) error { return g.enqueue(b, -1) }

// ApplyMarked is Apply plus a durability mark: once this batch reaches
// the inner store, Flushed reports at least height. The chain marks
// every block-connect batch with its block height, which is what makes
// the watermark mean "blocks ≤ h survive any crash".
func (g *Group) ApplyMarked(b *Batch, height int) error { return g.enqueue(b, height) }

func (g *Group) enqueue(b *Batch, height int) error {
	g.mu.Lock()
	if g.sticky != nil {
		err := g.sticky
		g.mu.Unlock()
		return err
	}
	if g.closed {
		g.mu.Unlock()
		return ErrClosed
	}
	if len(g.pending) >= g.cfg.MaxPending {
		// The committer cannot keep up — usually because the inner store
		// is failing and every flush is being retried. Refuse new work
		// instead of buffering the chain's writes without bound.
		cause := g.lastErr
		g.mu.Unlock()
		if cause != nil {
			return fmt.Errorf("%w (%d batches pending): %v", ErrBackpressure, g.cfg.MaxPending, cause)
		}
		return fmt.Errorf("%w (%d batches pending)", ErrBackpressure, g.cfg.MaxPending)
	}
	g.seq++
	gb := groupBatch{b: b, seq: g.seq, height: height, enqueued: time.Now()}
	g.pending = append(g.pending, gb)
	for _, o := range b.ops {
		g.overlay[string(o.key)] = overlayEntry{value: o.value, del: o.delete, seq: gb.seq}
	}
	g.mu.Unlock()
	g.kick()
	return nil
}

// committer is the single flusher goroutine: wait for work, linger up
// to Interval collecting more, then flush the whole pending run. A
// transiently failed flush is retried with capped exponential backoff
// until it succeeds, turns fatal, or the pipeline closes.
func (g *Group) committer() {
	defer close(g.done)
	backoff := g.cfg.RetryBackoff
	for {
		select {
		case <-g.quit:
			g.flushPending()
			return
		case <-g.pendChan:
		}
		timer := time.NewTimer(g.cfg.Interval)
	linger:
		for g.cfg.Interval > 0 {
			g.mu.Lock()
			full := len(g.pending) >= g.cfg.MaxBatches || g.force || len(g.pending) == 0
			g.mu.Unlock()
			if full {
				break
			}
			select {
			case <-g.quit:
				timer.Stop()
				g.flushPending()
				return
			case <-g.pendChan:
			case <-timer.C:
				break linger
			}
		}
		timer.Stop()
		for !g.flushPending() {
			g.mu.Lock()
			stuck := g.sticky != nil || (len(g.pending) == 0 && !g.needSync)
			g.mu.Unlock()
			if stuck {
				break
			}
			select {
			case <-g.quit:
				g.flushPending() // final best effort before Close
				return
			case <-time.After(backoff):
			case <-g.pendChan: // a Drain or new batch wants action now
			}
			if backoff *= 2; backoff > g.cfg.RetryBackoffMax {
				backoff = g.cfg.RetryBackoffMax
			}
		}
		backoff = g.cfg.RetryBackoff
	}
}

// groupApplier is the engine fast path: commit a run of batches with
// one write. File implements it; FaultEngine deliberately does not, so
// fault injection keeps counting individual Apply calls even under a
// Group.
type groupApplier interface {
	ApplyGroup(batches []*Batch) error
}

// flushPending writes every pending batch to the inner store, advances
// the durability watermark, and prunes the overlay. It returns false
// when the flush failed transiently and should be retried: the batches
// were requeued (or, for a failed fsync, needSync was set) and nothing
// was lost. Fatal failures poison the pipeline and return true — there
// is nothing left to retry; recovery is reopening the directory, same
// as a crash.
func (g *Group) flushPending() bool {
	g.mu.Lock()
	take := g.pending
	g.pending = nil
	g.force = false
	needSync := g.needSync
	if (len(take) == 0 && !needSync) || g.sticky != nil {
		g.waiters.Broadcast()
		g.mu.Unlock()
		return true
	}
	g.mu.Unlock()

	var err error
	if len(take) > 0 {
		if ga, ok := g.inner.(groupApplier); ok {
			batches := make([]*Batch, len(take))
			for i, gb := range take {
				batches[i] = gb.b
			}
			err = ga.ApplyGroup(batches)
		} else {
			for _, gb := range take {
				if err = g.inner.Apply(gb.b); err != nil {
					break
				}
			}
		}
	}

	g.mu.Lock()
	if err != nil {
		ok := g.noteFlushErrLocked(err)
		if !ok {
			// Transient: requeue ahead of anything enqueued while the
			// write was in flight — order to the inner store must match
			// Apply order. A batch the non-group path already applied is
			// reapplied on retry; journal replay is last-writer-wins, so
			// the duplicate frames are harmless.
			g.pending = append(take, g.pending...)
		}
		g.finishFlushAndUnlock(err)
		return ok
	}

	if len(take) > 0 {
		g.flushes++
	}
	syncDue := needSync ||
		(len(take) > 0 && g.cfg.SyncEvery > 0 && g.flushes%uint64(g.cfg.SyncEvery) == 0)
	var syncErr error
	if syncDue {
		g.mu.Unlock()
		syncErr = g.inner.Flush()
		g.mu.Lock()
		if syncErr != nil {
			// The batches reached the inner store, so the watermark still
			// advances (Flushed means "applied", not "fsynced"); only the
			// periodic-fsync cadence is owed a retry.
			g.noteFlushErrLocked(syncErr)
			g.needSync = true
		} else {
			g.needSync = false
		}
	}

	var notifyFlush func()
	if len(take) > 0 {
		last := take[len(take)-1]
		g.durable = last.seq
		for _, gb := range take {
			if gb.height > g.flushed {
				g.flushed = gb.height
			}
		}
		for k, e := range g.overlay {
			if e.seq <= g.durable {
				delete(g.overlay, k)
			}
		}
		if fn := g.onFlush; fn != nil {
			// Fire outside g.mu so the hook can read the watermark back
			// (Flushed) without self-deadlocking.
			batches, lag := len(take), time.Since(take[0].enqueued)
			notifyFlush = func() { fn(batches, lag) }
		}
	}
	retryNeeded := syncErr != nil && g.sticky == nil
	g.finishFlushAndUnlock(syncErr)
	if notifyFlush != nil {
		notifyFlush()
	}
	return !retryNeeded
}

// noteFlushErrLocked classifies a flush failure, poisoning the pipeline
// when it is fatal. It reports whether the failure was fatal (true
// means: do not retry).
func (g *Group) noteFlushErrLocked(err error) bool {
	if Classify(err) == ClassFatal {
		g.sticky = fmt.Errorf("group commit: %w", err)
		return true
	}
	g.lastErr = err
	g.consecFails++
	return false
}

// finishFlushAndUnlock ends a flushPending pass: it settles the failure
// streak, wakes waiters, releases g.mu, and fires the error hook
// outside the lock. err is the failure this pass hit, nil on success.
func (g *Group) finishFlushAndUnlock(err error) {
	var (
		cb    func(error, bool, int)
		fatal = g.sticky != nil
		n     = g.consecFails
	)
	if err == nil && g.sticky == nil {
		if g.consecFails > 0 {
			// A streak just ended: let the health layer know with err=nil.
			cb = g.onError
			n = 0
		}
		g.consecFails = 0
		g.lastErr = nil
	} else {
		cb = g.onError
	}
	g.waiters.Broadcast()
	g.mu.Unlock()
	if cb != nil {
		cb(err, fatal, n)
	}
}

// Drain blocks until every batch enqueued before the call is durable in
// the inner store (or the pipeline has failed). The chain drains before
// reorg disconnects so undo replay reads a store that is caught up with
// the overlay, and Flush/Close drain as part of their contract. When
// the committer has failed groupGiveUpAfter flushes in a row, Drain
// reports the transient error instead of waiting out a device that may
// never heal; the batches stay queued and a later retry still flushes
// them.
func (g *Group) Drain() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	target := g.seq
	for g.durable < target && g.sticky == nil && g.consecFails < groupGiveUpAfter {
		g.force = true
		g.kick()
		g.waiters.Wait()
	}
	if g.sticky != nil {
		return g.sticky
	}
	if g.durable < target && g.lastErr != nil {
		return fmt.Errorf("group drain: %w", g.lastErr)
	}
	return nil
}

// Flushed reports the durability watermark: the highest marked height
// whose batch has reached the inner store, or -1 if no marked batch has
// been flushed since Open.
func (g *Group) Flushed() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.flushed
}

// PendingBatches reports the number of enqueued, not-yet-flushed
// batches (telemetry).
func (g *Group) PendingBatches() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.pending)
}

// Get implements Store, consulting the unflushed overlay first.
func (g *Group) Get(key []byte) ([]byte, error) {
	g.mu.Lock()
	if err := g.stateErrLocked(); err != nil {
		g.mu.Unlock()
		return nil, err
	}
	if e, ok := g.overlay[string(key)]; ok {
		g.mu.Unlock()
		if e.del {
			return nil, ErrNotFound
		}
		return append([]byte(nil), e.value...), nil
	}
	g.mu.Unlock()
	return g.inner.Get(key)
}

// Has implements Store.
func (g *Group) Has(key []byte) (bool, error) {
	g.mu.Lock()
	if err := g.stateErrLocked(); err != nil {
		g.mu.Unlock()
		return false, err
	}
	if e, ok := g.overlay[string(key)]; ok {
		g.mu.Unlock()
		return !e.del, nil
	}
	g.mu.Unlock()
	return g.inner.Has(key)
}

// Iterate implements Store.
func (g *Group) Iterate(prefix []byte, fn func(key, value []byte) error) error {
	return g.IterateFrom(prefix, prefix, fn)
}

// IterateFrom is the seek form of Iterate: a sorted merge of the inner
// store's pairs from start on with a point-in-time snapshot of the
// overlay's (overlay wins, deletes mask inner keys). The stores above
// only iterate from a single writer or at startup, so the two snapshots
// observing slightly different instants is not visible in practice.
func (g *Group) IterateFrom(prefix, start []byte, fn func(key, value []byte) error) error {
	g.mu.Lock()
	if err := g.stateErrLocked(); err != nil {
		g.mu.Unlock()
		return err
	}
	type kv struct {
		key   string
		value []byte
		del   bool
	}
	var over []kv
	p, from := string(prefix), string(start)
	for k, e := range g.overlay {
		if strings.HasPrefix(k, p) && k >= from {
			over = append(over, kv{key: k, value: e.value, del: e.del})
		}
	}
	g.mu.Unlock()
	sort.Slice(over, func(i, j int) bool { return over[i].key < over[j].key })

	i := 0
	emitOverlay := func(e kv) error {
		if e.del {
			return nil
		}
		return fn([]byte(e.key), append([]byte(nil), e.value...))
	}
	err := IterateFrom(g.inner, prefix, start, func(key, value []byte) error {
		ks := string(key)
		for i < len(over) && over[i].key < ks {
			if err := emitOverlay(over[i]); err != nil {
				return err
			}
			i++
		}
		if i < len(over) && over[i].key == ks {
			e := over[i]
			i++
			return emitOverlay(e)
		}
		return fn(key, value)
	})
	if err != nil {
		return err
	}
	for ; i < len(over); i++ {
		if err := emitOverlay(over[i]); err != nil {
			return err
		}
	}
	return nil
}

// AppendBlock implements Store: block bodies go straight to the inner
// append-only log. The blob only becomes reachable when the batch
// holding its ref commits, so writing it eagerly is safe — a crash
// before the ref flushes leaves harmless garbage, exactly as today.
func (g *Group) AppendBlock(data []byte) (BlockRef, error) {
	if err := g.stateErr(); err != nil {
		return BlockRef{}, err
	}
	return g.inner.AppendBlock(data)
}

// ReadBlock implements Store.
func (g *Group) ReadBlock(ref BlockRef) ([]byte, error) {
	if err := g.stateErr(); err != nil {
		return nil, err
	}
	return g.inner.ReadBlock(ref)
}

// Flush implements Store: drain the pipeline, then fsync the inner
// store. After Flush returns, every batch enqueued before the call is
// power-loss durable.
func (g *Group) Flush() error {
	if err := g.Drain(); err != nil {
		return err
	}
	return g.inner.Flush()
}

// Close implements Store: stop the committer (which flushes whatever is
// pending on its way out), then close the inner store. A poisoned
// pipeline still closes the inner store and reports the sticky error.
func (g *Group) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	g.mu.Unlock()
	close(g.quit)
	<-g.done
	err := g.sticky
	if cerr := g.inner.Close(); err == nil {
		err = cerr
	}
	return err
}

func (g *Group) stateErr() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stateErrLocked()
}

func (g *Group) stateErrLocked() error {
	if g.sticky != nil {
		return g.sticky
	}
	if g.closed {
		return ErrClosed
	}
	return nil
}
