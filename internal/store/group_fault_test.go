package store

import (
	"errors"
	"testing"
	"time"
)

// faultGroup builds a Group over a scripted fault engine with
// microsecond retry pacing, for pipeline failure tests.
func faultGroup(e *FaultEngine, cfg GroupConfig) *Group {
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 50 * time.Microsecond
	}
	if cfg.RetryBackoffMax == 0 {
		cfg.RetryBackoffMax = time.Millisecond
	}
	return NewGroup(e, cfg)
}

func TestGroupBackpressureAtMaxPending(t *testing.T) {
	// An hour-long window and a huge coalescing cap: nothing flushes,
	// so pending grows until the admission bound trips.
	g := NewGroup(NewMem(), GroupConfig{
		Interval: time.Hour, MaxBatches: 1 << 30, MaxPending: 2,
	})
	defer g.Close()
	for i := 0; i < 2; i++ {
		if err := applyOne(t, g, "k", "v"); err != nil {
			t.Fatalf("apply %d within bound: %v", i, err)
		}
	}
	err := applyOne(t, g, "k", "v")
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("apply beyond MaxPending: %v, want ErrBackpressure", err)
	}
	// Backpressure is refusal, not poison: draining the window makes
	// the pipeline accept work again.
	if err := g.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := applyOne(t, g, "k", "v"); err != nil {
		t.Fatalf("apply after drain: %v", err)
	}
}

func TestGroupTransientErrorRetriedNotPoisoned(t *testing.T) {
	e := NewFaultEngine(NewMem(), 1)
	e.Inject(FaultRule{Op: OpApply, Kind: KindEIO, Mode: ModeOneShot})
	g := faultGroup(e, GroupConfig{Interval: 0, SyncEvery: 1})
	defer g.Close()
	if err := applyOne(t, g, "k", "v"); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	// The committer eats the one EIO, retries, and lands the batch;
	// the pipeline never poisons.
	if err := g.Drain(); err != nil {
		t.Fatalf("Drain after transient blip: %v", err)
	}
	if err := g.Err(); err != nil {
		t.Fatalf("Err after recovery: %v", err)
	}
	if v, err := e.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("batch not applied to inner: %q, %v", v, err)
	}
}

func TestGroupDrainGivesUpOnStickyFailureThenRecovers(t *testing.T) {
	e := NewFaultEngine(NewMem(), 1)
	e.Inject(
		FaultRule{Op: OpApply, Kind: KindEIO, Mode: ModeSticky},
		FaultRule{Op: OpFlush, Kind: KindEIO, Mode: ModeSticky},
	)
	g := faultGroup(e, GroupConfig{Interval: 0, SyncEvery: 1})
	defer g.Close()
	if err := applyOne(t, g, "k", "v"); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	// Drain must not hang on a device that never heals: after a bounded
	// failure streak it reports the retried error.
	if err := g.Drain(); !errors.Is(err, ErrIO) {
		t.Fatalf("Drain under sticky EIO: %v, want ErrIO", err)
	}
	if err := g.Err(); !errors.Is(err, ErrIO) {
		t.Fatalf("Err: %v, want the transient cause", err)
	}
	// The batch stayed queued; repairing the disk lets the committer's
	// own retry loop land it — transient errors never poison.
	e.Clear()
	deadline := time.Now().Add(5 * time.Second)
	for g.Err() != nil {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline never recovered: %v", g.Err())
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := g.Drain(); err != nil {
		t.Fatalf("Drain after repair: %v", err)
	}
	if v, err := e.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("stuck batch lost: %q, %v", v, err)
	}
}

func TestGroupFatalErrorStaysSticky(t *testing.T) {
	e := NewFaultEngine(NewMem(), 1)
	e.Inject(FaultRule{Op: OpApply, Kind: KindKill, Mode: ModeOneShot, TearBytes: -1})
	g := faultGroup(e, GroupConfig{Interval: 0, SyncEvery: 1})
	defer g.Close()

	// The hook fires outside the group lock, after Drain's waiters have
	// been woken, so the test waits for it and does not read a flag.
	fatalSeen := make(chan struct{}, 1)
	g.SetOnError(func(err error, fatal bool, consecutive int) {
		if fatal {
			select {
			case fatalSeen <- struct{}{}:
			default:
			}
		}
	})
	if err := applyOne(t, g, "k", "v"); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	if err := g.Drain(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Drain after kill: %v, want ErrClosed", err)
	}
	// Fatal means fatal: new work is refused with the sticky cause.
	if err := applyOne(t, g, "k2", "v2"); !errors.Is(err, ErrClosed) {
		t.Fatalf("apply after poison: %v, want sticky ErrClosed", err)
	}
	select {
	case <-fatalSeen:
	case <-time.After(5 * time.Second):
		t.Fatal("onError never reported the fatal flush")
	}
}
