package store

import (
	"errors"
	"testing"
	"time"
)

// tightRetry wraps inner with microsecond backoffs so state-machine
// tests run in real time without meaningful sleeps.
func tightRetry(inner Store, attempts int) *Retry {
	return NewRetry(inner, RetryConfig{
		Attempts:   attempts,
		Backoff:    50 * time.Microsecond,
		BackoffMax: time.Millisecond,
	})
}

// waitHealth polls until r reports want or the deadline passes.
func waitHealth(t *testing.T, r *Retry, want Health) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if h, _ := r.Health(); h == want {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	h, cause := r.Health()
	t.Fatalf("health stuck at %v (cause %v), want %v", h, cause, want)
}

func TestRetryTransparentOnTransientBlips(t *testing.T) {
	e := NewFaultEngine(NewMem(), 1)
	// Two one-shot EIOs: the write lands on the third attempt, inside
	// the budget, and the caller never sees the blips.
	e.Inject(
		FaultRule{Op: OpApply, Kind: KindEIO, Mode: ModeOneShot},
		FaultRule{Op: OpApply, Kind: KindEIO, Mode: ModeOneShot},
	)
	r := tightRetry(e, 5)
	defer r.Close()
	if err := applyOne(t, r, "k", "v"); err != nil {
		t.Fatalf("apply should absorb transient blips: %v", err)
	}
	if h, _ := r.Health(); h != HealthHealthy {
		t.Fatalf("health = %v after absorbed blips, want healthy", h)
	}
	if got := r.Retries(); got != 2 {
		t.Fatalf("Retries = %d, want 2", got)
	}
	if v, err := r.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("get = %q, %v", v, err)
	}
}

func TestRetryDegradesAndFailsFast(t *testing.T) {
	e := NewFaultEngine(NewMem(), 1)
	if err := applyOne(t, e, "pre", "fault"); err != nil {
		t.Fatalf("seed apply: %v", err)
	}
	e.Inject(
		FaultRule{Op: OpApply, Kind: KindEIO, Mode: ModeSticky},
		FaultRule{Op: OpFlush, Kind: KindEIO, Mode: ModeSticky},
	)
	r := tightRetry(e, 3)
	defer r.Close()

	var states []Health
	r.SetOnState(func(h Health, cause error) { states = append(states, h) })

	err := applyOne(t, r, "k", "v")
	if !errors.Is(err, ErrIO) {
		t.Fatalf("exhausted apply: %v, want ErrIO", err)
	}
	h, cause := r.Health()
	if h != HealthDegraded || cause == nil {
		t.Fatalf("health = %v, cause %v; want degraded with cause", h, cause)
	}
	if got := r.Degrades(); got != 1 {
		t.Fatalf("Degrades = %d, want 1", got)
	}
	// Writes now fail fast with the typed sentinel...
	if err := applyOne(t, r, "k", "v"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded apply: %v, want ErrDegraded", err)
	}
	// ...while reads keep flowing: that is the whole point.
	if v, err := r.Get([]byte("pre")); err != nil || string(v) != "fault" {
		t.Fatalf("degraded get = %q, %v", v, err)
	}
	if len(states) == 0 || states[len(states)-1] != HealthDegraded {
		t.Fatalf("onState transitions = %v, want ending degraded", states)
	}
}

func TestRetryENOSPCDegradesWithoutRetrying(t *testing.T) {
	e := NewFaultEngine(NewMem(), 1)
	e.Inject(
		FaultRule{Op: OpApply, Kind: KindENOSPC, Mode: ModeSticky},
		FaultRule{Op: OpFlush, Kind: KindENOSPC, Mode: ModeSticky},
	)
	r := tightRetry(e, 5)
	defer r.Close()
	if err := applyOne(t, r, "k", "v"); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("apply on full disk: %v, want ErrNoSpace", err)
	}
	// A full disk is persistent: no retry budget is burned on it.
	if got := r.Retries(); got != 0 {
		t.Fatalf("Retries = %d on ENOSPC, want 0", got)
	}
	if h, _ := r.Health(); h != HealthDegraded {
		t.Fatalf("health = %v, want degraded", h)
	}
}

func TestRetryRecoversThroughProbe(t *testing.T) {
	e := NewFaultEngine(NewMem(), 1)
	e.Inject(
		FaultRule{Op: OpApply, Kind: KindEIO, Mode: ModeSticky},
		FaultRule{Op: OpFlush, Kind: KindEIO, Mode: ModeSticky},
	)
	r := tightRetry(e, 2)
	defer r.Close()
	if err := applyOne(t, r, "k", "v"); err == nil {
		t.Fatal("apply should fail under sticky EIO")
	}
	waitHealth(t, r, HealthDegraded)

	// The disk is repaired: the background probe's Flush succeeds and
	// moves the machine to recovering; the next write closes the loop.
	e.Clear()
	waitHealth(t, r, HealthRecovering)
	if err := applyOne(t, r, "k", "v"); err != nil {
		t.Fatalf("apply while recovering: %v", err)
	}
	waitHealth(t, r, HealthHealthy)
	if _, cause := r.Health(); cause != nil {
		t.Fatalf("healthy with residual cause %v", cause)
	}
}

func TestRetryReadsNeverDegrade(t *testing.T) {
	e := NewFaultEngine(NewMem(), 1)
	e.Inject(FaultRule{Op: OpGet, Kind: KindEIO, Mode: ModeSticky})
	r := tightRetry(e, 3)
	defer r.Close()
	var faults int
	r.SetOnFault(func(op string, err error) { faults++ })
	for i := 0; i < 4; i++ {
		if _, err := r.Get([]byte("k")); !errors.Is(err, ErrIO) {
			t.Fatalf("get %d: %v, want ErrIO passed through", i, err)
		}
	}
	if h, _ := r.Health(); h != HealthHealthy {
		t.Fatalf("read failures degraded the store: %v", h)
	}
	if faults != 4 {
		t.Fatalf("onFault saw %d read faults, want 4", faults)
	}
}
