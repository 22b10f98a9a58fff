package store

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// longGroup returns a Group over inner that never flushes on its own
// (hour-long window, huge batch cap): tests control flush timing via
// Drain/Flush/Close.
func longGroup(inner Store) *Group {
	return NewGroup(inner, GroupConfig{Interval: time.Hour, MaxBatches: 1 << 30})
}

func put(t *testing.T, st Store, key, value string) {
	t.Helper()
	b := NewBatch()
	b.Put([]byte(key), []byte(value))
	if err := st.Apply(b); err != nil {
		t.Fatalf("Apply(%s=%s): %v", key, value, err)
	}
}

// TestGroupOverlayReads: enqueued-but-unflushed batches must be visible
// through Get/Has/Iterate, including deletes masking inner keys, and
// must survive the transition to the inner store when drained.
func TestGroupOverlayReads(t *testing.T) {
	inner, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := longGroup(inner)
	defer g.Close()

	put(t, g, "a", "1") // will be deleted while pending
	put(t, g, "b", "2")
	if err := g.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Now mutate on top of durable state, leaving the ops pending.
	b := NewBatch()
	b.Delete([]byte("a"))
	b.Put([]byte("b"), []byte("22"))
	b.Put([]byte("c"), []byte("3"))
	if err := g.Apply(b); err != nil {
		t.Fatal(err)
	}

	if _, err := g.Get([]byte("a")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key a: got err %v, want ErrNotFound", err)
	}
	if ok, _ := g.Has([]byte("a")); ok {
		t.Fatal("Has(a) = true after pending delete")
	}
	if v, err := g.Get([]byte("b")); err != nil || string(v) != "22" {
		t.Fatalf("Get(b) = %q, %v; want overlay value 22", v, err)
	}
	if v, err := g.Get([]byte("c")); err != nil || string(v) != "3" {
		t.Fatalf("Get(c) = %q, %v", v, err)
	}

	// Iterate must merge: a masked, b overridden, c appended.
	got := map[string]string{}
	if err := g.Iterate(nil, func(k, v []byte) error {
		got[string(k)] = string(v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"b": "22", "c": "3"}
	if len(got) != len(want) {
		t.Fatalf("Iterate saw %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Iterate[%s] = %q, want %q", k, got[k], v)
		}
	}

	// After draining, the same reads come from the inner store.
	if err := g.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := inner.Get([]byte("a")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("inner still has deleted key a: %v", err)
	}
	if v, _ := inner.Get([]byte("b")); string(v) != "22" {
		t.Fatalf("inner b = %q after drain", v)
	}
}

// TestGroupCoalescesAndMarksWatermark: several marked batches flush as
// one group write, and the watermark advances to the highest flushed
// mark — not before.
func TestGroupCoalescesAndMarksWatermark(t *testing.T) {
	inner, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := longGroup(inner)
	defer g.Close()

	if got := g.Flushed(); got != -1 {
		t.Fatalf("fresh pipeline Flushed() = %d, want -1", got)
	}
	before := inner.JournalBytes()
	for h := 1; h <= 5; h++ {
		b := NewBatch()
		b.Put([]byte(fmt.Sprintf("blk/%d", h)), []byte("x"))
		if err := g.ApplyMarked(b, h); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.Flushed(); got != -1 {
		t.Fatalf("Flushed() = %d before any flush, want -1", got)
	}
	if got := g.PendingBatches(); got != 5 {
		t.Fatalf("PendingBatches() = %d, want 5", got)
	}

	// The hook fires after Drain's waiter has been woken, so the test
	// waits for it on a channel instead of reading a counter. The buffer
	// holds one send per batch, the most a broken coalescer could make.
	groups := make(chan int, 5)
	g.SetOnFlush(func(batches int, lag time.Duration) { groups <- batches })
	if err := g.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := g.Flushed(); got != 5 {
		t.Fatalf("Flushed() = %d after drain, want 5", got)
	}
	select {
	case batches := <-groups:
		if batches != 5 {
			t.Fatalf("first group flushed %d batches, want all 5 coalesced", batches)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("flush hook never fired")
	}
	// The journal grew by exactly the five frames, written in one call —
	// verify per-batch framing survived by reopening.
	if inner.JournalBytes() <= before {
		t.Fatal("journal did not grow")
	}
}

// TestGroupCrashMidWindowRecoversPrefix is the crash-inside-the-window
// scenario at the store level: a FaultEngine under the pipeline tears
// the journal mid-coalesced-group. Recovery must yield a clean prefix
// of whole batches — the unflushed tail is simply gone, nothing is
// half-applied.
func TestGroupCrashMidWindowRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	inner, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	// FaultEngine does not implement ApplyGroup, so the committer falls
	// back to per-batch Apply and the 3rd batch of the group dies,
	// tearing 7 bytes of its frame onto disk.
	fault := NewFaultEngine(inner, 0)
	fault.Inject(FaultRule{Op: OpApply, Kind: KindKill,
		Mode: ModeOneShot, After: 2, TearBytes: 7})
	g := longGroup(fault)

	for h := 1; h <= 5; h++ {
		b := NewBatch()
		b.Put([]byte(fmt.Sprintf("blk/%d", h)), []byte{byte(h)})
		if err := g.ApplyMarked(b, h); err != nil {
			t.Fatalf("enqueue %d: %v", h, err)
		}
	}
	if err := g.Drain(); !errors.Is(err, ErrClosed) {
		t.Fatalf("drain over dying store: err = %v, want ErrClosed", err)
	}
	// The pipeline is poisoned: subsequent operations fail fast.
	if err := g.Apply(NewBatch()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Apply after poison: %v, want ErrClosed", err)
	}
	if _, err := g.Get([]byte("blk/1")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after poison: %v, want ErrClosed", err)
	}
	g.Close()

	st2, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer st2.Close()
	if st2.TruncatedBytes() == 0 {
		t.Fatal("recovery found no torn frame; fault did not tear")
	}
	// Batches 1 and 2 committed whole; 3 tore; 4 and 5 never reached
	// the store. Exactly the prefix must be visible.
	for h := 1; h <= 2; h++ {
		v, err := st2.Get([]byte(fmt.Sprintf("blk/%d", h)))
		if err != nil || len(v) != 1 || v[0] != byte(h) {
			t.Fatalf("recovered blk/%d = %v, %v", h, v, err)
		}
	}
	for h := 3; h <= 5; h++ {
		if _, err := st2.Get([]byte(fmt.Sprintf("blk/%d", h))); !errors.Is(err, ErrNotFound) {
			t.Fatalf("blk/%d visible after crash mid-group (err=%v); tail was half-applied", h, err)
		}
	}
}

// TestGroupFlushDrainsAndSyncs: Flush must make everything enqueued
// before it durable, and Close must flush the remaining tail.
func TestGroupFlushAndCloseDrain(t *testing.T) {
	dir := t.TempDir()
	inner, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := longGroup(inner)
	put(t, g, "k1", "v1")
	if err := g.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if v, err := inner.Get([]byte("k1")); err != nil || string(v) != "v1" {
		t.Fatalf("inner k1 = %q, %v after Flush", v, err)
	}
	put(t, g, "k2", "v2") // left pending; Close must carry it down
	if err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}

	st2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if v, err := st2.Get([]byte("k2")); err != nil || string(v) != "v2" {
		t.Fatalf("reopened k2 = %q, %v; Close lost the pending tail", v, err)
	}
}

// TestGroupIntervalFlushesWithoutDrain: with a short window the
// committer flushes on its own — no Drain required.
func TestGroupIntervalFlushesWithoutDrain(t *testing.T) {
	inner, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroup(inner, GroupConfig{Interval: time.Millisecond})
	defer g.Close()
	b := NewBatch()
	b.Put([]byte("k"), []byte("v"))
	if err := g.ApplyMarked(b, 7); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.Flushed() != 7 {
		if time.Now().After(deadline) {
			t.Fatalf("watermark never advanced: Flushed() = %d", g.Flushed())
		}
		time.Sleep(time.Millisecond)
	}
	if v, err := inner.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("inner k = %q, %v", v, err)
	}
}
