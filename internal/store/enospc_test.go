package store

import (
	"errors"
	"fmt"
	"strings"
	"syscall"
	"testing"
)

// ENOSPC injection at the physical-I/O seam: the journal write and the
// compaction MANIFEST swap hit a full disk mid-operation and the engine
// must stay consistent.

func TestFileJournalWriteENOSPCFailsApplyCleanly(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer f.Close()
	if err := applyOne(t, f, "pre", "fault"); err != nil {
		t.Fatalf("seed apply: %v", err)
	}
	f.SetDiskHook(DiskHookFunc(func(ev DiskEvent) (int, error) {
		if ev.Op == DiskWrite {
			return 0, syscall.ENOSPC
		}
		return 0, nil
	}))
	err = applyOne(t, f, "k", "v")
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("apply on full disk: %v, want ENOSPC", err)
	}
	if got := Classify(err); got != ClassPersistent {
		t.Fatalf("Classify(ENOSPC) = %v, want persistent", got)
	}
	// The failed batch is fully absent; earlier state still serves.
	if _, err := f.Get([]byte("k")); err != ErrNotFound {
		t.Fatalf("failed batch visible: %v", err)
	}
	if v, err := f.Get([]byte("pre")); err != nil || string(v) != "fault" {
		t.Fatalf("pre-fault key = %q, %v", v, err)
	}
	// Space freed: the same apply goes through.
	f.SetDiskHook(nil)
	if err := applyOne(t, f, "k", "v"); err != nil {
		t.Fatalf("apply after space freed: %v", err)
	}
}

func TestFileManifestSwapENOSPCAbsorbedAndRetried(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	// Churn until the journal is mostly dead bytes, so the next apply
	// meets both compaction triggers once compactMin drops.
	want := make(map[string]string)
	churn := func(rounds, valLen int) {
		for r := 0; r < rounds; r++ {
			for k := 0; k < 8; k++ {
				key := fmt.Sprintf("key/%d", k)
				val := fmt.Sprintf("r%d-%s", r, strings.Repeat("x", valLen))
				if err := applyOne(t, f, key, val); err != nil {
					t.Fatalf("churn apply: %v", err)
				}
				want[key] = val
			}
		}
	}
	churn(40, 60)
	f.SetCompactMin(1)

	// Full disk exactly at the MANIFEST tmp write: the swap fails, the
	// triggering apply must not — by then its commit is durable.
	f.SetDiskHook(DiskHookFunc(func(ev DiskEvent) (int, error) {
		if ev.Op == DiskWriteFile {
			return 0, syscall.ENOSPC
		}
		return 0, nil
	}))
	if err := applyOne(t, f, "trigger", "tock"); err != nil {
		t.Fatalf("apply that triggers compaction: %v", err)
	}
	want["trigger"] = "tock"
	fails, cerr := f.CompactionErr()
	if fails != 1 || !errors.Is(cerr, syscall.ENOSPC) {
		t.Fatalf("CompactionErr = %d, %v; want 1 ENOSPC failure", fails, cerr)
	}
	if got := f.Compactions(); got != 0 {
		t.Fatalf("Compactions = %d after failed swap, want 0", got)
	}

	// Space freed: the retry is deferred until the journal grows
	// another compactRetryStep, then must succeed.
	f.SetDiskHook(nil)
	churn(9, 4<<10)
	if got := f.Compactions(); got != 1 {
		t.Fatalf("Compactions = %d after retry, want 1 (journal %d bytes)",
			got, f.JournalBytes())
	}
	if _, cerr := f.CompactionErr(); cerr != nil {
		t.Fatalf("CompactionErr after successful retry: %v", cerr)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	f2, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer f2.Close()
	for k, v := range want {
		got, err := f2.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("recovered %s = %q, %v; want %q", k, got, err, v)
		}
	}
}
