package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// engines returns a fresh instance of each engine, and of each wrapper
// that forwards the seek, for contract tests.
func engines(t *testing.T) map[string]Store {
	t.Helper()
	openFile := func() *File {
		f, err := OpenFile(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	all := map[string]Store{
		"mem":         NewMem(),
		"file":        openFile(),
		"retry(file)": NewRetry(openFile(), RetryConfig{}),
	}
	for _, st := range all {
		st := st
		t.Cleanup(func() { st.Close() })
	}
	return all
}

func TestStoreContract(t *testing.T) {
	for name, st := range engines(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := st.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get missing: %v", err)
			}
			b := NewBatch()
			b.Put([]byte("a1"), []byte("v1"))
			b.Put([]byte("a2"), []byte("v2"))
			b.Put([]byte("b1"), []byte("v3"))
			b.Delete([]byte("never-existed"))
			if err := st.Apply(b); err != nil {
				t.Fatal(err)
			}
			v, err := st.Get([]byte("a2"))
			if err != nil || string(v) != "v2" {
				t.Fatalf("Get a2 = %q, %v", v, err)
			}
			ok, err := st.Has([]byte("b1"))
			if err != nil || !ok {
				t.Fatalf("Has b1 = %v, %v", ok, err)
			}

			// Overwrite and delete in one batch.
			b2 := NewBatch()
			b2.Put([]byte("a1"), []byte("v1b"))
			b2.Delete([]byte("b1"))
			if err := st.Apply(b2); err != nil {
				t.Fatal(err)
			}
			if v, _ := st.Get([]byte("a1")); string(v) != "v1b" {
				t.Fatalf("overwrite lost: %q", v)
			}
			if ok, _ := st.Has([]byte("b1")); ok {
				t.Fatal("b1 survived delete")
			}

			// Prefix iteration in ascending order.
			var got []string
			err = st.Iterate([]byte("a"), func(k, v []byte) error {
				got = append(got, string(k)+"="+string(v))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"a1=v1b", "a2=v2"}
			if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("Iterate = %v, want %v", got, want)
			}

			// Iteration error propagates.
			sentinel := errors.New("stop")
			if err := st.Iterate(nil, func(k, v []byte) error { return sentinel }); !errors.Is(err, sentinel) {
				t.Fatalf("Iterate error = %v", err)
			}

			// Block log round trip.
			blob := bytes.Repeat([]byte{0xab}, 1000)
			ref, err := st.AppendBlock(blob)
			if err != nil {
				t.Fatal(err)
			}
			back, err := st.ReadBlock(ref)
			if err != nil || !bytes.Equal(back, blob) {
				t.Fatalf("ReadBlock mismatch: %v", err)
			}
			if _, err := st.ReadBlock(BlockRef{Offset: ref.Offset + 1, Len: ref.Len}); err == nil {
				t.Fatal("ReadBlock at bogus offset succeeded")
			}
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
			testIterateFromContract(t, st)
		})
	}
}

// testIterateFromContract pins the seek: where a scan starts for every
// position of start relative to the prefix, that fn sees a snapshot it
// may mutate the store under, and that fn's error stops the scan.
func testIterateFromContract(t *testing.T, st Store) {
	// Half the rows are flushed and half are not: a seek must not care
	// whether its rows have reached stable storage.
	b := NewBatch()
	b.Put([]byte("o/z"), []byte("below"))
	b.Put([]byte("p/a"), []byte("1"))
	b.Put([]byte("p/e"), []byte("3"))
	if err := st.Apply(b); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	b = NewBatch()
	b.Put([]byte("p/c"), []byte("2"))
	b.Put([]byte("q/a"), []byte("above"))
	if err := st.Apply(b); err != nil {
		t.Fatal(err)
	}

	scan := func(prefix, start string) string {
		t.Helper()
		var got []string
		err := IterateFrom(st, []byte(prefix), []byte(start), func(k, v []byte) error {
			got = append(got, string(k)+"="+string(v))
			return nil
		})
		if err != nil {
			t.Fatalf("IterateFrom(%q, %q): %v", prefix, start, err)
		}
		return strings.Join(got, " ")
	}
	const all = "p/a=1 p/c=2 p/e=3"
	for _, tc := range []struct{ name, prefix, start, want string }{
		{"start == prefix", "p/", "p/", all},
		{"start on a key", "p/", "p/c", "p/c=2 p/e=3"},
		{"start between keys", "p/", "p/b", "p/c=2 p/e=3"},
		{"start below the prefix", "p/", "o", all},
		{"start empty", "p/", "", all},
		{"start past the last key", "p/", "p/f", ""},
		{"start past the prefix", "p/", "q", ""},
		{"empty prefix", "", "p/c", "p/c=2 p/e=3 q/a=above"},
		{"prefix with no rows", "p/d", "p/d", ""},
	} {
		if got := scan(tc.prefix, tc.start); got != tc.want {
			t.Errorf("%s: IterateFrom(%q, %q) = [%s], want [%s]", tc.name, tc.prefix, tc.start, got, tc.want)
		}
	}

	// fn reads and writes the store it is scanning: the scan keeps
	// yielding the rows as they were when it began.
	var got []string
	err := IterateFrom(st, []byte("p/"), []byte("p/a"), func(k, v []byte) error {
		got = append(got, string(k))
		if v, err := st.Get([]byte("p/e")); len(got) == 1 && (err != nil || string(v) != "3") {
			return fmt.Errorf("Get mid-scan = %q, %v", v, err)
		}
		m := NewBatch()
		m.Delete([]byte("p/e"))
		m.Put([]byte("p/d"), []byte("new"))
		return st.Apply(m)
	})
	if err != nil || strings.Join(got, " ") != "p/a p/c p/e" {
		t.Fatalf("mutating scan visited %v, err %v; want the snapshot p/a p/c p/e", got, err)
	}
	if got := scan("p/", "p/b"); got != "p/c=2 p/d=new" {
		t.Fatalf("scan after the mutating scan = [%s]", got)
	}

	// fn's error stops the scan after exactly the rows it accepted.
	stop := errors.New("stop")
	visited := 0
	err = IterateFrom(st, []byte("p/"), nil, func(k, v []byte) error {
		if visited++; visited == 2 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || visited != 2 {
		t.Fatalf("early stop: visited %d rows, err %v; want 2 rows and the sentinel", visited, err)
	}
}

func TestStoreClosedErrors(t *testing.T) {
	for name, st := range engines(t) {
		t.Run(name, func(t *testing.T) {
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Get([]byte("k")); !errors.Is(err, ErrClosed) {
				t.Fatalf("Get after close: %v", err)
			}
			if err := st.Apply(NewBatch()); !errors.Is(err, ErrClosed) {
				t.Fatalf("Apply after close: %v", err)
			}
		})
	}
}

// fillBatch writes n keyed pairs under prefix in one batch.
func fillBatch(t *testing.T, st Store, prefix string, n int) {
	t.Helper()
	b := NewBatch()
	for i := 0; i < n; i++ {
		b.Put([]byte(fmt.Sprintf("%s%04d", prefix, i)), []byte(fmt.Sprintf("val-%d", i)))
	}
	if err := st.Apply(b); err != nil {
		t.Fatal(err)
	}
}

func TestFileReopenPreservesState(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	fillBatch(t, st, "k", 100)
	ref, err := st.AppendBlock([]byte("block body"))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch()
	b.Delete([]byte("k0042"))
	if err := st.Apply(b); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.TruncatedBytes() != 0 {
		t.Fatalf("clean close reported %d torn bytes", st2.TruncatedBytes())
	}
	if v, _ := st2.Get([]byte("k0007")); string(v) != "val-7" {
		t.Fatalf("k0007 = %q after reopen", v)
	}
	if ok, _ := st2.Has([]byte("k0042")); ok {
		t.Fatal("deleted key resurrected by reopen")
	}
	if back, err := st2.ReadBlock(ref); err != nil || string(back) != "block body" {
		t.Fatalf("block after reopen: %q, %v", back, err)
	}
}

func TestFileTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	fillBatch(t, st, "good", 10)
	st.Close()

	// Simulate a crash mid-batch: append half a frame to the journal.
	logPath := filepath.Join(dir, "kv-1.log")
	full := appendFrame(nil, encodeBatchPayload(func() *Batch {
		b := NewBatch()
		b.Put([]byte("torn-key"), []byte("torn-value"))
		return b
	}()))
	lf, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lf.Write(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	lf.Close()

	st2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.TruncatedBytes() != int64(len(full)/2) {
		t.Fatalf("TruncatedBytes = %d, want %d", st2.TruncatedBytes(), len(full)/2)
	}
	if ok, _ := st2.Has([]byte("torn-key")); ok {
		t.Fatal("torn batch became visible")
	}
	if v, _ := st2.Get([]byte("good0003")); string(v) != "val-3" {
		t.Fatalf("committed data lost with the tail: %q", v)
	}
	// The file must have been physically truncated so new appends start
	// at a clean frame boundary.
	b := NewBatch()
	b.Put([]byte("after"), []byte("crash"))
	if err := st2.Apply(b); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if v, _ := st3.Get([]byte("after")); string(v) != "crash" {
		t.Fatalf("post-crash append lost: %q", v)
	}
}

func TestFileCrashNextApplyTearsFrame(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	fillBatch(t, st, "pre", 5)
	st.CrashNextApply(9) // header plus one payload byte
	b := NewBatch()
	b.Put([]byte("doomed"), []byte("batch"))
	if err := st.Apply(b); !errors.Is(err, ErrClosed) {
		t.Fatalf("crashing apply: %v", err)
	}
	if _, err := st.Get([]byte("pre0001")); !errors.Is(err, ErrClosed) {
		t.Fatalf("store not poisoned: %v", err)
	}

	st2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.TruncatedBytes() == 0 {
		t.Fatal("no torn bytes recovered")
	}
	if ok, _ := st2.Has([]byte("doomed")); ok {
		t.Fatal("torn batch visible after recovery")
	}
	if v, _ := st2.Get([]byte("pre0001")); string(v) != "val-1" {
		t.Fatalf("pre-crash data lost: %q", v)
	}
}

func TestFileCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.SetCompactMin(1024)
	// Overwrite one key many times: almost all journal bytes are dead.
	val := bytes.Repeat([]byte{'x'}, 64)
	for i := 0; i < 200; i++ {
		b := NewBatch()
		b.Put([]byte("hot"), append(val, byte(i)))
		b.Put([]byte(fmt.Sprintf("cold%02d", i%4)), []byte("v"))
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if st.gen == 1 {
		t.Fatal("compaction never triggered")
	}
	// The live generation should be small.
	entries, _ := os.ReadDir(dir)
	var logs int
	for _, e := range entries {
		if len(e.Name()) > 3 && e.Name()[:3] == "kv-" {
			logs++
		}
	}
	if logs != 1 {
		t.Fatalf("found %d kv logs after compaction, want 1", logs)
	}
	st.Close()

	st2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	want := append(val, byte(199))
	if v, _ := st2.Get([]byte("hot")); !bytes.Equal(v, want) {
		t.Fatalf("hot key lost by compaction: %q", v)
	}
	if ok, _ := st2.Has([]byte("cold03")); !ok {
		t.Fatal("cold key lost by compaction")
	}
}

func TestFileStaleGenerationSwept(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	fillBatch(t, st, "k", 3)
	st.Close()
	// A compaction that crashed after writing the next generation but
	// before the manifest swap leaves an orphan log.
	if err := os.WriteFile(filepath.Join(dir, "kv-9.log"), []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if v, _ := st2.Get([]byte("k0001")); string(v) != "val-1" {
		t.Fatalf("live generation lost: %q", v)
	}
	if _, err := os.Stat(filepath.Join(dir, "kv-9.log")); !os.IsNotExist(err) {
		t.Fatal("stale generation not swept")
	}
}

func TestFaultWrapperKillsNthApply(t *testing.T) {
	dir := t.TempDir()
	inner, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := NewFaultEngine(inner, 0)
	st.Inject(FaultRule{Op: OpApply, Kind: KindKill,
		Mode: ModeOneShot, After: 2, TearBytes: 10})
	for i := 0; i < 2; i++ {
		b := NewBatch()
		b.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
		if err := st.Apply(b); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	b := NewBatch()
	b.Put([]byte("k2"), []byte("v"))
	if err := st.Apply(b); !errors.Is(err, ErrClosed) {
		t.Fatalf("third apply should die: %v", err)
	}
	if _, err := st.Get([]byte("k0")); !errors.Is(err, ErrClosed) {
		t.Fatalf("wrapper not dead after fault: %v", err)
	}
	st.Close()

	st2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.TruncatedBytes() == 0 {
		t.Fatal("expected torn bytes from the teared apply")
	}
	if ok, _ := st2.Has([]byte("k1")); !ok {
		t.Fatal("committed batch lost")
	}
	if ok, _ := st2.Has([]byte("k2")); ok {
		t.Fatal("killed batch visible")
	}
}

func TestMemAndFileAgree(t *testing.T) {
	dir := t.TempDir()
	file, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	mem := NewMem()
	// A deterministic mixed workload applied to both engines must yield
	// identical iteration results, from the start and from any seek.
	for round := 0; round < 50; round++ {
		b1, b2 := NewBatch(), NewBatch()
		for j := 0; j < 8; j++ {
			k := []byte(fmt.Sprintf("key-%02d", (round*7+j*13)%40))
			if (round+j)%5 == 0 {
				b1.Delete(k)
				b2.Delete(k)
			} else {
				v := []byte(fmt.Sprintf("val-%d-%d", round, j))
				b1.Put(k, v)
				b2.Put(k, v)
			}
		}
		if err := file.Apply(b1); err != nil {
			t.Fatal(err)
		}
		if err := mem.Apply(b2); err != nil {
			t.Fatal(err)
		}
	}
	dump := func(st Store, prefix, start string) []string {
		var out []string
		IterateFrom(st, []byte(prefix), []byte(start), func(k, v []byte) error {
			out = append(out, string(k)+"="+string(v))
			return nil
		})
		return out
	}
	agree := func(when string, file Store) {
		t.Helper()
		rng := rand.New(rand.NewSource(16))
		for i := 0; i < 64; i++ {
			prefix, start := "", ""
			if i > 0 {
				// Starts land on live keys, on deleted ones, past both ends
				// of the key space and, truncated, between keys.
				prefix = "key-"[:rng.Intn(5)]
				start = fmt.Sprintf("key-%02d", rng.Intn(44)-2)
				if rng.Intn(3) == 0 {
					start = start[:rng.Intn(len(start))]
				}
			}
			fd, md := dump(file, prefix, start), dump(mem, prefix, start)
			if len(fd) != len(md) {
				t.Fatalf("%s: IterateFrom(%q, %q): file %d keys, mem %d keys", when, prefix, start, len(fd), len(md))
			}
			for j := range fd {
				if fd[j] != md[j] {
					t.Fatalf("%s: IterateFrom(%q, %q) diverges at %d: %q vs %q", when, prefix, start, j, fd[j], md[j])
				}
			}
		}
	}
	if len(dump(mem, "", "")) == 0 {
		t.Fatal("workload left no rows to compare")
	}
	agree("after the mixed rounds", file)

	// The same state must come back from a compacted generation.
	file.mu.Lock()
	err = file.compactLocked()
	file.mu.Unlock()
	if err != nil {
		t.Fatalf("forced compaction: %v", err)
	}
	agree("after compaction", file)
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.gen != 2 {
		t.Fatalf("reopened generation %d, want the compacted generation 2", reopened.gen)
	}
	agree("after compaction and reopen", reopened)
}
