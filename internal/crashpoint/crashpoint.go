// Package crashpoint is the systematic crash-state explorer: it records
// every physical operation a storage engine issues during a commit
// window and rebuilds the on-disk state a crash at each operation
// boundary would leave, so a test can assert full recovery from every
// one of them — exhaustively, not by sampling.
//
// The crash model is a process kill against an orderly kernel: every
// write issued before the crash point is on disk, in issue order, and
// nothing after it is. On top of the clean boundaries the explorer adds
// torn variants — the final write cut short at 1, len/2 and len-1
// bytes — which is the state an actual power cut leaves when it lands
// inside a write. Reordering of unsynced writes is not modeled; the
// engines under test issue their ordering-critical operations (new
// generation content before the manifest rename, journal frames before
// their fsync) through separate syscalls, which this model does cover.
package crashpoint

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"typecoin/internal/store"
)

// Event is one recorded physical operation.
type Event struct {
	Op   store.DiskOp
	Name string // file base name within the data directory
	Off  int64  // DiskWrite: write offset
	Data []byte // DiskWrite, DiskWriteFile: payload (copied)
	To   string // DiskRename: destination base name
}

// String describes the event for failure messages.
func (e Event) String() string {
	switch e.Op {
	case store.DiskWrite:
		return fmt.Sprintf("write %s@%d len=%d", e.Name, e.Off, len(e.Data))
	case store.DiskSync:
		return fmt.Sprintf("fsync %s", e.Name)
	case store.DiskWriteFile:
		return fmt.Sprintf("writefile %s len=%d", e.Name, len(e.Data))
	case store.DiskRename:
		return fmt.Sprintf("rename %s -> %s", e.Name, e.To)
	case store.DiskRemove:
		return fmt.Sprintf("remove %s", e.Name)
	}
	return fmt.Sprintf("op %d on %s", e.Op, e.Name)
}

// Recorder is a store.DiskHook that logs every physical operation while
// letting each proceed unchanged. Attach with (*store.File).SetDiskHook
// around the commit window under test.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// Disk implements store.DiskHook.
func (r *Recorder) Disk(ev store.DiskEvent) (int, error) {
	e := Event{Op: ev.Op, Name: ev.Name, Off: ev.Off, To: ev.To}
	if ev.Data != nil {
		e.Data = append([]byte(nil), ev.Data...)
	}
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
	return 0, nil
}

// Events returns a copy of everything recorded so far.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Reset discards the recorded events.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.events = nil
	r.mu.Unlock()
}

// Snapshot copies every regular file directly under src into dst,
// creating dst. It captures the pre-window state a crash replay starts
// from.
func Snapshot(dst, src string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, cerr := io.Copy(out, in)
		in.Close()
		if werr := out.Close(); cerr == nil {
			cerr = werr
		}
		if cerr != nil {
			return cerr
		}
	}
	return nil
}

// Point is one crash state in the exploration matrix: the first N
// events fully applied, plus — when Tear >= 0 — the first Tear bytes of
// event N.
type Point struct {
	N    int
	Tear int // -1 for a clean operation boundary
}

// Desc describes the point against its event log.
func (p Point) Desc(events []Event) string {
	if p.Tear >= 0 {
		return fmt.Sprintf("after %d/%d ops, then %d bytes of [%s]",
			p.N, len(events), p.Tear, events[p.N])
	}
	if p.N == 0 {
		return fmt.Sprintf("before any of %d ops", len(events))
	}
	return fmt.Sprintf("after %d/%d ops, last [%s]", p.N, len(events), events[p.N-1])
}

// Points enumerates the full crash matrix for an event log: every clean
// boundary from 0 through len(events), plus the torn variants of every
// payload-carrying operation.
func Points(events []Event) []Point {
	var pts []Point
	for n := 0; n <= len(events); n++ {
		pts = append(pts, Point{N: n, Tear: -1})
		if n == len(events) {
			break
		}
		e := events[n]
		if (e.Op != store.DiskWrite && e.Op != store.DiskWriteFile) || len(e.Data) < 2 {
			continue
		}
		seen := map[int]bool{}
		for _, cut := range []int{1, len(e.Data) / 2, len(e.Data) - 1} {
			if cut <= 0 || cut >= len(e.Data) || seen[cut] {
				continue
			}
			seen[cut] = true
			pts = append(pts, Point{N: n, Tear: cut})
		}
	}
	return pts
}

// Materialize applies the crash state p to dir, which must hold the
// pre-window Snapshot.
func Materialize(dir string, events []Event, p Point) error {
	for i := 0; i < p.N; i++ {
		if err := applyEvent(dir, events[i], -1); err != nil {
			return fmt.Errorf("applying op %d [%s]: %w", i, events[i], err)
		}
	}
	if p.Tear >= 0 {
		if err := applyEvent(dir, events[p.N], p.Tear); err != nil {
			return fmt.Errorf("tearing op %d [%s] at %d: %w", p.N, events[p.N], p.Tear, err)
		}
	}
	return nil
}

// applyEvent replays one physical operation onto dir. cut >= 0 limits a
// write's payload to its first cut bytes (the torn variant).
func applyEvent(dir string, e Event, cut int) error {
	path := filepath.Join(dir, e.Name)
	data := e.Data
	if cut >= 0 && cut < len(data) {
		data = data[:cut]
	}
	switch e.Op {
	case store.DiskWrite:
		fh, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		_, werr := fh.WriteAt(data, e.Off)
		if cerr := fh.Close(); werr == nil {
			werr = cerr
		}
		return werr
	case store.DiskSync:
		return nil // durability, not content: a no-op for replay
	case store.DiskWriteFile:
		return os.WriteFile(path, data, 0o644)
	case store.DiskRename:
		return os.Rename(path, filepath.Join(dir, e.To))
	case store.DiskRemove:
		err := os.Remove(path)
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	return fmt.Errorf("crashpoint: unknown disk op %d", e.Op)
}

// Explore materializes every crash state of events under scratch — one
// fresh directory per point, seeded from snapshot — and calls check on
// it. It returns the number of states visited. The first failure stops
// the run with the point's description attached, leaving that state's
// directory behind for inspection; passing states are removed as it
// goes.
func Explore(scratch, snapshot string, events []Event, check func(dir string, p Point) error) (int, error) {
	pts := Points(events)
	for i, p := range pts {
		dir := filepath.Join(scratch, fmt.Sprintf("crash-%04d", i))
		if err := Snapshot(dir, snapshot); err != nil {
			return i, err
		}
		if err := Materialize(dir, events, p); err != nil {
			return i, err
		}
		if err := check(dir, p); err != nil {
			return i, fmt.Errorf("crash state %d/%d (%s): %w", i, len(pts), p.Desc(events), err)
		}
		os.RemoveAll(dir)
	}
	return len(pts), nil
}
