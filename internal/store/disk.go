package store

// The physical-I/O seam of the file engine. Every mutation File issues
// against the filesystem between Open and Close — journal and block-log
// writes, fsyncs, the manifest tmp-write/rename dance of compaction —
// passes through an optional DiskHook first. Two consumers exist:
//
//   - the crash-point explorer (internal/crashpoint) records the event
//     stream of a commit window and replays every prefix into a fresh
//     directory, proving recovery at every write/fsync boundary rather
//     than at one hand-picked tear;
//   - fault-injection tests fail chosen physical ops (ENOSPC on the
//     journal write, EIO on the manifest swap) to exercise the
//     degradation paths.
//
// The hook is nil in production; the engine pays one nil check per
// physical op, which is noise against the syscall it guards.

// DiskOp names a class of physical filesystem operation.
type DiskOp uint8

const (
	// DiskWrite is a positioned write of Data at Off into Name.
	DiskWrite DiskOp = iota
	// DiskSync is an fsync of Name.
	DiskSync
	// DiskWriteFile creates/replaces Name with Data (the manifest tmp).
	DiskWriteFile
	// DiskRename atomically renames Name to To.
	DiskRename
	// DiskRemove unlinks Name.
	DiskRemove
)

// String names the op for logs and crash-point labels.
func (o DiskOp) String() string {
	switch o {
	case DiskWrite:
		return "write"
	case DiskSync:
		return "sync"
	case DiskWriteFile:
		return "writefile"
	case DiskRename:
		return "rename"
	case DiskRemove:
		return "remove"
	}
	return "unknown"
}

// DiskEvent describes one physical operation the file engine is about
// to issue. Name (and To) are base names within the store directory,
// so a recorded stream replays into any directory.
type DiskEvent struct {
	Op   DiskOp
	Name string
	Off  int64  // DiskWrite
	Data []byte // DiskWrite, DiskWriteFile; aliased, copy to retain
	To   string // DiskRename
}

// DiskHook intercepts a physical operation before it happens.
// Returning a nil error lets the op proceed in full (n is ignored).
// Returning a non-nil error fails the op: for DiskWrite the engine
// first writes Data[:n] — a short write, exactly what a full or dying
// device leaves — and for every other op nothing is done. The hook is
// called with the engine lock held; it must not call back into the
// store.
type DiskHook interface {
	Disk(ev DiskEvent) (n int, err error)
}

// DiskHookFunc adapts a function to the DiskHook interface.
type DiskHookFunc func(ev DiskEvent) (int, error)

// Disk implements DiskHook.
func (f DiskHookFunc) Disk(ev DiskEvent) (int, error) { return f(ev) }

// SetDiskHook installs (or, with nil, removes) the physical-I/O hook.
// Not for production use: the hook serializes under the engine lock.
func (f *File) SetDiskHook(h DiskHook) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hook = h
}

// hookedWriteAt routes one positioned write through the hook. On a
// hook-injected failure the declared prefix is still written, modeling
// a short write.
func (f *File) hookedWriteAt(file writerAt, name string, p []byte, off int64) error {
	if f.hook != nil {
		n, err := f.hook.Disk(DiskEvent{Op: DiskWrite, Name: name, Off: off, Data: p})
		if err != nil {
			if n > 0 {
				if n > len(p) {
					n = len(p)
				}
				file.WriteAt(p[:n], off)
			}
			return err
		}
	}
	_, err := file.WriteAt(p, off)
	return err
}

// writerAt is the slice of *os.File the hooked write path needs.
type writerAt interface {
	WriteAt(p []byte, off int64) (int, error)
}

// hookedSync routes an fsync through the hook.
func (f *File) hookedSync(file interface{ Sync() error }, name string) error {
	if f.hook != nil {
		if _, err := f.hook.Disk(DiskEvent{Op: DiskSync, Name: name}); err != nil {
			return err
		}
	}
	return file.Sync()
}
