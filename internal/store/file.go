package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// File is the durable engine: a log-structured KV plus an append-only
// block log, stdlib only.
//
// Directory layout:
//
//	MANIFEST      names the live KV generation (atomic tmp+rename swap)
//	kv-<gen>.log  the KV journal: one CRC frame per applied batch
//	blocks.dat    append-only CRC-framed block bodies
//
// The journal doubles as the write-ahead log: Apply appends exactly one
// frame, so a batch is either fully on disk or detectably torn. Open
// replays the journal into memory, truncating a torn or corrupt tail —
// that is the whole crash-recovery story for the KV. Compaction rewrites
// the live pairs as a single snapshot frame into the next generation and
// swings MANIFEST over with an atomic rename; a crash anywhere in that
// sequence leaves either the old or the new generation live, never a
// mix, and stray generations are swept on Open.
//
// The working set (current key -> value) stays resident, as in any
// log-structured store with an in-memory index; values here are small
// (UTXO entries, refs, journal rows) and bulk data lives in blocks.dat,
// reached through BlockRef values.
type File struct {
	mu  sync.Mutex
	dir string

	gen     uint64
	log     *os.File
	logSize int64
	// logCap is the allocated size of the journal file, grown ahead of
	// logSize in chunks so appends rarely extend the file. The gap past
	// logSize is zeros; replay treats it as a torn tail, and Close and
	// compaction truncate it away.
	logCap int64

	// scratch is the reusable frame-encoding buffer: Apply re-encodes
	// every record, and without reuse that is two allocations per batch
	// plus a payload copy (the dominant share of the ~28k allocs/op the
	// persistent connect bench used to show).
	scratch []byte

	blocks     *os.File
	blocksSize int64

	// tab is the resident working set; its liveBytes feeds the
	// compaction trigger.
	tab *table

	// compactMin is the journal size below which compaction never
	// triggers; compaction fires when the journal exceeds it and holds
	// less than 1/4 live data.
	compactMin int64

	syncEvery bool // fsync the journal on every Apply

	// crashBytes, when >= 0, makes the next Apply write only that many
	// bytes of the frame and then poison the store — a torn write, as a
	// kill mid-write would leave. Test hook; see CrashNextApply.
	crashBytes int

	// tearNext, when >= 0, makes the next Apply write only that many
	// bytes of the frame and fail with a transient ErrIO — a short
	// write the device survives, unlike crashBytes' fatal tear. The
	// store stays usable; the garbage past logSize is overwritten by
	// the next successful append or truncated on close. See
	// TearNextApply.
	tearNext int

	// hook, when non-nil, observes (and may fail) every physical
	// filesystem operation. See disk.go.
	hook DiskHook

	// compactRetrySize defers compaction retries after a failure until
	// the journal grows past it, so a full disk does not pay a failed
	// snapshot rewrite on every commit.
	compactRetrySize int64
	compactErrs      uint64
	lastCompactErr   error

	// truncatedBytes records how many trailing journal bytes Open
	// discarded as torn.
	truncatedBytes int64

	// compactions counts journal compactions since Open, for telemetry.
	compactions uint64

	closed bool
}

const (
	manifestName   = "MANIFEST"
	blocksName     = "blocks.dat"
	manifestHeader = "typecoin-store v1"

	defaultCompactMin = 1 << 20

	// journalPreallocChunk is how far past the current tail the journal
	// file is extended when an append outgrows it.
	journalPreallocChunk = 256 << 10
)

// OpenFile opens (creating if needed) the store rooted at dir and
// replays its journal. A torn tail — the signature of a crash mid-batch
// — is truncated and reported via TruncatedBytes.
func OpenFile(dir string) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &File{
		dir:        dir,
		tab:        newTable(),
		compactMin: defaultCompactMin,
		crashBytes: -1,
		tearNext:   -1,
	}
	gen, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if gen == 0 {
		// Fresh directory (or one that crashed before its first
		// manifest write): start generation 1. Stray logs from such a
		// crash are removed by the sweep below.
		gen = 1
	}
	f.gen = gen
	f.sweepStaleGenerations()

	logPath := f.logPath(f.gen)
	f.log, err = os.OpenFile(logPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.replayJournal(); err != nil {
		f.log.Close()
		return nil, err
	}
	if err := writeManifest(dir, f.gen); err != nil {
		f.log.Close()
		return nil, err
	}

	f.blocks, err = os.OpenFile(filepath.Join(dir, blocksName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		f.log.Close()
		return nil, err
	}
	st, err := f.blocks.Stat()
	if err != nil {
		f.log.Close()
		f.blocks.Close()
		return nil, err
	}
	f.blocksSize = st.Size()
	return f, nil
}

func (f *File) logPath(gen uint64) string {
	return filepath.Join(f.dir, fmt.Sprintf("kv-%d.log", gen))
}

// readManifest returns the generation named by MANIFEST, or 0 when the
// manifest does not exist.
func readManifest(dir string) (uint64, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != manifestHeader {
		return 0, fmt.Errorf("%w: bad manifest", ErrCorrupt)
	}
	var gen uint64
	if _, err := fmt.Sscanf(lines[1], "gen %d", &gen); err != nil || gen == 0 {
		return 0, fmt.Errorf("%w: bad manifest generation line %q", ErrCorrupt, lines[1])
	}
	return gen, nil
}

// writeManifest atomically installs gen as the live generation.
func writeManifest(dir string, gen uint64) error {
	tmp := filepath.Join(dir, manifestName+".tmp")
	content := fmt.Sprintf("%s\ngen %d\n", manifestHeader, gen)
	if err := os.WriteFile(tmp, []byte(content), 0o644); err != nil {
		return err
	}
	// Make the content durable before the rename makes it visible.
	if tf, err := os.OpenFile(tmp, os.O_RDWR, 0); err == nil {
		tf.Sync()
		tf.Close()
	}
	return os.Rename(tmp, filepath.Join(dir, manifestName))
}

// sweepStaleGenerations removes KV logs other than the live generation:
// leftovers of a compaction that crashed on either side of the manifest
// swap.
func (f *File) sweepStaleGenerations() {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		var gen uint64
		if _, err := fmt.Sscanf(e.Name(), "kv-%d.log", &gen); err == nil && gen != f.gen {
			os.Remove(filepath.Join(f.dir, e.Name()))
		}
	}
	os.Remove(filepath.Join(f.dir, manifestName+".tmp"))
}

// replayJournal loads every committed batch of the live journal into the
// in-memory table, truncating the file at the first torn or corrupt
// frame.
func (f *File) replayJournal() error {
	raw, err := io.ReadAll(f.log)
	if err != nil {
		return err
	}
	off := 0
	for off < len(raw) {
		payload, n, err := readFrame(raw[off:])
		if err != nil {
			break // torn tail: everything before off is committed
		}
		ops, err := decodeBatchPayload(payload)
		if err != nil {
			break
		}
		f.tab.apply(ops)
		off += n
	}
	f.truncatedBytes = int64(len(raw) - off)
	if f.truncatedBytes > 0 {
		if err := f.log.Truncate(int64(off)); err != nil {
			return err
		}
	}
	f.logSize = int64(off)
	f.logCap = int64(off)
	return nil
}

// TruncatedBytes reports how many trailing journal bytes the last Open
// discarded as torn — nonzero exactly when the previous process died
// mid-batch.
func (f *File) TruncatedBytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.truncatedBytes
}

// SetSyncEvery makes every Apply fsync the journal (power-loss
// durability per batch) instead of only on Flush/Close. Default off:
// a process kill never loses OS-buffered writes, and the daemon flushes
// on shutdown.
func (f *File) SetSyncEvery(sync bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncEvery = sync
}

// SetCompactMin overrides the minimum journal size for compaction
// (testing knob).
func (f *File) SetCompactMin(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.compactMin = n
}

// CrashNextApply arms the torn-write fault: the next Apply writes only
// the first n bytes of its frame to the journal, then fails with
// ErrClosed and poisons the store — exactly the on-disk state a SIGKILL
// mid-write leaves behind. Reopening the directory recovers.
func (f *File) CrashNextApply(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashBytes = n
}

// TearNextApply arms the transient short-write fault: the next Apply
// writes only the first n bytes of its frame and fails with ErrIO, but
// the store survives — the journal tail is not advanced, so the next
// successful append overwrites the partial frame, and a crash before
// that is recovered as an ordinary torn tail.
func (f *File) TearNextApply(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tearNext = n
}

// Get implements Store.
func (f *File) Get(key []byte) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	v, ok := f.tab.get(key)
	if !ok {
		return nil, ErrNotFound
	}
	return append([]byte(nil), v...), nil
}

// Has implements Store.
func (f *File) Has(key []byte) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return false, ErrClosed
	}
	_, ok := f.tab.get(key)
	return ok, nil
}

// Iterate implements Store.
func (f *File) Iterate(prefix []byte, fn func(key, value []byte) error) error {
	return f.IterateFrom(prefix, prefix, fn)
}

// IterateFrom is the seek form of Iterate: only keys >= start within
// the prefix are snapshotted and visited.
func (f *File) IterateFrom(prefix, start []byte, fn func(key, value []byte) error) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	pairs := f.tab.scan(prefix, start)
	f.mu.Unlock()
	return visit(pairs, fn)
}

// Apply implements Store: encode the batch as one frame, append it to
// the journal, then fold it into the resident table.
func (f *File) Apply(b *Batch) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	f.scratch = appendBatchFrame(f.scratch[:0], b)
	if err := f.writeFrameLocked(f.scratch); err != nil {
		return err
	}
	f.tab.apply(b.ops)
	f.maybeCompactLocked()
	return nil
}

// maybeCompactLocked compacts when the journal merits it, absorbing
// failures: by the time compaction runs the commit is already durable,
// so a failed snapshot rewrite (full disk mid-swap) must not fail the
// Apply that triggered it. The attempt is deferred until the journal
// grows another preallocation chunk, and the error is kept for
// telemetry (CompactionErr).
func (f *File) maybeCompactLocked() {
	if f.logSize <= f.compactMin || f.tab.liveBytes*4 >= f.logSize {
		return
	}
	if f.compactRetrySize > 0 && f.logSize < f.compactRetrySize {
		return
	}
	if err := f.compactLocked(); err != nil {
		f.compactErrs++
		f.lastCompactErr = err
		f.compactRetrySize = f.logSize + journalPreallocChunk
		return
	}
	f.compactRetrySize = 0
	f.lastCompactErr = nil
}

// CompactionErr reports how many compaction attempts have failed since
// Open and the most recent failure (nil when the last attempt worked).
func (f *File) CompactionErr() (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.compactErrs, f.lastCompactErr
}

// writeFrameLocked appends an encoded batch frame to the journal,
// preallocating capacity ahead of the tail and honoring the armed crash
// fault and the per-apply fsync policy. Caller holds f.mu.
func (f *File) writeFrameLocked(frame []byte) error {
	if f.crashBytes >= 0 {
		n := f.crashBytes
		if n > len(frame) {
			n = len(frame)
		}
		f.log.WriteAt(frame[:n], f.logSize)
		f.closed = true // poisoned: the "process" is dead
		return fmt.Errorf("%w: injected crash mid-batch", ErrClosed)
	}
	if f.tearNext >= 0 {
		n := f.tearNext
		f.tearNext = -1
		if n > len(frame) {
			n = len(frame)
		}
		f.log.WriteAt(frame[:n], f.logSize)
		// logSize stays put: the partial frame is garbage past the tail,
		// overwritten by the next append or discarded by replay.
		return fmt.Errorf("%w: short write (%d of %d bytes)", ErrIO, n, len(frame))
	}
	end := f.logSize + int64(len(frame))
	if end > f.logCap {
		grown := end + journalPreallocChunk
		if f.hookedTruncate(f.log, f.kvName(), grown) == nil {
			f.logCap = grown
		} else {
			f.logCap = end // WriteAt below extends the file itself
		}
	}
	if err := f.hookedWriteAt(f.log, f.kvName(), frame, f.logSize); err != nil {
		return err
	}
	f.logSize = end
	if f.syncEvery {
		return f.hookedSync(f.log, f.kvName())
	}
	return nil
}

// kvName is the base name of the live journal file.
func (f *File) kvName() string { return fmt.Sprintf("kv-%d.log", f.gen) }

// compactLocked rewrites the live pairs as one snapshot frame in the
// next generation and atomically swings the manifest over.
func (f *File) compactLocked() error {
	snap := &Batch{}
	for _, kv := range f.tab.scan(nil, nil) {
		snap.ops = append(snap.ops, op{key: kv[0], value: kv[1]})
	}
	frame := appendFrame(nil, encodeBatchPayload(snap))

	newGen := f.gen + 1
	newPath := f.logPath(newGen)
	newName := fmt.Sprintf("kv-%d.log", newGen)
	nf, err := os.OpenFile(newPath, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if err := f.hookedWriteAt(nf, newName, frame, 0); err != nil {
		nf.Close()
		os.Remove(newPath)
		return err
	}
	if err := f.hookedSync(nf, newName); err != nil {
		nf.Close()
		os.Remove(newPath)
		return err
	}
	// The new generation is durable; make it live. After this rename a
	// crash recovers the compacted state.
	if err := f.writeManifestLocked(newGen); err != nil {
		nf.Close()
		os.Remove(newPath)
		return err
	}
	oldName := f.kvName()
	oldPath := f.logPath(f.gen)
	f.log.Close()
	if f.hook != nil {
		f.hook.Disk(DiskEvent{Op: DiskRemove, Name: oldName})
	}
	os.Remove(oldPath)
	f.log = nf
	f.gen = newGen
	f.logSize = int64(len(frame))
	f.logCap = f.logSize
	f.compactions++
	return nil
}

// writeManifestLocked is writeManifest routed through the disk hook,
// so fault injection can fail (and the crash-point recorder observe)
// each step of the swap: tmp write, tmp fsync, atomic rename.
func (f *File) writeManifestLocked(gen uint64) error {
	if f.hook == nil {
		return writeManifest(f.dir, gen)
	}
	tmpName := manifestName + ".tmp"
	tmp := filepath.Join(f.dir, tmpName)
	content := []byte(fmt.Sprintf("%s\ngen %d\n", manifestHeader, gen))
	if _, err := f.hook.Disk(DiskEvent{Op: DiskWriteFile, Name: tmpName, Data: content}); err != nil {
		return err
	}
	if err := os.WriteFile(tmp, content, 0o644); err != nil {
		return err
	}
	if tf, err := os.OpenFile(tmp, os.O_RDWR, 0); err == nil {
		if _, herr := f.hook.Disk(DiskEvent{Op: DiskSync, Name: tmpName}); herr != nil {
			tf.Close()
			return herr
		}
		tf.Sync()
		tf.Close()
	}
	if _, err := f.hook.Disk(DiskEvent{Op: DiskRename, Name: tmpName, To: manifestName}); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(f.dir, manifestName))
}

// JournalBytes returns the current size of the KV journal.
func (f *File) JournalBytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.logSize
}

// BlockLogBytes returns the current size of the append-only block log.
func (f *File) BlockLogBytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.blocksSize
}

// Compactions returns the number of journal compactions since Open.
func (f *File) Compactions() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.compactions
}

// AppendBlock implements Store.
func (f *File) AppendBlock(data []byte) (BlockRef, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return BlockRef{}, ErrClosed
	}
	frame := appendFrame(nil, data)
	if err := f.hookedWriteAt(f.blocks, blocksName, frame, f.blocksSize); err != nil {
		return BlockRef{}, err
	}
	ref := BlockRef{Offset: uint64(f.blocksSize), Len: uint32(len(data))}
	f.blocksSize += int64(len(frame))
	return ref, nil
}

// ReadBlock implements Store.
func (f *File) ReadBlock(ref BlockRef) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	if int64(ref.Offset)+frameHeaderSize+int64(ref.Len) > f.blocksSize {
		return nil, ErrNotFound
	}
	buf := make([]byte, frameHeaderSize+int(ref.Len))
	if _, err := f.blocks.ReadAt(buf, int64(ref.Offset)); err != nil {
		return nil, err
	}
	if got := binary.LittleEndian.Uint32(buf[0:4]); got != ref.Len {
		return nil, &CorruptError{Offset: int64(ref.Offset),
			Reason: fmt.Sprintf("block length %d, ref wants %d", got, ref.Len)}
	}
	payload := buf[frameHeaderSize:]
	want := binary.LittleEndian.Uint32(buf[4:8])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, &CorruptError{Offset: int64(ref.Offset), WantCRC: want, GotCRC: got}
	}
	return payload, nil
}

// Flush implements Store: fsync both files.
func (f *File) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if err := f.hookedSync(f.log, f.kvName()); err != nil {
		return err
	}
	return f.hookedSync(f.blocks, blocksName)
}

// Close implements Store.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	// Trim preallocated capacity so the file ends exactly at the last
	// committed frame (keeps "file length == committed bytes" for clean
	// shutdowns; crashes leave the zero tail for replay to discard).
	var err error
	if f.logCap > f.logSize {
		err = f.log.Truncate(f.logSize)
		f.logCap = f.logSize
	}
	if serr := f.log.Sync(); err == nil {
		err = serr
	}
	if berr := f.blocks.Sync(); err == nil {
		err = berr
	}
	f.log.Close()
	f.blocks.Close()
	return err
}
