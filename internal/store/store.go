// Package store is the persistence seam under the node: a small
// key-value store with atomic batched writes plus an append-only block
// log for bulk block bodies.
//
// The paper piggybacks on Bitcoin precisely because the chain provides
// durable commitment — a typecoin proposition must survive node
// restarts. Two engines implement the same contract over one ordered
// resident table (table.go): Mem (the table alone, the default for
// tests and in-memory nodes) and File (the table fed by a CRC-framed
// journal that doubles as the write-ahead log, with an atomic manifest
// swap on compaction). Everything above the seam —
// chain, wallet, ledger, mempool — speaks only this interface, so a
// node is made durable by swapping the engine.
package store

import (
	"bytes"
	"errors"
)

// Sentinel errors shared by the engines.
var (
	// ErrNotFound reports a missing key (Get) or block (ReadBlock).
	ErrNotFound = errors.New("store: not found")
	// ErrClosed reports use after Close (or after a poisoning fault).
	ErrClosed = errors.New("store: closed")
	// ErrCorrupt reports a framing or checksum violation in persisted
	// state that recovery could not repair.
	ErrCorrupt = errors.New("store: corrupt data")
)

// BlockRef locates one blob in the append-only block log. Refs are
// handed out by AppendBlock and are only meaningful against the store
// that produced them; they are stored as values in the KV so the blob
// becomes reachable exactly when the batch referencing it commits.
type BlockRef struct {
	Offset uint64
	Len    uint32
}

// op is one staged mutation.
type op struct {
	key    []byte
	value  []byte
	delete bool
}

// Batch is an ordered set of puts and deletes applied atomically: after
// a crash, either every op in the batch is visible or none is. Batches
// are built by one goroutine and consumed once by Apply.
type Batch struct {
	ops []op
	// arena backs the copied keys and values of this batch's ops, so a
	// thousand-op commit costs a handful of chunk allocations instead of
	// two per op (measured on the persistent block-connect path).
	arena []byte
}

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// A batch's copy arena starts at batchArenaMin bytes and doubles with
// each new chunk up to batchArenaMax, so a one-row batch (every ledger
// announcement) allocates no more than it needs.
const (
	batchArenaMin = 256
	batchArenaMax = 16 << 10
)

// copyBytes copies p into the batch arena and returns the stable copy.
// Full chunks are abandoned to earlier ops (which keep referencing
// them) and a fresh chunk is started, so returned slices never move. A
// value larger than the next chunk gets an exact chunk of its own.
func (b *Batch) copyBytes(p []byte) []byte {
	if len(p) == 0 {
		return nil
	}
	if cap(b.arena)-len(b.arena) < len(p) {
		size := min(max(2*cap(b.arena), batchArenaMin), batchArenaMax)
		b.arena = make([]byte, 0, max(size, len(p)))
	}
	start := len(b.arena)
	b.arena = append(b.arena, p...)
	return b.arena[start:len(b.arena):len(b.arena)]
}

// Put stages key = value. The byte slices are copied, so callers may
// reuse their buffers.
func (b *Batch) Put(key, value []byte) {
	b.ops = append(b.ops, op{key: b.copyBytes(key), value: b.copyBytes(value)})
}

// Delete stages removal of key. Deleting an absent key is a no-op.
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, op{key: b.copyBytes(key), delete: true})
}

// Len reports the number of staged ops.
func (b *Batch) Len() int { return len(b.ops) }

// DeletePrefix deletes every key with the given prefix, in batches of
// at most 4096 ops, so a large family never becomes one giant frame. A
// prefix with no rows costs one empty scan and no write.
func DeletePrefix(st Store, prefix []byte) error {
	var keys [][]byte
	err := st.Iterate(prefix, func(k, v []byte) error {
		keys = append(keys, append([]byte(nil), k...))
		return nil
	})
	for err == nil && len(keys) > 0 {
		b := NewBatch()
		for _, k := range keys[:min(len(keys), 4096)] {
			b.Delete(k)
		}
		keys = keys[b.Len():]
		err = st.Apply(b)
	}
	return err
}

// Store is the persistence contract. Implementations are safe for
// concurrent use. Reads observe only applied batches.
type Store interface {
	// Get returns the value for key, or ErrNotFound.
	Get(key []byte) ([]byte, error)
	// Has reports whether key exists.
	Has(key []byte) (bool, error)
	// Iterate visits every key with the given prefix in ascending byte
	// order. Returning a non-nil error from fn stops the scan and is
	// returned verbatim.
	Iterate(prefix []byte, fn func(key, value []byte) error) error
	// Apply commits b atomically.
	Apply(b *Batch) error
	// AppendBlock appends data to the append-only block log and returns
	// its ref. The blob becomes reachable once a batch storing the ref
	// commits; unreferenced tails left by a crash are harmless garbage.
	AppendBlock(data []byte) (BlockRef, error)
	// ReadBlock returns the blob at ref, verifying its checksum.
	ReadBlock(ref BlockRef) ([]byte, error)
	// Flush forces buffered state to stable storage (fsync for File).
	Flush() error
	// Close flushes and releases the store. Further use returns ErrClosed.
	Close() error
}

// fromIterator is the seek form of Iterate. Both engines and the Retry
// wrapper implement it; it stays out of Store so that a
// decorator written against Store alone keeps compiling.
type fromIterator interface {
	IterateFrom(prefix, start []byte, fn func(key, value []byte) error) error
}

// IterateFrom visits every key with the given prefix that is >= start,
// in ascending byte order — the seek primitive behind cursor-paginated
// index queries. A store that implements fromIterator seeks straight to
// start; any other Store (FaultEngine, so that its OpIterate rules see
// every scan) falls back to a filtered full-prefix scan.
func IterateFrom(st Store, prefix, start []byte, fn func(key, value []byte) error) error {
	if fi, ok := st.(fromIterator); ok {
		return fi.IterateFrom(prefix, start, fn)
	}
	return st.Iterate(prefix, func(key, value []byte) error {
		if bytes.Compare(key, start) < 0 {
			return nil
		}
		return fn(key, value)
	})
}
