package store

import (
	"errors"
	"fmt"
	"syscall"
)

// Typed storage failures. The paper's commitment story assumes the
// chain under a node is durable; a real disk disagrees in several
// distinguishable ways, and the node's response must differ per way:
// a transient EIO is retried, a full disk flips the node read-only,
// and corruption is surfaced with enough structure to attribute the
// fault. These sentinels (plus CorruptError) are the vocabulary every
// layer above the store shares.
var (
	// ErrIO reports a transient I/O failure (a read or write the device
	// rejected but may accept on retry). Injected by the fault engine
	// and matched by errors.Is against real *os.PathError EIO too.
	ErrIO = errors.New("store: i/o error")
	// ErrNoSpace reports a full device. Retrying without operator
	// intervention cannot help, so it degrades the node immediately.
	ErrNoSpace = errors.New("store: no space on device")
	// ErrDegraded reports that the store (or its health wrapper) is in
	// degraded read-only mode: reads are served, writes are refused
	// fast until the underlying device recovers.
	ErrDegraded = errors.New("store: degraded read-only")
)

// CorruptError is a structured checksum violation: where the bad frame
// sits and what the CRC comparison saw. It unwraps to ErrCorrupt, so
// existing errors.Is(err, ErrCorrupt) checks keep working while the
// degradation machinery and tests can attribute the fault precisely.
type CorruptError struct {
	// Offset is the byte offset of the corrupt frame within its file,
	// or -1 when the caller was decoding a detached buffer.
	Offset int64
	// WantCRC is the checksum the frame header claims; GotCRC is the
	// checksum of the payload actually read.
	WantCRC, GotCRC uint32
	// Reason distinguishes non-CRC structural violations (length
	// mismatch, bad framing); empty for a plain checksum mismatch.
	Reason string
}

// Error implements error.
func (e *CorruptError) Error() string {
	if e.Reason != "" {
		return fmt.Sprintf("store: corrupt data at offset %d: %s", e.Offset, e.Reason)
	}
	return fmt.Sprintf("store: corrupt data at offset %d: crc want %08x got %08x",
		e.Offset, e.WantCRC, e.GotCRC)
}

// Unwrap makes errors.Is(err, ErrCorrupt) hold for every CorruptError.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// FaultClass partitions storage failures by the correct response.
type FaultClass int

const (
	// ClassTransient faults (EIO, short writes) are worth retrying with
	// backoff: the device may come back.
	ClassTransient FaultClass = iota
	// ClassPersistent faults (ENOSPC, degraded mode) will not clear on
	// their own; the node flips read-only and probes for recovery.
	ClassPersistent
	// ClassFatal faults (corruption, use-after-close) mean the resident
	// view of the store can no longer be trusted; recovery is reopening
	// the directory, exactly as after a crash.
	ClassFatal
)

// String names the class for logs and metric labels.
func (c FaultClass) String() string {
	switch c {
	case ClassTransient:
		return "transient"
	case ClassPersistent:
		return "persistent"
	case ClassFatal:
		return "fatal"
	}
	return "unknown"
}

// Classify maps a storage error onto its fault class. Unknown errors
// classify as transient: retrying an unknown failure a bounded number
// of times is safe (the batch either applies or keeps failing), while
// treating it as fatal would poison the node on a hiccup.
func Classify(err error) FaultClass {
	switch {
	case err == nil:
		return ClassTransient // callers never classify nil; be total anyway
	case errors.Is(err, ErrCorrupt), errors.Is(err, ErrClosed):
		return ClassFatal
	case errors.Is(err, ErrNoSpace), errors.Is(err, ErrDegraded),
		errors.Is(err, syscall.ENOSPC):
		return ClassPersistent
	default:
		return ClassTransient
	}
}

// IsStoreFault reports whether err is a local storage failure rather
// than a validation verdict — the distinction the p2p layer needs so a
// node with a dying disk does not ban the honest peers feeding it
// blocks it cannot persist.
func IsStoreFault(err error) bool {
	return errors.Is(err, ErrIO) ||
		errors.Is(err, ErrNoSpace) ||
		errors.Is(err, ErrDegraded) ||
		errors.Is(err, ErrClosed) ||
		errors.Is(err, ErrCorrupt) ||
		errors.Is(err, syscall.EIO) ||
		errors.Is(err, syscall.ENOSPC)
}

// Health is the store health state a node surfaces to operators.
type Health int32

const (
	// HealthHealthy: writes succeed (possibly after transparent retries).
	HealthHealthy Health = iota
	// HealthRecovering: a degraded store's probe succeeded; writes flow
	// again but the node reports itself recovering until one completes.
	HealthRecovering
	// HealthDegraded: persistent write failure; the node serves reads
	// (chain/index queries, header relay) and refuses writes (mempool
	// accepts, mining) until the device recovers.
	HealthDegraded
)

// String renders the operator-facing state name.
func (h Health) String() string {
	switch h {
	case HealthHealthy:
		return "healthy"
	case HealthRecovering:
		return "recovering"
	case HealthDegraded:
		return "degraded-readonly"
	}
	return "unknown"
}

// HealthReporter is implemented by store wrappers that track device
// health (Retry). The daemon and the netsim harness probe for it to
// register the store_health gauge.
type HealthReporter interface {
	Health() (Health, error)
}
