package store

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
)

// FaultEngine is the scriptable disk-adversity model: a Store decorator
// that injects chosen failures into chosen operations. The engine
// enumerates the moves a hostile disk actually has — transient EIO, a
// full device, short writes, fsyncs that report success and drop the
// data, read-side bit-rot, a kill mid-commit — each firable once,
// forever, or probabilistically under a seeded RNG so a chaos run
// replays bit-exactly from its FAULT_SEED (the same replay discipline
// netsim uses for SIM_SEED).
//
// The engine is a test/scenario wrapper: production nodes never stack
// it, so its cost is irrelevant to the hot path.

// FaultOp names the store operation a rule targets.
type FaultOp uint8

const (
	OpApply FaultOp = iota
	OpAppendBlock
	OpReadBlock
	OpFlush
	OpGet
	OpIterate
)

// String names the op for metric labels and logs.
func (o FaultOp) String() string {
	switch o {
	case OpApply:
		return "apply"
	case OpAppendBlock:
		return "append_block"
	case OpReadBlock:
		return "read_block"
	case OpFlush:
		return "flush"
	case OpGet:
		return "get"
	case OpIterate:
		return "iterate"
	}
	return "unknown"
}

// FaultKind names the failure a rule injects.
type FaultKind uint8

const (
	// KindEIO fails the op with a transient ErrIO.
	KindEIO FaultKind = iota
	// KindENOSPC fails the op with ErrNoSpace (persistent until the
	// rule is cleared — retries alone never fix a full disk).
	KindENOSPC
	// KindShortWrite, on Apply over a *File, leaves TearBytes of the
	// frame on disk and fails with ErrIO; the store survives. On any
	// other op/engine it degenerates to an ErrIO.
	KindShortWrite
	// KindFsyncDrop makes Flush report success WITHOUT syncing — the
	// lying-fsync disk. DroppedFsyncs counts the lies.
	KindFsyncDrop
	// KindBitFlip corrupts ReadBlock: the payload is read, one
	// RNG-chosen bit is flipped, and the checksum mismatch is returned
	// as a structured *CorruptError — detected bit-rot.
	KindBitFlip
	// KindKill poisons the whole store: the op fails with ErrClosed and
	// every later op does too, as if the device vanished mid-commit.
	// With TearBytes >= 0 over a *File the dying Apply first leaves a
	// torn frame.
	KindKill
)

// String names the kind for metric labels and logs.
func (k FaultKind) String() string {
	switch k {
	case KindEIO:
		return "eio"
	case KindENOSPC:
		return "enospc"
	case KindShortWrite:
		return "short_write"
	case KindFsyncDrop:
		return "fsync_drop"
	case KindBitFlip:
		return "bit_flip"
	case KindKill:
		return "kill"
	}
	return "unknown"
}

// FaultMode is a rule's firing discipline.
type FaultMode uint8

const (
	// ModeOneShot fires on the first armed call, then retires.
	ModeOneShot FaultMode = iota
	// ModeSticky fires on every armed call until the rule is cleared.
	ModeSticky
	// ModeProb fires each armed call with probability Prob, drawn from
	// the engine's seeded RNG.
	ModeProb
)

// FaultRule scripts one injection.
type FaultRule struct {
	Op   FaultOp
	Kind FaultKind
	Mode FaultMode
	// After skips the first After matching calls before the rule arms
	// (so After=2 first touches the 3rd call).
	After int
	// Prob is the per-call firing probability under ModeProb.
	Prob float64
	// TearBytes is the short-write length for KindShortWrite and
	// KindKill against a *File inner; < 0 means no torn frame.
	TearBytes int
}

type faultRuleState struct {
	FaultRule
	seen  int
	fired bool
}

// FaultEngine implements Store. See the package comment above.
type FaultEngine struct {
	inner Store

	mu      sync.Mutex
	rng     *rand.Rand
	rules   []*faultRuleState
	dead    bool
	counts  map[[2]uint8]uint64
	calls   [6]int // per-op attempts while alive
	dropped uint64 // fsyncs reported successful but skipped
	onFault func(op FaultOp, kind FaultKind)
}

// NewFaultEngine wraps inner with an empty script. seed drives every
// probabilistic decision (ModeProb draws, bit positions for
// KindBitFlip), so a scenario replays exactly from its seed.
func NewFaultEngine(inner Store, seed int64) *FaultEngine {
	return &FaultEngine{
		inner:  inner,
		rng:    rand.New(rand.NewSource(seed)),
		counts: make(map[[2]uint8]uint64),
	}
}

// Inject appends rules to the script. Rules are evaluated in insertion
// order; the first that fires wins the call.
func (e *FaultEngine) Inject(rules ...FaultRule) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range rules {
		rc := r
		e.rules = append(e.rules, &faultRuleState{FaultRule: rc})
	}
}

// Clear removes every rule — the disk has been repaired. A KindKill
// that already fired stays fatal (the store is poisoned, as after a
// real crash); every other fault stops immediately.
func (e *FaultEngine) Clear() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rules = nil
}

// SetOnFault installs a hook observed (outside the engine lock's
// critical path decisions, but called with it held — keep it cheap)
// every time a rule fires. Telemetry seam.
func (e *FaultEngine) SetOnFault(fn func(op FaultOp, kind FaultKind)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onFault = fn
}

// Counts returns fired-fault counters keyed "op/kind".
func (e *FaultEngine) Counts() map[string]uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]uint64, len(e.counts))
	for k, v := range e.counts {
		out[FaultOp(k[0]).String()+"/"+FaultKind(k[1]).String()] = v
	}
	return out
}

// DroppedFsyncs reports how many Flush calls lied (KindFsyncDrop).
func (e *FaultEngine) DroppedFsyncs() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dropped
}

// OpCalls reports how many calls of op have been attempted while the
// store was alive.
func (e *FaultEngine) OpCalls(op FaultOp) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.calls[op]
}

// noteLocked records a firing.
func (e *FaultEngine) noteLocked(op FaultOp, kind FaultKind) {
	e.counts[[2]uint8{uint8(op), uint8(kind)}]++
	if e.onFault != nil {
		e.onFault(op, kind)
	}
}

// fire decides the fate of one call: it returns the rule that fires (or
// nil) after counting the attempt, and an ErrClosed when the engine is
// already dead.
func (e *FaultEngine) fire(op FaultOp) (*faultRuleState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead {
		return nil, fmt.Errorf("%w: store killed by fault injection", ErrClosed)
	}
	e.calls[op]++
	for _, r := range e.rules {
		if r.Op != op {
			continue
		}
		r.seen++
		if r.seen <= r.After {
			continue
		}
		switch r.Mode {
		case ModeOneShot:
			if r.fired {
				continue
			}
		case ModeProb:
			if e.rng.Float64() >= r.Prob {
				continue
			}
		}
		r.fired = true
		e.noteLocked(op, r.Kind)
		if r.Kind == KindKill {
			e.dead = true
		}
		return r, nil
	}
	return nil, nil
}

// errFor renders a fired rule's error for ops without special handling.
func errFor(r *faultRuleState, op FaultOp) error {
	switch r.Kind {
	case KindENOSPC:
		return fmt.Errorf("%w: injected on %s", ErrNoSpace, op)
	case KindKill:
		return fmt.Errorf("%w: injected failure on %s", ErrClosed, op)
	default:
		return fmt.Errorf("%w: injected on %s", ErrIO, op)
	}
}

// Get implements Store.
func (e *FaultEngine) Get(key []byte) ([]byte, error) {
	r, err := e.fire(OpGet)
	if err != nil {
		return nil, err
	}
	if r != nil {
		return nil, errFor(r, OpGet)
	}
	return e.inner.Get(key)
}

// Has implements Store. Has shares OpGet rules: it is the same
// point-read from the fault model's point of view.
func (e *FaultEngine) Has(key []byte) (bool, error) {
	r, err := e.fire(OpGet)
	if err != nil {
		return false, err
	}
	if r != nil {
		return false, errFor(r, OpGet)
	}
	return e.inner.Has(key)
}

// Iterate implements Store.
func (e *FaultEngine) Iterate(prefix []byte, fn func(key, value []byte) error) error {
	r, err := e.fire(OpIterate)
	if err != nil {
		return err
	}
	if r != nil {
		return errFor(r, OpIterate)
	}
	return e.inner.Iterate(prefix, fn)
}

// Apply implements Store.
func (e *FaultEngine) Apply(b *Batch) error {
	r, err := e.fire(OpApply)
	if err != nil {
		return err
	}
	if r == nil {
		return e.inner.Apply(b)
	}
	switch r.Kind {
	case KindShortWrite:
		if file, ok := e.inner.(*File); ok && r.TearBytes >= 0 {
			file.TearNextApply(r.TearBytes)
			return e.inner.Apply(b) // writes the torn prefix, then ErrIO
		}
		return fmt.Errorf("%w: injected short write on apply", ErrIO)
	case KindKill:
		if file, ok := e.inner.(*File); ok && r.TearBytes >= 0 {
			file.CrashNextApply(r.TearBytes)
			return e.inner.Apply(b) // writes the torn prefix, then dies
		}
		return fmt.Errorf("%w: injected failure on apply %d", ErrClosed, e.OpCalls(OpApply))
	default:
		return errFor(r, OpApply)
	}
}

// AppendBlock implements Store.
func (e *FaultEngine) AppendBlock(data []byte) (BlockRef, error) {
	r, err := e.fire(OpAppendBlock)
	if err != nil {
		return BlockRef{}, err
	}
	if r != nil {
		return BlockRef{}, errFor(r, OpAppendBlock)
	}
	return e.inner.AppendBlock(data)
}

// ReadBlock implements Store. KindBitFlip reads the real payload, flips
// one seeded bit, and reports the mismatch the frame checksum would
// have caught — detected bit-rot with precise attribution.
func (e *FaultEngine) ReadBlock(ref BlockRef) ([]byte, error) {
	r, err := e.fire(OpReadBlock)
	if err != nil {
		return nil, err
	}
	if r == nil {
		return e.inner.ReadBlock(ref)
	}
	if r.Kind != KindBitFlip {
		return nil, errFor(r, OpReadBlock)
	}
	data, err := e.inner.ReadBlock(ref)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	bit := 0
	if len(data) > 0 {
		bit = e.rng.Intn(len(data) * 8)
	}
	e.mu.Unlock()
	want := crcOf(data)
	if len(data) > 0 {
		data[bit/8] ^= 1 << (bit % 8)
	}
	return nil, &CorruptError{Offset: int64(ref.Offset), WantCRC: want, GotCRC: crcOf(data)}
}

// Flush implements Store. KindFsyncDrop is the lying disk: success
// reported, nothing made durable.
func (e *FaultEngine) Flush() error {
	r, err := e.fire(OpFlush)
	if err != nil {
		return err
	}
	if r == nil {
		return e.inner.Flush()
	}
	if r.Kind == KindFsyncDrop {
		e.mu.Lock()
		e.dropped++
		e.mu.Unlock()
		return nil
	}
	return errFor(r, OpFlush)
}

// Close implements Store.
func (e *FaultEngine) Close() error {
	e.mu.Lock()
	e.dead = true
	e.mu.Unlock()
	return e.inner.Close()
}

// crcOf is the frame checksum of p (for synthesized CorruptErrors).
func crcOf(p []byte) uint32 {
	return crc32.Checksum(p, castagnoli)
}
