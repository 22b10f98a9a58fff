package typecoin

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"typecoin/internal/chain"
	"typecoin/internal/chainhash"
	"typecoin/internal/logic"
	"typecoin/internal/store"
	"typecoin/internal/wire"
)

// Ledger follows a chain and maintains the Typecoin state for it: as
// carrier transactions confirm, their (out-of-band announced) Typecoin
// transactions are checked and applied. This is what a Typecoin client
// runs next to its Bitcoin node.
//
// Typecoin transactions travel out of band — the network sees only their
// hash — so the ledger can only interpret carriers whose Typecoin
// transaction it has been shown via Announce.
type Ledger struct {
	chain   *chain.Chain
	minConf int

	// st is non-nil for ledgers created with OpenLedger: announcements
	// are written through to the chain's store (see persist.go). The
	// typed state itself is replay-derived on startup.
	st store.Store

	mu    sync.Mutex
	state *State
	// known maps a commitment hash to the announced object.
	known map[chainhash.Hash]Object
	// waiting maps carrier txid -> commitment hash for confirmed-but-not-
	// yet-deep-enough carriers.
	waiting map[chainhash.Hash]chainhash.Hash
	// seen maps every commitment hash observed on the main chain to its
	// carrier txids in blockchain order, so announcements arriving after
	// confirmation still apply (announce-after-mine). Usually one carrier;
	// the hash is public, so anyone can mine another.
	seen    map[chainhash.Hash][]chainhash.Hash
	applied map[chainhash.Hash]bool // carrier txids already applied
	// high is the blockchain position of the last applied carrier.
	high chainPos
	// unwritten is an announcement batch the store refused; the next
	// announcement or block connect retries it.
	unwritten *store.Batch
	// verdicts remembers, by Typecoin hash, transactions whose closed half
	// (checkClosed) passed, so the proof CheckInstance inferred at submit
	// is not inferred again when the carrier connects. See checkLocked.
	verdicts map[chainhash.Hash]verdict
}

// verdict is a passed closed check: the Σ it was made under, by identity,
// and the top-level condition it found. A *logic.Basis that has been
// handed out is never written again and State.Apply keeps the pointer
// when a transaction declares nothing, so the same pointer is the same Σ;
// a Σ that grew is another pointer, and the verdict no longer counts.
type verdict struct {
	sigma *logic.Basis
	cond  logic.Cond
}

// maxVerdicts bounds the verdict map. An entry lives from a
// transaction's check to its application (or to a reorganization), so
// the map holds about a mempool's worth of typed transactions; past the
// bound an arbitrary entry makes room, which costs that transaction one
// repeated check.
const maxVerdicts = 4096

// NewLedger creates a ledger over c that applies Typecoin transactions
// once their carriers have minConf confirmations (the paper uses about
// five; tests use one).
func NewLedger(c *chain.Chain, minConf int) *Ledger {
	l := newLedger(c, minConf, nil)
	c.Subscribe(l.onChainChange)
	return l
}

// newLedger is the empty ledger NewLedger and OpenLedger start from.
func newLedger(c *chain.Chain, minConf int, st store.Store) *Ledger {
	if minConf < 1 {
		minConf = 1
	}
	return &Ledger{
		chain:   c,
		minConf: minConf,
		st:      st,
		state:   NewState(),
		known:   make(map[chainhash.Hash]Object),
		waiting: make(map[chainhash.Hash]chainhash.Hash),
		seen:    make(map[chainhash.Hash][]chainhash.Hash),
		applied: make(map[chainhash.Hash]bool),

		verdicts: make(map[chainhash.Hash]verdict),
	}
}

// chainPos is a transaction's place in blockchain order.
type chainPos struct{ height, index int }

func (p chainPos) after(q chainPos) bool {
	return p.height > q.height || (p.height == q.height && p.index > q.index)
}

// MinConf returns the ledger's confirmation depth.
func (l *Ledger) MinConf() int { return l.minConf }

// Announce registers a Typecoin transaction so the ledger can interpret
// its carrier when it confirms. Announcing is idempotent.
func (l *Ledger) Announce(tx *Tx) {
	l.AnnounceList(&FallbackList{Txs: []*Tx{tx}})
}

// AnnounceList registers a fallback list (Section 5): the carrier commits
// to the list hash and the first valid member is applied.
func (l *Ledger) AnnounceList(list *FallbackList) {
	l.announce(list.Hash(), list)
}

// AnnounceBatch registers a batch-mode withdrawal (Section 3.2).
func (l *Ledger) AnnounceBatch(b *Batch) {
	l.announce(b.Hash(), b)
}

// AnnounceObject registers an overlay object of either kind.
func (l *Ledger) AnnounceObject(o Object) {
	l.announce(o.Hash(), o)
}

func (l *Ledger) announce(h chainhash.Hash, obj Object) {
	// l.mu is held from the known insert to the store write, so rows
	// land in announcement order.
	l.mu.Lock()
	defer l.mu.Unlock()
	// Announcements travel out of band and cannot be rederived from the
	// chain, so a new one is persisted the moment it arrives.
	var fresh Object
	if _, ok := l.known[h]; !ok {
		l.known[h], fresh = obj, obj
	}
	// Carriers may already be on chain (announce-after-mine): the seen
	// index remembers every metadata-bearing carrier. All of them are
	// queued, as a replay would queue them, so the sweep and the replay
	// pick the same one.
	rebuild := false
	for _, carrierID := range l.seen[h] {
		if l.applied[carrierID] {
			continue
		}
		l.waiting[carrierID] = h
		// If carriers later in blockchain order have already been
		// applied, merely sweeping would apply this one out of order —
		// and a Typecoin double-spend would then be resolved by arrival
		// order instead of blockchain order, diverging between nodes.
		// Replay from scratch so blockchain order decides.
		rebuild = rebuild || l.appliedAfterLocked(carrierID)
	}
	if rebuild {
		l.rebuildLocked()
	} else {
		l.sweepLocked()
	}
	l.persistLocked(h, fresh)
}

// appliedAfterLocked reports whether any already-applied carrier sits
// after carrierID in blockchain order.
func (l *Ledger) appliedAfterLocked(carrierID chainhash.Hash) bool {
	pos, ok := l.carrierPos(carrierID)
	return ok && l.high.after(pos)
}

// carrierPos locates a carrier on the main chain.
func (l *Ledger) carrierPos(carrierID chainhash.Hash) (chainPos, bool) {
	height, index, ok := l.chain.TxPosition(carrierID)
	return chainPos{height, index}, ok
}

// onChainChange reacts to block connects/disconnects.
func (l *Ledger) onChainChange(n chain.Notification) {
	if !n.Connected {
		// A reorganization may have invalidated applied transactions;
		// rebuild from scratch. Reorgs are rare and the replay is
		// deterministic, so simplicity wins over incrementality here.
		l.rebuild()
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.observeLocked(n.Block)
	l.sweepLocked()
	// A connect also retries an announcement row the store refused.
	l.persistLocked(chainhash.Hash{}, nil)
}

// observeLocked records a main-chain block's metadata-bearing carriers
// in the seen index and queues those whose object is known.
func (l *Ledger) observeLocked(blk *wire.MsgBlock) {
	for _, btx := range blk.Transactions {
		if h, ok := ExtractMetaHash(btx); ok {
			// A reorg's rebuild has already read the blocks whose connect
			// notifications follow it.
			if id := btx.TxHash(); !slices.Contains(l.seen[h], id) {
				l.seen[h] = append(l.seen[h], id)
			}
			if _, known := l.known[h]; known {
				l.waiting[btx.TxHash()] = h
			}
		}
	}
}

// sweepLocked applies every waiting transaction whose carrier is deep
// enough, in blockchain order (the order the global basis accumulates
// in).
func (l *Ledger) sweepLocked() {
	type entry struct {
		carrierID chainhash.Hash
		tch       chainhash.Hash
		pos       chainPos
	}
	var ready []entry
	for carrierID, tch := range l.waiting {
		if l.applied[carrierID] {
			delete(l.waiting, carrierID)
			continue
		}
		if l.chain.Confirmations(carrierID) < l.minConf {
			continue
		}
		pos, ok := l.carrierPos(carrierID)
		if !ok {
			continue
		}
		ready = append(ready, entry{carrierID, tch, pos})
	}
	// Blockchain order makes the common case a single pass; the retry
	// loop below handles same-block basis dependencies that the miner
	// (which cannot see Typecoin-level references) ordered backwards.
	sort.Slice(ready, func(i, j int) bool { return ready[j].pos.after(ready[i].pos) })
	done := make(map[chainhash.Hash]bool, len(ready))
	for {
		progressed := false
		for _, e := range ready {
			if done[e.carrierID] {
				continue
			}
			obj := l.known[e.tch]
			if obj == nil || !l.readyLocked(obj) {
				continue
			}
			if err := l.applyLocked(obj, e.tch, e.carrierID); err == nil {
				progressed = true
				done[e.carrierID] = true
				delete(l.waiting, e.carrierID)
				if e.pos.after(l.high) {
					l.high = e.pos
				}
			}
		}
		if !progressed {
			break
		}
	}
	// Entries that still fail stay in waiting: the failure may be a
	// basis dependency whose transaction has not been announced yet, so
	// they are retried on every sweep. Permanently invalid transactions
	// (a false condition at their block — the "spoiled inputs" hazard of
	// Section 5) are simply re-rejected each time, which is cheap and
	// bounded by the number of such carriers.
}

// readyLocked reports whether the announced object's inputs all resolve
// in the current state.
func (l *Ledger) readyLocked(obj interface{}) bool {
	switch obj := obj.(type) {
	case *FallbackList:
		if len(obj.Txs) == 0 {
			return false
		}
		// Inputs are identical across members (Validate).
		for _, in := range obj.Txs[0].Inputs {
			if _, ok := l.state.ResolveOutput(in.Source); !ok {
				return false
			}
		}
		return true
	case *Batch:
		for _, src := range obj.Sources {
			if _, ok := l.state.ResolveOutput(src.Source); !ok {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// applyLocked checks and applies the object announced under commitment
// hash h, carried by carrierID.
func (l *Ledger) applyLocked(obj interface{}, h, carrierID chainhash.Hash) error {
	carrier, ok := l.chain.TxByID(carrierID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrCarrierUnknown, carrierID)
	}
	blk, height, ok := l.chain.BlockOf(carrierID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrCarrierUnknown, carrierID)
	}
	switch obj := obj.(type) {
	case *FallbackList:
		if err := VerifyListEmbedding(obj, h, carrier); err != nil {
			return err
		}
		// "If the primary transaction turns out to be invalid, the first
		// valid fallback transaction is used instead."
		oracle := OracleAt(l.chain, blk, height)
		var tch chainhash.Hash
		selected, _, err := obj.selectBy(func(_ int, tx *Tx) error {
			// A singleton list hashes as its transaction.
			if tch = h; len(obj.Txs) > 1 {
				tch = tx.Hash()
			}
			return l.checkLocked(tx, tch, nil, oracle)
		})
		if err != nil {
			return err
		}
		if err := l.state.Apply(selected, tch, carrierID); err != nil {
			return err
		}
		delete(l.verdicts, tch)
	case *Batch:
		if err := VerifyBatchEmbedding(obj, carrier); err != nil {
			return err
		}
		if err := l.state.CheckBatch(obj); err != nil {
			return err
		}
		if err := l.state.ApplyBatch(obj, carrierID); err != nil {
			return err
		}
	default:
		return fmt.Errorf("typecoin: unknown announcement %T", obj)
	}
	l.applied[carrierID] = true
	return nil
}

// checkLocked is State.CheckTx for the transaction whose Typecoin hash is
// tch, with the closed half answered from the verdict map when this
// transaction passed it before under the same Σ. Only passes are
// remembered, as in the chain's script verdicts, so a hit proves the
// proof was inferred and found to balance; the open half (inputs,
// condition) runs every time. payload is tx.SigPayload() or nil (see
// checkClosed).
func (l *Ledger) checkLocked(tx *Tx, tch chainhash.Hash, payload []byte, oracle logic.Oracle) error {
	v, ok := l.verdicts[tch]
	if !ok || v.sigma != l.state.global {
		cond, err := checkClosed(l.state.global, tx, payload)
		if err != nil {
			return err
		}
		if !ok && len(l.verdicts) >= maxVerdicts {
			for k := range l.verdicts {
				delete(l.verdicts, k)
				break
			}
		}
		v = verdict{l.state.global, cond}
		l.verdicts[tch] = v
	}
	if err := l.state.checkInputs(tx); err != nil {
		return err
	}
	return condHolds(v.cond, oracle)
}

// rebuild replays the whole main chain against the known transaction set.
func (l *Ledger) rebuild() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rebuildLocked()
}

// rebuildLocked is the replay itself.
func (l *Ledger) rebuildLocked() {
	l.state = NewState()
	clear(l.verdicts) // made under the old state's Σ
	l.waiting = make(map[chainhash.Hash]chainhash.Hash)
	l.seen = make(map[chainhash.Hash][]chainhash.Hash)
	l.applied = make(map[chainhash.Hash]bool)
	l.high = chainPos{}
	for h := 0; ; h++ {
		blk, ok := l.chain.BlockAtHeight(h)
		if !ok {
			break
		}
		l.observeLocked(blk)
	}
	// Apply in blockchain order.
	l.sweepLocked()
}

// State queries (all consistent snapshots under the ledger lock).

// ResolveOutput returns the type of an unconsumed typed output.
func (l *Ledger) ResolveOutput(op wire.OutPoint) (logic.Prop, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state.ResolveOutput(op)
}

// GlobalBasis returns the accumulated global basis.
func (l *Ledger) GlobalBasis() *logic.Basis {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state.GlobalBasis()
}

// Applied reports whether the carrier's Typecoin transaction has been
// applied.
func (l *Ledger) Applied(carrierID chainhash.Hash) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.applied[carrierID]
}

// TxByHash returns an applied transaction by its Typecoin hash, falling
// back to announced singleton lists.
func (l *Ledger) TxByHash(h chainhash.Hash) (*Tx, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if tx, ok := l.state.TxByHash(h); ok {
		return tx, true
	}
	if list, ok := l.known[h].(*FallbackList); ok && len(list.Txs) == 1 {
		return list.Txs[0], true
	}
	return nil, false
}

// UpstreamBundles assembles the bundle set for a typed output: the
// producing transaction plus everything upstream of it, in no particular
// order — exactly what a claimant hands to Verify.
func (l *Ledger) UpstreamBundles(op wire.OutPoint) ([]*Bundle, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	start, ok := l.state.OriginOf(op)
	if !ok {
		return nil, errors.New("typecoin: outpoint has no known origin")
	}
	seen := make(map[chainhash.Hash]bool)
	var out []*Bundle
	var walk func(tch chainhash.Hash) error
	walk = func(tch chainhash.Hash) error {
		if seen[tch] {
			return nil
		}
		seen[tch] = true
		carrier, ok := l.state.CarrierOf(tch)
		if !ok {
			return fmt.Errorf("typecoin: missing carrier of %s", tch)
		}
		var inputs []Input
		var refs []chainhash.Hash
		if tx, ok := l.state.TxByHash(tch); ok {
			out = append(out, &Bundle{Tc: tx, Carrier: carrier})
			inputs = tx.Inputs
			refs = tx.ReferencedCarriers()
		} else if b, ok := l.state.BatchByHash(tch); ok {
			out = append(out, &Bundle{Batch: b, Carrier: carrier})
			inputs = b.Sources
			for _, c := range b.Seq {
				refs = append(refs, c.ReferencedCarriers()...)
			}
		} else {
			return fmt.Errorf("typecoin: missing upstream transaction %s", tch)
		}
		// Resource edges: the transactions whose outputs this one spends.
		for _, in := range inputs {
			if origin, ok := l.state.OriginOf(in.Source); ok {
				if err := walk(origin); err != nil {
					return err
				}
			}
		}
		// Basis edges: the transactions whose constants this one mentions
		// (needed even when no resource flows from them).
		for _, carrierID := range refs {
			if origin, ok := l.state.byCarrier[carrierID]; ok {
				if err := walk(origin); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(start); err != nil {
		return nil, err
	}
	return out, nil
}

// CheckInstance validates a transaction against the current ledger state
// with conditions judged at the chain tip — the escrow agent's
// "sign any instance of the transaction that type checks" policy.
func (l *Ledger) CheckInstance(tx *Tx) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	height := l.chain.BestHeight()
	blk, ok := l.chain.BlockAtHeight(height)
	if !ok {
		return errors.New("typecoin: no chain tip")
	}
	// One encoding serves the hash the verdict is kept under and the
	// payload the proof's signatures cover.
	raw, payloadLen, err := tx.encoded()
	if err != nil {
		return err
	}
	return l.checkLocked(tx, hashEncoded(raw), raw[:payloadLen], OracleAt(l.chain, blk, height))
}

// Rescan rebuilds the ledger state from the whole main chain against the
// currently known announcement set.
func (l *Ledger) Rescan() { l.rebuild() }

// KnownObject returns the announced object for a commitment hash, so a
// node can answer a peer's getdata for it.
func (l *Ledger) KnownObject(h chainhash.Hash) (Object, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	obj, ok := l.known[h]
	return obj, ok
}

// Wants reports whether a carrier on the main chain commits to h and the
// object h names has not been announced: the one case in which a node
// asks its peers for an overlay object.
func (l *Ledger) Wants(h chainhash.Hash) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, known := l.known[h]
	return !known && len(l.seen[h]) > 0
}

// MissingAnnouncements returns the commitment hashes of metadata-bearing
// carriers observed on the main chain whose Typecoin objects have never
// been announced to this ledger: every h for which Wants holds, in hash
// order, so a node that asks its peers for them asks in the same order
// on every run.
func (l *Ledger) MissingAnnouncements() []chainhash.Hash {
	l.mu.Lock()
	defer l.mu.Unlock()
	var missing []chainhash.Hash
	for h := range l.seen {
		if _, ok := l.known[h]; !ok {
			missing = append(missing, h)
		}
	}
	slices.SortFunc(missing, func(a, b chainhash.Hash) int { return bytes.Compare(a[:], b[:]) })
	return missing
}

// AuditAffine checks the ledger's affine invariant: the state audit plus
// the requirement that every applied carrier is still on the main chain.
func (l *Ledger) AuditAffine() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.state.AuditAffine(); err != nil {
		return err
	}
	for carrierID := range l.applied {
		if _, _, ok := l.chain.BlockOf(carrierID); !ok {
			return fmt.Errorf("typecoin: applied carrier %s is not on the main chain", carrierID)
		}
	}
	return nil
}

// AppliedCount reports how many carriers have been applied (test helper).
func (l *Ledger) AppliedCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.applied)
}
