// Package mempool implements the transaction memory pool: the staging
// area of unconfirmed transactions a node is willing to relay and mine.
//
// The pool enforces the relay policy the paper leans on in Section 3.3:
// only transactions whose outputs use standard script schemas are
// accepted, which is why Typecoin embeds its metadata in a standard
// 1-of-2 multisig rather than a novel script.
package mempool

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"typecoin/internal/chain"
	"typecoin/internal/chainhash"
	"typecoin/internal/clock"
	"typecoin/internal/par"
	"typecoin/internal/script"
	"typecoin/internal/telemetry"
	"typecoin/internal/wire"
)

// Policy errors.
var (
	ErrAlreadyKnown   = errors.New("mempool: transaction already in pool")
	ErrNonStandard    = errors.New("mempool: non-standard transaction")
	ErrPoolConflict   = errors.New("mempool: double-spends a pooled transaction")
	ErrOrphanTx       = errors.New("mempool: references unknown outputs")
	ErrFeeTooLow      = errors.New("mempool: fee below relay minimum")
	ErrCoinbaseInPool = errors.New("mempool: coinbase transactions are not relayable")
	// ErrMempoolFull rejects a transaction whose fee rate does not beat
	// the eviction floor of a pool at capacity. Like the other policy
	// errors it carries no misbehavior implication: honest wallets hit it
	// under load.
	ErrMempoolFull = errors.New("mempool: pool full, fee rate below floor")
	// ErrDegraded rejects admissions while the node's store is in
	// degraded-readonly mode (see SetGate): a pooled transaction promises
	// eventual mining, and a node that cannot write blocks cannot keep
	// that promise. Carries no misbehavior implication.
	ErrDegraded = errors.New("mempool: node degraded, not accepting transactions")
)

// DefaultMinRelayFee is the minimum fee in satoshi per transaction. The
// paper cites a typical fee of 0.0005 BTC (Section 3.2); experiment E2
// uses this constant as the per-transaction cost that batch mode
// amortizes.
const DefaultMinRelayFee = 50_000 // 0.0005 BTC in satoshi

// Pool capacity defaults: a transaction flood (valid, fee-paying spam)
// must not exhaust memory, so past these bounds the lowest-fee-rate
// transactions are evicted and a dynamic fee floor rises behind them.
const (
	DefaultMaxPoolTxs   = 20_000
	DefaultMaxPoolBytes = 16 << 20
	// floorIncrement is added (in satoshi per kB) above the evicted fee
	// rate, so a replacement must strictly beat what was thrown away.
	floorIncrement = 1_000
	// floorHalfLife halves the dynamic floor as pressure subsides.
	floorHalfLife = 10 * time.Minute
)

// poolTx is one pooled transaction with cached metadata.
type poolTx struct {
	tx   *wire.MsgTx
	fee  int64
	size int
	seq  uint64 // admission order, for stable tie-breaking
}

// Pool is a transaction memory pool bound to a Chain. All methods are
// safe for concurrent use.
type Pool struct {
	chain       *chain.Chain
	minRelayFee int64
	clk         clock.Clock

	mu       sync.RWMutex
	pool     map[chainhash.Hash]*poolTx
	spends   map[wire.OutPoint]chainhash.Hash // outpoint -> pooled spender
	nextSeq  uint64
	bytes    int64 // serialized size of all pooled transactions
	maxTxs   int   // 0 = default
	maxBytes int64 // 0 = default
	feeFloor int64 // dynamic floor in satoshi per kB; 0 = inactive
	floorAt  time.Time
	// inflight holds the txids whose admission is verifying its scripts
	// outside the lock, and gen counts what such an admission must see
	// before it inserts: every insert, every removal and every chain
	// notification (see accept).
	inflight map[chainhash.Hash]struct{}
	gen      uint64

	// tel carries the registered collectors; the zero value disables
	// instrumentation. See telemetry.go.
	tel poolTelemetry

	// onAccept, when set, is invoked after every successful admission,
	// outside the pool lock — the push-notification hook the indexer's
	// subscription hub uses for new-tx events.
	onAcceptMu sync.RWMutex
	onAccept   func(*wire.MsgTx)

	// gate, when set, is consulted before any validation work: a false
	// return rejects the admission with ErrDegraded. The node wires this
	// to its store health so a degraded node stops taking on mempool
	// obligations while still serving queries.
	gateMu sync.RWMutex
	gate   func() bool

	// betweenPhases, set only by tests, runs between an admission's
	// first phase and its verification.
	betweenPhases func()
}

// SetGate registers fn as the admission gate: Accept refuses new
// transactions with ErrDegraded whenever fn returns false. The callback
// runs outside the pool lock and must not block; nil clears the gate.
func (p *Pool) SetGate(fn func() bool) {
	p.gateMu.Lock()
	p.gate = fn
	p.gateMu.Unlock()
}

// gated reports whether admissions are currently refused.
func (p *Pool) gated() bool {
	p.gateMu.RLock()
	fn := p.gate
	p.gateMu.RUnlock()
	return fn != nil && !fn()
}

// SetOnAccept registers fn to run after every successful Accept, with
// the admitted transaction. The callback runs outside the pool lock and
// must not block; nil clears the hook.
func (p *Pool) SetOnAccept(fn func(*wire.MsgTx)) {
	p.onAcceptMu.Lock()
	p.onAccept = fn
	p.onAcceptMu.Unlock()
}

// New creates a pool. A negative minRelayFee selects the default.
func New(c *chain.Chain, minRelayFee int64) *Pool {
	if minRelayFee < 0 {
		minRelayFee = DefaultMinRelayFee
	}
	p := &Pool{
		chain:       c,
		minRelayFee: minRelayFee,
		clk:         c.Clock(),
		pool:        make(map[chainhash.Hash]*poolTx),
		spends:      make(map[wire.OutPoint]chainhash.Hash),
		inflight:    make(map[chainhash.Hash]struct{}),
	}
	c.Subscribe(p.onChainChange)
	return p
}

// SetLimits overrides the pool capacity bounds. Non-positive values
// restore the defaults. Shrinking the limits takes effect on the next
// admission.
func (p *Pool) SetLimits(maxTxs int, maxBytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.maxTxs = maxTxs
	p.maxBytes = maxBytes
}

// Bytes returns the serialized size of the pooled transactions.
func (p *Pool) Bytes() int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.bytes
}

// FeeFloor returns the current dynamic fee floor in satoshi per kB
// (zero when the pool has not recently evicted for capacity).
func (p *Pool) FeeFloor() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.floorLocked(p.clk.Now())
}

// floorLocked returns the decayed dynamic floor, halving per
// floorHalfLife elapsed since it was last raised.
func (p *Pool) floorLocked(now time.Time) int64 {
	if p.feeFloor <= 0 {
		return 0
	}
	steps := int64(0)
	if elapsed := now.Sub(p.floorAt); elapsed > 0 {
		steps = int64(elapsed / floorHalfLife)
	}
	if steps > 0 {
		if steps > 62 {
			steps = 62
		}
		p.feeFloor >>= uint(steps)
		p.floorAt = p.floorAt.Add(time.Duration(steps) * floorHalfLife)
		if p.feeFloor < floorIncrement {
			p.feeFloor = 0
		}
	}
	return p.feeFloor
}

// feeRate is satoshi per kB.
func feeRate(fee int64, size int) int64 {
	if size <= 0 {
		return 0
	}
	return fee * 1000 / int64(size)
}

// enforceLimitsLocked evicts lowest-fee-rate transactions (descendants
// cascade with them) until the pool fits its bounds, raising the
// dynamic floor past each evicted rate.
func (p *Pool) enforceLimitsLocked(now time.Time) {
	maxTxs, maxBytes := p.maxTxs, p.maxBytes
	if maxTxs <= 0 {
		maxTxs = DefaultMaxPoolTxs
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxPoolBytes
	}
	for len(p.pool) > maxTxs || p.bytes > maxBytes {
		var victim *poolTx
		var victimID chainhash.Hash
		for txid, ptx := range p.pool {
			if victim == nil {
				victim, victimID = ptx, txid
				continue
			}
			// Lowest fee rate first; oldest admission breaks ties, so the
			// scan is deterministic despite map order.
			fi := ptx.fee * int64(victim.size)
			fj := victim.fee * int64(ptx.size)
			if fi < fj || (fi == fj && ptx.seq < victim.seq) {
				victim, victimID = ptx, txid
			}
		}
		if victim == nil {
			return
		}
		if floor := feeRate(victim.fee, victim.size) + floorIncrement; floor > p.floorLocked(now) {
			p.feeFloor = floor
			p.floorAt = now
		}
		if p.tel.tracer != nil {
			p.tel.tracer.Record(telemetry.EvTxEvicted, victimID.String(),
				fmt.Sprintf("fee_rate=%d", feeRate(victim.fee, victim.size)))
		}
		before := len(p.pool)
		p.removeLocked(victimID, false)
		p.tel.evicted.Add(uint64(before - len(p.pool)))
	}
}

// Accept validates tx against the chain and pool policy and admits it.
// It returns the transaction's fee.
func (p *Pool) Accept(tx *wire.MsgTx) (int64, error) {
	fee, err := p.accept(tx)
	if err != nil {
		p.tel.rejected.With(rejectReason(err)).Inc()
		if p.tel.tracer != nil {
			p.tel.tracer.Record(telemetry.EvTxRejected, tx.TxHash().String(), err.Error())
		}
		return fee, err
	}
	p.tel.accepted.Inc()
	if p.tel.tracer != nil {
		p.tel.tracer.Record(telemetry.EvTxAccepted, tx.TxHash().String(),
			fmt.Sprintf("fee=%d size=%d", fee, tx.SerializeSize()))
	}
	// Acceptance creates the transaction's latency span: on the
	// submitting node it follows the submitted stage, on relay peers it
	// is the first local sight of the tx.
	p.tel.spans.Record(telemetry.SpanTx, tx.TxHash(), telemetry.StageAccepted)
	p.onAcceptMu.RLock()
	hook := p.onAccept
	p.onAcceptMu.RUnlock()
	if hook != nil {
		hook(tx)
	}
	return fee, nil
}

func (p *Pool) accept(tx *wire.MsgTx) (int64, error) {
	if p.gated() {
		return 0, ErrDegraded
	}
	if tx.IsCoinBase() {
		return 0, ErrCoinbaseInPool
	}
	if err := chain.CheckTransactionSanity(tx); err != nil {
		return 0, err
	}
	for _, out := range tx.TxOut {
		if !script.IsStandard(out.PkScript) {
			return 0, fmt.Errorf("%w: output script %s", ErrNonStandard,
				script.Disassemble(out.PkScript))
		}
	}

	txid := tx.TxHash()
	size := tx.SerializeSize()

	// Phase 1, under the lock: every check that reads the pool or the
	// chain. The txid is then in flight: a second admission of it is a
	// duplicate, and Have reports it.
	p.mu.Lock()
	now, gen := p.clk.Now(), p.gen
	pkScripts, fee, err := p.checkLocked(tx, txid, size, now)
	if err == nil {
		p.inflight[txid] = struct{}{}
	}
	p.mu.Unlock()
	if err != nil {
		return 0, err
	}

	// Phase 2, with no lock held: verify every input script, in parallel
	// (par.Do); the error is the lowest failing input's. The verifier
	// scans each signature script for non-push opcodes before running
	// it; a script it refuses on that ground is a policy matter here.
	if p.betweenPhases != nil {
		p.betweenPhases()
	}
	err = par.Do(len(tx.TxIn), func(i int) error {
		return script.VerifyInput(tx, i, pkScripts[i])
	})

	// Phase 3, under the lock again. If the pool or the chain changed
	// meanwhile, the inputs are resolved again, so a spend admitted or
	// confirmed in between refuses this one. A pass goes into the
	// chain's verdict set, so block connect runs none of these scripts
	// again.
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.inflight, txid)
	if errors.Is(err, script.ErrSigScriptNotPush) {
		return 0, fmt.Errorf("%w: input script not push-only", ErrNonStandard)
	}
	if err != nil {
		return 0, err
	}
	if p.gen != gen {
		now = p.clk.Now()
		if _, _, err := p.checkLocked(tx, txid, size, now); err != nil {
			return 0, err
		}
	}
	p.chain.SigCache().Add(txid)

	p.pool[txid] = &poolTx{tx: tx, fee: fee, size: size, seq: p.nextSeq}
	p.nextSeq++
	p.gen++
	p.bytes += int64(size)
	for _, in := range tx.TxIn {
		p.spends[in.PreviousOutPoint] = txid
	}
	// Capacity: evict lowest-fee-rate transactions past the bounds. The
	// newcomer itself may lose that contest, in which case admission
	// fails with the floor it would have to beat.
	p.enforceLimitsLocked(now)
	if _, stillIn := p.pool[txid]; !stillIn {
		return 0, fmt.Errorf("%w: fee rate %d/kB evicted at capacity",
			ErrMempoolFull, feeRate(fee, size))
	}
	return fee, nil
}

// checkLocked refuses a txid pooled or in flight, resolves tx's inputs
// against the chain UTXO table and the pooled transactions' outputs
// (chained unconfirmed spends are allowed), refusing an input a pooled
// transaction already spends, and applies the fee rules. It returns
// each input's locking script, for the verification, and the fee.
func (p *Pool) checkLocked(tx *wire.MsgTx, txid chainhash.Hash, size int, now time.Time) ([][]byte, int64, error) {
	if p.haveLocked(txid) {
		return nil, 0, ErrAlreadyKnown
	}
	var totalIn int64
	pkScripts := make([][]byte, len(tx.TxIn))
	for i, in := range tx.TxIn {
		if spender, ok := p.spends[in.PreviousOutPoint]; ok {
			return nil, 0, fmt.Errorf("%w: %v already spent by %s", ErrPoolConflict,
				in.PreviousOutPoint, spender)
		}
		value, pkScript, err := p.lookupOutputLocked(in.PreviousOutPoint)
		if err != nil {
			return nil, 0, err
		}
		totalIn += value
		pkScripts[i] = pkScript
	}
	var totalOut int64
	for _, out := range tx.TxOut {
		totalOut += out.Value
	}
	if totalIn < totalOut {
		return nil, 0, fmt.Errorf("%w: in %d < out %d", chain.ErrInsufficientFee, totalIn, totalOut)
	}
	fee := totalIn - totalOut
	if fee < p.minRelayFee {
		return nil, 0, fmt.Errorf("%w: fee %d < %d", ErrFeeTooLow, fee, p.minRelayFee)
	}
	if floor := p.floorLocked(now); floor > 0 && feeRate(fee, size) < floor {
		return nil, 0, fmt.Errorf("%w: fee rate %d/kB < floor %d/kB",
			ErrMempoolFull, feeRate(fee, size), floor)
	}
	return pkScripts, fee, nil
}

// lookupOutputLocked resolves an outpoint against the chain UTXO table or
// a pooled transaction's outputs.
func (p *Pool) lookupOutputLocked(op wire.OutPoint) (int64, []byte, error) {
	if entry := p.chain.LookupUtxo(op); entry != nil {
		return entry.Out.Value, entry.Out.PkScript, nil
	}
	if ptx, ok := p.pool[op.Hash]; ok {
		if int(op.Index) < len(ptx.tx.TxOut) {
			out := ptx.tx.TxOut[op.Index]
			return out.Value, out.PkScript, nil
		}
	}
	return 0, nil, fmt.Errorf("%w: %v", ErrOrphanTx, op)
}

// Have reports whether txid is pooled or its admission is in flight:
// either way the node needs no other copy of it.
func (p *Pool) Have(txid chainhash.Hash) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.haveLocked(txid)
}

func (p *Pool) haveLocked(txid chainhash.Hash) bool {
	_, pooled := p.pool[txid]
	_, inFlight := p.inflight[txid]
	return pooled || inFlight
}

// Tx returns a pooled transaction (never one in flight).
func (p *Pool) Tx(txid chainhash.Hash) (*wire.MsgTx, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ptx, ok := p.pool[txid]
	if !ok {
		return nil, false
	}
	return ptx.tx, true
}

// Size returns the number of pooled transactions.
func (p *Pool) Size() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.pool)
}

// MiningCandidates returns pooled transactions in fee-rate order (ties by
// admission order), respecting in-pool dependencies: a transaction never
// precedes one of its pooled ancestors.
func (p *Pool) MiningCandidates(maxTxs int) []*wire.MsgTx {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ptxs := make([]*poolTx, 0, len(p.pool))
	for _, ptx := range p.pool {
		ptxs = append(ptxs, ptx)
	}
	sort.Slice(ptxs, func(i, j int) bool {
		// Fee rate comparison via cross-multiplication to avoid floats.
		fi := ptxs[i].fee * int64(ptxs[j].size)
		fj := ptxs[j].fee * int64(ptxs[i].size)
		if fi != fj {
			return fi > fj
		}
		return ptxs[i].seq < ptxs[j].seq
	})

	// Emit in dependency order.
	emitted := make(map[chainhash.Hash]bool, len(ptxs))
	var out []*wire.MsgTx
	var emit func(ptx *poolTx)
	emit = func(ptx *poolTx) {
		txid := ptx.tx.TxHash()
		if emitted[txid] || len(out) >= maxTxs {
			return
		}
		// Pull in pooled parents first.
		for _, in := range ptx.tx.TxIn {
			if parent, ok := p.pool[in.PreviousOutPoint.Hash]; ok {
				emit(parent)
			}
		}
		if len(out) < maxTxs && !emitted[txid] {
			emitted[txid] = true
			out = append(out, ptx.tx)
		}
	}
	for _, ptx := range ptxs {
		emit(ptx)
	}
	return out
}

// onChainChange reconciles the pool with main-chain changes: confirmed
// transactions leave the pool, and transactions from disconnected blocks
// are re-admitted when still valid.
func (p *Pool) onChainChange(n chain.Notification) {
	// The UTXO table changed: an admission in flight resolves its
	// inputs again.
	p.mu.Lock()
	p.gen++
	if n.Connected {
		// Hoist the tracer check out of the per-tx loop: txid.String()
		// and the detail formatting must cost nothing when tracing is
		// off, and a full block is hundreds of transactions.
		tr := p.tel.tracer
		for _, tx := range n.Block.Transactions {
			txid := tx.TxHash()
			if _, pooled := p.pool[txid]; pooled {
				p.tel.mined.Inc()
				if tr != nil {
					tr.Record(telemetry.EvTxMined, txid.String(),
						fmt.Sprintf("height=%d", n.Height))
				}
				p.tel.spans.Observe(telemetry.SpanTx, txid, telemetry.StageMined)
			}
			// Confirmed, not evicted: children that spend its outputs
			// stay pooled and are mineable in the next block.
			p.dropLocked(txid)
			// Evict anything that now conflicts with a confirmed spend.
			for _, in := range tx.TxIn {
				if spender, ok := p.spends[in.PreviousOutPoint]; ok {
					before := len(p.pool)
					p.removeLocked(spender, true)
					p.tel.conflicts.Add(uint64(before - len(p.pool)))
				}
			}
		}
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	// Disconnected block: try to put its transactions back.
	for _, tx := range n.Block.Transactions {
		if tx.IsCoinBase() {
			continue
		}
		// Best effort; conflicts with the new chain are simply dropped.
		if _, err := p.Accept(tx); err == nil {
			p.tel.recycled.Inc()
		}
	}
}

// dropLocked removes txid and its spend claims, leaving any pooled
// children in place, and returns the removed entry (nil if txid was not
// pooled).
func (p *Pool) dropLocked(txid chainhash.Hash) *poolTx {
	ptx, ok := p.pool[txid]
	if !ok {
		return nil
	}
	delete(p.pool, txid)
	p.gen++
	p.bytes -= int64(ptx.size)
	for _, in := range ptx.tx.TxIn {
		if p.spends[in.PreviousOutPoint] == txid {
			delete(p.spends, in.PreviousOutPoint)
		}
	}
	return ptx
}

// removeLocked removes txid and its spend claims, and recursively evicts
// descendants that spent its outputs. A conflicted transaction (one
// that spends an output the main chain spent otherwise) can never be
// mined, so its verdict, and its descendants', leave the chain's set
// with it; one evicted for capacity keeps its verdict, since another
// miner may still mine it.
func (p *Pool) removeLocked(txid chainhash.Hash, conflicted bool) {
	ptx := p.dropLocked(txid)
	if ptx == nil {
		return
	}
	if conflicted {
		p.chain.SigCache().Remove(txid)
	}
	for i := range ptx.tx.TxOut {
		op := wire.OutPoint{Hash: txid, Index: uint32(i)}
		if child, ok := p.spends[op]; ok {
			p.removeLocked(child, conflicted)
		}
	}
}

// Remove evicts a transaction (and dependents) from the pool.
func (p *Pool) Remove(txid chainhash.Hash) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.removeLocked(txid, false)
}

// TxIDs returns the pooled transaction ids in admission order.
func (p *Pool) TxIDs() []chainhash.Hash {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ptxs := make([]*poolTx, 0, len(p.pool))
	for _, ptx := range p.pool {
		ptxs = append(ptxs, ptx)
	}
	sort.Slice(ptxs, func(i, j int) bool { return ptxs[i].seq < ptxs[j].seq })
	ids := make([]chainhash.Hash, len(ptxs))
	for i, ptx := range ptxs {
		ids[i] = ptx.tx.TxHash()
	}
	return ids
}
