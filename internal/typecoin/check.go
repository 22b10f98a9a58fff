package typecoin

import (
	"errors"
	"fmt"

	"typecoin/internal/bkey"
	"typecoin/internal/chainhash"
	"typecoin/internal/lf"
	"typecoin/internal/logic"
	"typecoin/internal/proof"
	"typecoin/internal/wire"
)

// Checking errors callers may distinguish.
var (
	ErrNoOutputs      = errors.New("typecoin: transaction has no outputs")
	ErrInputUnknown   = errors.New("typecoin: input does not name a known typecoin output")
	ErrInputTypeWrong = errors.New("typecoin: input type disagrees with upstream output type")
	ErrConditionFalse = errors.New("typecoin: top-level condition does not hold")
	ErrProofWrongType = errors.New("typecoin: proof term does not prove the transaction balance")
)

// State is the Typecoin view of one chain: the accumulated global basis
// and the types of the (not yet Typecoin-spent) typed outputs, keyed by
// carrier outpoint. Chain formation (the judgement 𝔗 : Σ) is the
// sequence of Apply calls.
type State struct {
	global    *logic.Basis
	outTypes  map[wire.OutPoint]outRecord
	txs       map[chainhash.Hash]*Tx            // by Typecoin hash
	batches   map[chainhash.Hash]*Batch         // by batch hash
	carriers  map[chainhash.Hash]chainhash.Hash // Typecoin/batch hash -> carrier txid
	byCarrier map[chainhash.Hash]chainhash.Hash // carrier txid -> Typecoin/batch hash
	origin    map[wire.OutPoint]chainhash.Hash  // carrier outpoint -> producing hash
	spends    map[wire.OutPoint]chainhash.Hash  // consumed outpoint -> consuming hash
}

type outRecord struct {
	prop   logic.Prop
	amount int64
	owner  bkey.Principal
}

// NewState creates an empty Typecoin chain state.
func NewState() *State {
	return &State{
		global:    logic.NewBasis(nil),
		outTypes:  make(map[wire.OutPoint]outRecord),
		txs:       make(map[chainhash.Hash]*Tx),
		batches:   make(map[chainhash.Hash]*Batch),
		carriers:  make(map[chainhash.Hash]chainhash.Hash),
		byCarrier: make(map[chainhash.Hash]chainhash.Hash),
		origin:    make(map[wire.OutPoint]chainhash.Hash),
		spends:    make(map[wire.OutPoint]chainhash.Hash),
	}
}

// GlobalBasis returns the accumulated global basis.
func (s *State) GlobalBasis() *logic.Basis { return s.global }

// ResolveOutput returns the type of a typed output, if known and not yet
// consumed by a Typecoin transaction in this state.
func (s *State) ResolveOutput(op wire.OutPoint) (logic.Prop, bool) {
	rec, ok := s.outTypes[op]
	if !ok {
		return nil, false
	}
	return rec.prop, true
}

// TxByHash returns an accepted Typecoin transaction.
func (s *State) TxByHash(h chainhash.Hash) (*Tx, bool) {
	tx, ok := s.txs[h]
	return tx, ok
}

// CarrierOf returns the carrier Bitcoin txid of an accepted transaction.
func (s *State) CarrierOf(h chainhash.Hash) (chainhash.Hash, bool) {
	c, ok := s.carriers[h]
	return c, ok
}

// OriginOf returns the Typecoin transaction hash that created a typed
// output.
func (s *State) OriginOf(op wire.OutPoint) (chainhash.Hash, bool) {
	h, ok := s.origin[op]
	return h, ok
}

// CheckTx validates the transaction formation judgement 𝔗; Σ |- T ok
// against this state: local declarations, freshness, input/output
// proposition formation, the proof term's type, input-type agreement
// with upstream outputs, and the top-level condition (judged by oracle).
// It returns the transaction's top-level condition.
//
// The judgement has a closed half, a function of the transaction's bytes
// and Σ alone (checkClosed), and an open half that reads what changes
// from block to block: the unspent typed outputs and the oracle. The
// ledger remembers closed verdicts between submit and connect.
func (s *State) CheckTx(tx *Tx, oracle logic.Oracle) (logic.Cond, error) {
	cond, err := checkClosed(s.global, tx, nil)
	if err != nil {
		return nil, err
	}
	if err := s.checkInputs(tx); err != nil {
		return nil, err
	}
	return cond, condHolds(cond, oracle)
}

// checkClosed is the closed half of CheckTx: local declarations,
// proposition formation, the proof term's type against the domain and
// codomain the transaction states. sigma is the global basis Σ; payload
// is tx.SigPayload() if the caller has it, or nil to have it encoded once
// the propositions in it are known to be well formed. It returns the
// top-level condition. A variable so the ledger's tests can count its
// runs.
var checkClosed = func(sigma *logic.Basis, tx *Tx, payload []byte) (logic.Cond, error) {
	if len(tx.Outputs) == 0 {
		// The metadata hash needs at least one carrier output, and the
		// formalism always routes resources somewhere.
		return nil, ErrNoOutputs
	}

	// Local basis: only this.l declarations, well-formed, fresh.
	if err := logic.CheckLocalDecls(tx.Basis); err != nil {
		return nil, err
	}
	layered, err := tx.Basis.Rebase(sigma)
	if err != nil {
		return nil, fmt.Errorf("typecoin: rebasing local basis: %w", err)
	}
	if err := checkBasisFormation(layered, tx.Basis); err != nil {
		return nil, err
	}
	if err := logic.FreshBasis(tx.Basis); err != nil {
		return nil, fmt.Errorf("typecoin: basis freshness: %w", err)
	}

	// Affine grant: well-formed and fresh.
	if err := logic.CheckProp(layered, nil, tx.Grant); err != nil {
		return nil, fmt.Errorf("typecoin: grant: %w", err)
	}
	if err := logic.FreshProp(tx.Grant); err != nil {
		return nil, fmt.Errorf("typecoin: grant freshness: %w", err)
	}

	// Inputs: well-formed propositions, none consumed twice (condition 3).
	seen := make(map[wire.OutPoint]bool, len(tx.Inputs))
	for i, in := range tx.Inputs {
		if seen[in.Source] {
			return nil, fmt.Errorf("typecoin: input %d consumes %v twice", i, in.Source)
		}
		seen[in.Source] = true
		if err := logic.CheckProp(layered, nil, in.Type); err != nil {
			return nil, fmt.Errorf("typecoin: input %d type: %w", i, err)
		}
	}

	// Outputs: well-formed propositions.
	for i, out := range tx.Outputs {
		if out.Owner == nil {
			return nil, fmt.Errorf("typecoin: output %d has no owner", i)
		}
		if out.Amount < 0 {
			return nil, fmt.Errorf("typecoin: output %d has negative amount", i)
		}
		if err := logic.CheckProp(layered, nil, out.Type); err != nil {
			return nil, fmt.Errorf("typecoin: output %d type: %w", i, err)
		}
	}

	// The proof term: M : (C (x) A (x) R) -o if(phi, B). A missing
	// conditional is read as if(true, B).
	if tx.Proof == nil {
		return nil, errors.New("typecoin: transaction has no proof term")
	}
	if payload == nil {
		payload = tx.SigPayload()
	}
	got, err := proof.Infer(layered, payload, tx.Proof)
	if err != nil {
		return nil, fmt.Errorf("typecoin: proof: %w", err)
	}
	lolli, ok := got.(logic.PLolli)
	if !ok {
		return nil, fmt.Errorf("%w: proof has type %s", ErrProofWrongType, got)
	}
	eq, err := logic.PropEqual(lolli.A, tx.Domain())
	if err != nil {
		return nil, err
	}
	if !eq {
		return nil, fmt.Errorf("%w: proof consumes %s, want %s",
			ErrProofWrongType, lolli.A, tx.Domain())
	}
	cond := logic.True
	body := lolli.B
	if ifp, ok := body.(logic.PIf); ok {
		cond = ifp.Cond
		body = ifp.Body
	}
	eq, err = logic.PropEqual(body, tx.Codomain())
	if err != nil {
		return nil, err
	}
	if !eq {
		return nil, fmt.Errorf("%w: proof produces %s, want %s",
			ErrProofWrongType, body, tx.Codomain())
	}
	return cond, nil
}

// checkInputs and condHolds are the open half of CheckTx, for a
// transaction checkClosed has accepted (so its input types are well
// formed and PropEqual on them terminates): every input names an unspent
// typed output whose type and amount agree, and the condition holds under
// the oracle.
func (s *State) checkInputs(tx *Tx) error {
	for i, in := range tx.Inputs {
		rec, ok := s.outTypes[in.Source]
		if !ok {
			return fmt.Errorf("%w: %v", ErrInputUnknown, in.Source)
		}
		eq, err := logic.PropEqual(in.Type, rec.prop)
		if err != nil {
			return err
		}
		if !eq {
			return fmt.Errorf("%w: input %d claims %s, upstream output has %s",
				ErrInputTypeWrong, i, in.Type, rec.prop)
		}
		if in.Amount != rec.amount {
			return fmt.Errorf("typecoin: input %d claims %d satoshi, upstream output carries %d",
				i, in.Amount, rec.amount)
		}
	}
	return nil
}

func condHolds(cond logic.Cond, oracle logic.Oracle) error {
	holds, err := logic.EvalCond(cond, oracle)
	if err != nil {
		return fmt.Errorf("typecoin: evaluating condition %s: %w", cond, err)
	}
	if !holds {
		return fmt.Errorf("%w: %s", ErrConditionFalse, cond)
	}
	return nil
}

// checkBasisFormation validates each local declaration against the
// layered basis (Sigma_global |- Sigma ok).
func checkBasisFormation(layered *logic.Basis, local *logic.Basis) error {
	for _, r := range local.LocalFamRefs() {
		k, _ := local.LocalFam(r)
		if err := lf.CheckKind(layered, nil, k); err != nil {
			return fmt.Errorf("typecoin: declaration %s: %w", r, err)
		}
	}
	for _, r := range local.LocalTermRefs() {
		f, _ := local.LocalTerm(r)
		if err := lf.CheckFamilyIsType(layered, nil, f); err != nil {
			return fmt.Errorf("typecoin: declaration %s: %w", r, err)
		}
	}
	for _, r := range local.LocalPropRefs() {
		p, _ := local.LocalProp(r)
		if err := logic.CheckProp(layered, nil, p); err != nil {
			return fmt.Errorf("typecoin: declaration %s: %w", r, err)
		}
	}
	return nil
}

// Apply incorporates an accepted transaction into the state: performs the
// [txid/this] substitution with the carrier txid, accumulates the local
// basis into the global basis, consumes the input outpoints, and records
// the output types at the carrier's outpoints.
//
// The caller is responsible for having run CheckTx first (and for the
// Bitcoin-level guarantees: carrier confirmed, amounts matching), and
// passes tch, the tx.Hash() it already holds: every caller has one, from
// the embedding check or from the announcement index.
func (s *State) Apply(tx *Tx, tch, carrierID chainhash.Hash) error {
	ref := lf.TxRef(carrierID, "")
	newGlobal, err := tx.Basis.SubstRef(ref, s.global)
	if err != nil {
		return fmt.Errorf("typecoin: accumulating basis: %w", err)
	}
	if _, dup := s.txs[tch]; dup {
		return fmt.Errorf("typecoin: transaction %s already applied", tch)
	}
	// Affine guard: no input may have been consumed by an earlier
	// transaction in this state (CheckTx verifies this against outTypes,
	// but Apply is also reachable via fallback selection paths).
	for _, in := range tx.Inputs {
		if by, spent := s.spends[in.Source]; spent {
			return fmt.Errorf("typecoin: affine violation: input %v already consumed by %s", in.Source, by)
		}
	}
	s.global = newGlobal
	s.txs[tch] = tx
	s.carriers[tch] = carrierID
	s.byCarrier[carrierID] = tch
	for _, in := range tx.Inputs {
		delete(s.outTypes, in.Source)
		s.spends[in.Source] = tch
	}
	for i, out := range tx.Outputs {
		op := wire.OutPoint{Hash: carrierID, Index: uint32(i)}
		s.outTypes[op] = outRecord{
			prop:   logic.SubstRefProp(out.Type, ref),
			amount: out.Amount,
			owner:  out.OwnerPrincipal(),
		}
		s.origin[op] = tch
	}
	return nil
}

// OutputCount reports how many unconsumed typed outputs the state tracks
// (test and bench helper).
func (s *State) OutputCount() int { return len(s.outTypes) }

// AuditAffine verifies the between-transaction affine invariant the paper
// inherits from Bitcoin: no typed output is both live and consumed, each
// consumed output names exactly one applied consumer, every applied
// transaction's inputs are recorded as consumed by it, and every live
// output traces to an applied producer. It returns the first violation.
func (s *State) AuditAffine() error {
	for op, by := range s.spends {
		if _, live := s.outTypes[op]; live {
			return fmt.Errorf("typecoin: affine violation: output %v both live and consumed by %s", op, by)
		}
		if _, ok := s.txs[by]; !ok {
			if _, ok := s.batches[by]; !ok {
				return fmt.Errorf("typecoin: output %v consumed by unapplied transaction %s", op, by)
			}
		}
	}
	for tch, tx := range s.txs {
		for _, in := range tx.Inputs {
			if by, ok := s.spends[in.Source]; !ok || by != tch {
				return fmt.Errorf("typecoin: applied transaction %s input %v recorded as consumed by %s",
					tch, in.Source, by)
			}
		}
	}
	for bh, b := range s.batches {
		for _, src := range b.Sources {
			if by, ok := s.spends[src.Source]; !ok || by != bh {
				return fmt.Errorf("typecoin: applied batch %s source %v recorded as consumed by %s",
					bh, src.Source, by)
			}
		}
	}
	for op := range s.outTypes {
		oh, ok := s.origin[op]
		if !ok {
			continue // seeded outputs (SeedOutput) carry no origin
		}
		if _, okT := s.txs[oh]; !okT {
			if _, okB := s.batches[oh]; !okB {
				return fmt.Errorf("typecoin: live output %v produced by unapplied transaction %s", op, oh)
			}
		}
	}
	return nil
}

// NewStateForBatch creates a state sharing an existing global basis with
// no outputs: batch servers replay their off-chain history against it.
func NewStateForBatch(global *logic.Basis) *State {
	s := NewState()
	if global != nil {
		s.global = global
	}
	return s
}

// SeedOutput registers an externally verified typed output (batch
// servers seed from the ledger before replaying off-chain history).
func (s *State) SeedOutput(op wire.OutPoint, prop logic.Prop, amount int64, owner bkey.Principal) {
	s.outTypes[op] = outRecord{prop: prop, amount: amount, owner: owner}
}
