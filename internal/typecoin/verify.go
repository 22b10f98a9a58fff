package typecoin

import (
	"errors"
	"fmt"
	"sort"

	"typecoin/internal/chain"
	"typecoin/internal/chainhash"
	"typecoin/internal/logic"
	"typecoin/internal/wire"
)

// ChainView is what the Typecoin layer needs from the Bitcoin substrate:
// transaction lookup, inclusion evidence and spent-txout evidence.
// chain.Chain implements it.
type ChainView interface {
	TxByID(chainhash.Hash) (*wire.MsgTx, bool)
	BlockOf(chainhash.Hash) (*wire.MsgBlock, int, bool)
	TxPosition(chainhash.Hash) (height, index int, ok bool)
	Confirmations(chainhash.Hash) int
	IsSpent(wire.OutPoint) (chain.SpendRecord, bool)
}

// historicalOracle judges conditions "for a particular transaction in
// the blockchain": before(t) against the timestamp of the block the
// carrier entered, spent(txid.n) against the spend journal at that
// height.
type historicalOracle struct {
	view   ChainView
	height int
	time   uint64
}

func (o *historicalOracle) TimeNow() uint64 { return o.time }

func (o *historicalOracle) IsSpent(out wire.OutPoint) bool {
	rec, ok := o.view.IsSpent(out)
	return ok && rec.Height <= o.height
}

// OracleAt builds the condition oracle for a transaction confirmed in the
// block at the given height.
func OracleAt(view ChainView, blk *wire.MsgBlock, height int) logic.Oracle {
	return &historicalOracle{
		view:   view,
		height: height,
		time:   uint64(blk.Header.Timestamp.Unix()),
	}
}

// Bundle pairs a Typecoin transaction (or a batch-mode withdrawal) with
// the id of its carrier Bitcoin transaction. A claimant hands the
// verifier the transaction that produced the claimed output plus "the set
// of all Typecoin transactions upstream of it" (Section 3). Exactly one
// of Tc and Batch is set.
type Bundle struct {
	Tc      *Tx
	Batch   *Batch
	Carrier chainhash.Hash
}

// inputs returns what the bundle consumes.
func (b *Bundle) inputs() []Input {
	if b.Tc != nil {
		return b.Tc.Inputs
	}
	return b.Batch.Sources
}

// Verification errors.
var (
	ErrCarrierUnknown     = errors.New("typecoin: carrier transaction not found on chain")
	ErrCarrierUnconfirmed = errors.New("typecoin: carrier transaction lacks confirmations")
	ErrUpstreamMissing    = errors.New("typecoin: upstream transaction set is incomplete")
	ErrClaimMismatch      = errors.New("typecoin: claimed output type does not match")
)

// Verify is the trust-free verifier of Section 3: it checks that the
// txout `claim` really has type claimedType, given the producing
// transaction and its upstream set. For every bundle it checks that
//
//  1. the hash of the Typecoin transaction agrees with the hash embedded
//     in its carrier Bitcoin transaction (which must be on the best chain
//     with at least minConf confirmations),
//  2. the Typecoin transaction type-checks (with conditions judged at
//     the carrier's block), and
//  3. the type of each input agrees with the type of the output it
//     spends.
//
// On success it returns the replayed State, which callers may reuse to
// answer further queries against the same bundle set.
func Verify(view ChainView, claim wire.OutPoint, claimedType logic.Prop, bundles []*Bundle, minConf int) (*State, error) {
	type pendingTx struct {
		bundle *Bundle
		tch    chainhash.Hash // of bundle.Tc, hashed once for embedding and Apply
		height int
		index  int // within the block
		block  *wire.MsgBlock
	}
	pending := make(map[chainhash.Hash]*pendingTx, len(bundles)) // by carrier id

	// Step 1: carrier existence, confirmation depth, hash agreement.
	for _, b := range bundles {
		carrier, ok := view.TxByID(b.Carrier)
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrCarrierUnknown, b.Carrier)
		}
		if conf := view.Confirmations(b.Carrier); conf < minConf {
			return nil, fmt.Errorf("%w: %s has %d of %d", ErrCarrierUnconfirmed,
				b.Carrier, conf, minConf)
		}
		var tch chainhash.Hash
		switch {
		case b.Tc != nil:
			tch = b.Tc.Hash()
			if err := verifyEmbeddingWithHash(b.Tc, tch, carrier); err != nil {
				return nil, err
			}
		case b.Batch != nil:
			if err := VerifyBatchEmbedding(b.Batch, carrier); err != nil {
				return nil, err
			}
		default:
			return nil, errors.New("typecoin: empty bundle")
		}
		blk, height, inBlock := view.BlockOf(b.Carrier)
		_, index, placed := view.TxPosition(b.Carrier)
		if !inBlock || !placed {
			return nil, fmt.Errorf("%w: %s not in a main-chain block", ErrCarrierUnknown, b.Carrier)
		}
		if _, dup := pending[b.Carrier]; dup {
			return nil, fmt.Errorf("typecoin: duplicate bundle for carrier %s", b.Carrier)
		}
		pending[b.Carrier] = &pendingTx{bundle: b, tch: tch, height: height, index: index, block: blk}
	}

	// Steps 2 and 3: replay in blockchain order — the order chain
	// formation accumulated the global basis in. (Input readiness alone
	// is not enough: a transaction may reference constants declared by
	// an earlier transaction it takes no inputs from.)
	type orderedTx struct {
		carrierID chainhash.Hash
		p         *pendingTx
	}
	ordered := make([]orderedTx, 0, len(pending))
	for carrierID, p := range pending {
		ordered = append(ordered, orderedTx{carrierID, p})
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].p.height != ordered[j].p.height {
			return ordered[i].p.height < ordered[j].p.height
		}
		return ordered[i].p.index < ordered[j].p.index
	})

	state := NewState()
	applyOne := func(ot orderedTx) error {
		p := ot.p
		for _, in := range p.bundle.inputs() {
			if _, ok := state.ResolveOutput(in.Source); !ok {
				return fmt.Errorf("%w: input %v of carrier %s", ErrUpstreamMissing,
					in.Source, ot.carrierID)
			}
		}
		if p.bundle.Tc != nil {
			oracle := OracleAt(view, p.block, p.height)
			if _, err := state.CheckTx(p.bundle.Tc, oracle); err != nil {
				return fmt.Errorf("typecoin: transaction carried by %s: %w", ot.carrierID, err)
			}
			return state.Apply(p.bundle.Tc, p.tch, ot.carrierID)
		}
		if err := state.CheckBatch(p.bundle.Batch); err != nil {
			return fmt.Errorf("typecoin: batch carried by %s: %w", ot.carrierID, err)
		}
		return state.ApplyBatch(p.bundle.Batch, ot.carrierID)
	}
	// Blockchain order makes the common case one pass; the retry loop
	// handles same-block basis dependencies the miner could not see.
	done := make(map[chainhash.Hash]bool, len(ordered))
	var lastErr error
	for {
		progressed := false
		for _, ot := range ordered {
			if done[ot.carrierID] {
				continue
			}
			if err := applyOne(ot); err != nil {
				lastErr = err
				continue
			}
			done[ot.carrierID] = true
			progressed = true
		}
		if len(done) == len(ordered) {
			break
		}
		if !progressed {
			return nil, lastErr
		}
	}

	got, ok := state.ResolveOutput(claim)
	if !ok {
		return nil, fmt.Errorf("%w: %v is not an unconsumed typed output", ErrClaimMismatch, claim)
	}
	eq, err := logic.PropEqual(got, claimedType)
	if err != nil {
		return nil, err
	}
	if !eq {
		return nil, fmt.Errorf("%w: output has type %s, claimed %s", ErrClaimMismatch, got, claimedType)
	}
	// Finally, the claimed output itself must still be unspent on chain —
	// otherwise the resource was already exercised.
	if rec, spent := view.IsSpent(claim); spent {
		return nil, fmt.Errorf("typecoin: claimed output %v already spent by %s", claim, rec.Spender)
	}
	return state, nil
}
