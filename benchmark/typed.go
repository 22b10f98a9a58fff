package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"typecoin/internal/bkey"
	"typecoin/internal/chainhash"
	"typecoin/internal/client"
	"typecoin/internal/demo"
	"typecoin/internal/lf"
	"typecoin/internal/logic"
	"typecoin/internal/mempool"
	"typecoin/internal/proof"
	"typecoin/internal/typecoin"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

// typed_commit sizes. 64 token lineages live in 16 age groups of 4; a
// lineage that has 16 Typecoin transactions upstream is verified and
// issued afresh, so upstream depth never exceeds typedDepth.
const (
	typedLineages = 64
	typedDepth    = 16
	typedGroups   = typedDepth
	typedOwners   = 16
	typedFeeCoins = 192
	typedAmount   = 10_000 // satoshi carried by a whole token
	typedRounds   = 8
	typedWarmup   = 4
)

// typedOut is one live typed output: coin n at op, carrying amount.
type typedOut struct {
	op     wire.OutPoint
	n      uint64
	amount int64
}

// lineage is one token: issued as coin P, then alternately split in two
// and merged back, changing owner every step.
type lineage struct {
	outs  []typedOut
	depth int // Typecoin transactions upstream of outs, the issue included
	owner int
}

type typedWorld struct {
	fileWorld
	cl  *client.Client
	rng *rand.Rand

	basis    chainhash.Hash // carrier of the basis transaction
	issuer   *bkey.PrivateKey
	owners   []*bkey.PrivateKey
	fees     coins // one pays each carrier's fee
	lineages []lineage
	roundNo  int
	issued   uint64
	// lastClaim is an honest claim of coin lastClaimN, for the forged
	// control.
	lastClaim  *typecoin.Claim
	lastClaimN uint64
	// lastTx and lastCarrier are a transfer the chain has confirmed, for
	// the double-spend control.
	lastTx      *typecoin.Tx
	lastCarrier *wire.MsgTx
	gateErrs    []error
	bundles     []float64 // bundles per claim verified in traced epochs
}

func (t *typedWorld) ref(label string) lf.Ref { return lf.TxRef(t.basis, label) }
func (t *typedWorld) coin(n uint64) logic.Prop {
	return logic.Atom(t.ref("coin"), lf.Nat(n))
}

func setupTyped(ctx context.Context, cfg runConfig) (world, error) {
	fw, err := openFileWorld("typed_commit", cfg)
	if err != nil {
		return nil, err
	}
	t := &typedWorld{fileWorld: fw, rng: rand.New(rand.NewSource(cfg.seed))}
	t.cl = client.New(t.n.chain, t.n.pool, t.n.wallet, t.n.ledger)
	if err := t.populate(ctx); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// populate funds the fee coins, publishes the basis and ramps the
// lineages up to their staggered ages: group g is issued in ramp round g,
// so after typedGroups rounds the groups sit at depths 16, 15, ..., 1.
func (t *typedWorld) populate(ctx context.Context) error {
	newKey := func() (*bkey.PrivateKey, error) {
		p, err := t.n.wallet.NewKey()
		if err != nil {
			return nil, err
		}
		return t.n.wallet.Key(p)
	}
	var err error
	var ownerKeys []bkey.Principal
	if t.issuer, err = newKey(); err != nil {
		return err
	}
	for i := 0; i < typedOwners; i++ {
		k, err := newKey()
		if err != nil {
			return err
		}
		t.owners = append(t.owners, k)
		ownerKeys = append(ownerKeys, k.Principal())
	}
	if err := t.w.fund(&t.fees, t.rng, ownerKeys, typedFeeCoins, 64); err != nil {
		return err
	}
	if err := t.publishBasis(); err != nil {
		return fmt.Errorf("publish basis: %w", err)
	}
	t.lineages = make([]lineage, typedLineages)
	for r := 0; r < typedGroups; r++ {
		if err := t.round(ctx, newEpoch()); err != nil {
			return fmt.Errorf("ramp round %d: %w", r, err)
		}
	}
	return nil
}

// publishBasis commits the newcoin-style basis: coin and print families,
// the merge and split rules guarded by plus, and a mint rule that turns
// the issuer's signed print order into a coin.
func (t *typedWorld) publishBasis() error {
	t0 := typecoin.NewTx()
	b := t0.Basis
	natToProp := lf.KArrow(lf.NatFam, lf.KProp{})
	for _, fam := range []string{"coin", "print"} {
		if err := b.DeclareFam(lf.This(fam), natToProp); err != nil {
			return err
		}
	}
	coinP := func(m lf.Term) logic.Prop { return logic.Atom(lf.This("coin"), m) }
	guard := func(n, m, p lf.Term) logic.Prop {
		return logic.Exists("x", lf.FamApp(lf.PlusFam, n, m, p), logic.One)
	}
	forall3 := func(body logic.Prop) logic.Prop {
		return logic.Forall("N", lf.NatFam, logic.Forall("M", lf.NatFam, logic.Forall("P", lf.NatFam, body)))
	}
	n, m, p := lf.Var(2, "N"), lf.Var(1, "M"), lf.Var(0, "P")
	rules := []struct {
		name string
		prop logic.Prop
	}{
		{"merge", forall3(logic.Lolli(guard(n, m, p), logic.Tensor(coinP(n), coinP(m)), coinP(p)))},
		{"split", forall3(logic.Lolli(guard(n, m, p), coinP(p), logic.Tensor(coinP(n), coinP(m))))},
		{"mint", logic.Forall("N", lf.NatFam, logic.Lolli(
			logic.Says(lf.Principal(t.issuer.Principal()), logic.Atom(lf.This("print"), lf.Var(0, "N"))),
			coinP(lf.Var(0, "N"))))},
	}
	for _, r := range rules {
		if err := b.DeclareProp(lf.This(r.name), r.prop); err != nil {
			return err
		}
	}
	// A transaction needs an output; the basis grants itself one coin.
	t0.Grant = coinP(lf.Nat(1))
	t0.Outputs = []typecoin.Output{{Type: coinP(lf.Nat(1)), Amount: typedAmount, Owner: t.owners[0].PubKey()}}
	t0.Proof = demo.ProjectGrant(t0.Domain())
	carrier, err := t.submit(t0, nil, newEpoch())
	if err != nil {
		return err
	}
	t.basis = carrier.TxHash()
	if _, err := t.w.mine(); err != nil {
		return err
	}
	t.fees.confirmed()
	return nil
}

// issueTx mints coin p to owner from the issuer's signed print order.
func (t *typedWorld) issueTx(p uint64, owner *bkey.PrivateKey) (*typecoin.Tx, []uint64, error) {
	tx := typecoin.NewTx()
	tx.Outputs = []typecoin.Output{{Type: t.coin(p), Amount: typedAmount, Owner: owner.PubKey()}}
	order := logic.Atom(t.ref("print"), lf.Nat(p))
	sig, err := proof.SignAffine(t.issuer, order, tx.SigPayload())
	if err != nil {
		return nil, nil, err
	}
	tx.Proof = demo.WithDomain(tx.Domain(), proof.Apply(
		proof.TApply(proof.Const{Ref: t.ref("mint")}, lf.Nat(p)),
		proof.Assert{Key: t.issuer.PubKey(), Prop: order, Sig: sig}))
	return tx, []uint64{p}, nil
}

// transferTx moves a lineage to owner: one output is split in two, two
// outputs are merged into one. It also returns the coin value of each
// output.
func (t *typedWorld) transferTx(l *lineage, owner *bkey.PrivateKey) (*typecoin.Tx, []uint64) {
	tx := typecoin.NewTx()
	for _, o := range l.outs {
		tx.Inputs = append(tx.Inputs, typecoin.Input{Source: o.op, Type: t.coin(o.n), Amount: o.amount})
	}
	var rule string
	var a, b, whole uint64
	var values []uint64
	if len(l.outs) == 1 {
		rule, whole = "split", l.outs[0].n
		a = 1 + uint64(t.rng.Int63n(int64(whole-1)))
		b = whole - a
		half := l.outs[0].amount / 2
		tx.Outputs = []typecoin.Output{
			{Type: t.coin(a), Amount: half, Owner: owner.PubKey()},
			{Type: t.coin(b), Amount: l.outs[0].amount - half, Owner: owner.PubKey()},
		}
		values = []uint64{a, b}
	} else {
		rule, a, b = "merge", l.outs[0].n, l.outs[1].n
		whole = a + b
		tx.Outputs = []typecoin.Output{
			{Type: t.coin(whole), Amount: l.outs[0].amount + l.outs[1].amount, Owner: owner.PubKey()},
		}
		values = []uint64{whole}
	}
	guard := proof.Pack{
		Witness: lf.App(lf.PlusIntro, lf.Nat(a), lf.Nat(b)),
		Of:      proof.Unit{},
		As:      logic.Exists("x", lf.FamApp(lf.PlusFam, lf.Nat(a), lf.Nat(b), lf.Nat(whole)), logic.One),
	}
	tx.Proof = demo.WithDomain(tx.Domain(), proof.Apply(
		proof.TApply(proof.Const{Ref: t.ref(rule)}, lf.Nat(a), lf.Nat(b), lf.Nat(whole)),
		guard, proof.V("a")))
	return tx, values
}

// submit is one client submission of a Typecoin transaction, with
// client.Submit's steps (and a type check against the ledger first, as a
// client that pays a fee per carrier would) each in its own span.
func (t *typedWorld) submit(tx *typecoin.Tx, spends []typedOut, ep *epoch) (*wire.MsgTx, error) {
	fee, err := t.fees.take(t.rng)
	if err != nil {
		return nil, err
	}
	extra := make([]wire.OutPoint, 0, len(spends)+1)
	for _, o := range spends {
		extra = append(extra, o.op)
	}
	extra = append(extra, fee.op)

	start := time.Now()
	top := t.tr.begin("submit.typed", noSpan)
	carrier, err := t.submitSteps(tx, extra, top)
	t.tr.end(top)
	if err != nil {
		return nil, err
	}
	ep.add("submit", time.Since(start))

	// The carrier's last output is the fee coin's change.
	if last := len(carrier.TxOut) - 1; last >= len(tx.Outputs) {
		t.fees.pending = append(t.fees.pending, coin{
			wire.OutPoint{Hash: carrier.TxHash(), Index: uint32(last)}, carrier.TxOut[last].Value})
	}
	if t.tr != nil && t.tr.on.Load() {
		t.probeProof(tx.Proof)
	}
	return carrier, nil
}

// submitSteps is the timed part of submit.
func (t *typedWorld) submitSteps(tx *typecoin.Tx, extra []wire.OutPoint, top int32) (*wire.MsgTx, error) {
	tr := t.tr
	id := tr.begin("ledger.check", top)
	err := t.n.ledger.CheckInstance(tx)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("type check: %w", err)
	}
	id = tr.begin("typecoin.carrier_outputs", top)
	carrierOuts, err := typecoin.CarrierOutputs(tx)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	outs := make([]wallet.Output, len(carrierOuts))
	for i, o := range carrierOuts {
		outs[i] = wallet.Output{Value: o.Value, PkScript: o.PkScript}
	}
	carrier, err := t.w.build(outs, wallet.BuildOptions{ChangeTo: t.n.payout, ExtraInputs: extra}, top)
	if err != nil {
		return nil, err
	}
	id = tr.begin("typecoin.embed", top)
	err = typecoin.VerifyEmbedding(tx, carrier)
	tr.end(id)
	if err == nil {
		err = t.w.accept(carrier, top)
	}
	if err != nil {
		t.n.wallet.Unlock(carrier)
		return nil, err
	}
	id = tr.begin("ledger.announce", top)
	t.w.enter(id)
	t.n.ledger.Announce(tx)
	t.w.enter(noSpan)
	tr.end(id)
	return carrier, nil
}

// probeProof times one encode and decode of a generated proof term, what
// every node that receives the announcement pays. Traced run only.
func (t *typedWorld) probeProof(term proof.Term) {
	id := t.tr.begin("proof.encode_decode", noSpan)
	var buf bytes.Buffer
	err := proof.Encode(&buf, term)
	if err == nil {
		_, err = proof.Decode(&buf)
	}
	t.tr.end(id)
	if err != nil {
		t.gateErrs = append(t.gateErrs, fmt.Errorf("proof term does not round-trip: %w", err))
	}
}

// verify exports the claim on a lineage's first output and runs the
// trust-free verifier over it, as the party receiving the token would.
func (t *typedWorld) verify(l *lineage, ep *epoch) error {
	start := time.Now()
	top := t.tr.begin("verify.claim", noSpan)
	id := t.tr.begin("ledger.export_claim", top)
	claim, err := t.cl.ExportClaim(l.outs[0].op)
	t.tr.end(id)
	if err != nil {
		t.tr.end(top)
		return err
	}
	id = t.tr.begin("ledger.verify_claim", top)
	err = typecoin.VerifyClaim(t.n.chain, claim, t.n.ledger.MinConf())
	t.tr.end(id)
	t.tr.end(top)
	if err != nil {
		return err
	}
	ep.add("verify", time.Since(start))
	// The lineage's transactions plus the basis they all mention.
	if want := l.depth + 1; len(claim.Bundles) != want {
		return fmt.Errorf("claim carries %d bundles, want %d", len(claim.Bundles), want)
	}
	t.lastClaim, t.lastClaimN = claim, l.outs[0].n
	if t.tr != nil && t.tr.on.Load() {
		t.bundles = append(t.bundles, float64(len(claim.Bundles)))
	}
	return nil
}

// round verifies and re-issues the lineages that reached typedDepth,
// transfers the others, and commits everything in one block.
func (t *typedWorld) round(_ context.Context, ep *epoch) error {
	t.w.ep = ep
	sent := 0
	type update struct {
		l       *lineage
		tx      *typecoin.Tx
		carrier *wire.MsgTx
		values  []uint64 // coin value of each output
	}
	var updates []update
	for i := range t.lineages {
		l := &t.lineages[i]
		group := i * typedGroups / typedLineages
		if l.depth == 0 && t.roundNo < group {
			continue // not yet issued: the ramp reaches this group later
		}
		if l.depth == typedDepth {
			ep.attempted++
			if err := t.verify(l, ep); err != nil {
				ep.failed++
				t.gateErrs = append(t.gateErrs, fmt.Errorf("honest claim refused: %w", err))
			}
			l.depth, l.outs = 0, nil
		}
		owner := t.owners[(l.owner+1)%len(t.owners)]
		u := update{l: l}
		var err error
		if l.depth == 0 {
			// Two issues of the same value to the same owner would be the
			// same Typecoin transaction; a serial keeps every value unique.
			t.issued++
			u.tx, u.values, err = t.issueTx(1000+8*t.issued+uint64(t.rng.Intn(8)), owner)
		} else {
			u.tx, u.values = t.transferTx(l, owner)
		}
		ep.attempted++
		if err == nil {
			u.carrier, err = t.submit(u.tx, l.outs, ep)
		}
		if err != nil {
			ep.failed++
			t.gateErrs = append(t.gateErrs, fmt.Errorf("submit: %w", err))
			continue
		}
		sent++
		updates = append(updates, u)
	}
	m, err := t.w.mine()
	if err != nil {
		return err
	}
	ep.add("block_commit", m.returned.Sub(m.start))
	if got := len(m.blk.Transactions) - 1; got != sent {
		return fmt.Errorf("block holds %d transactions, %d were submitted", got, sent)
	}
	t.fees.confirmed()
	for _, u := range updates {
		id := u.carrier.TxHash()
		if !t.n.ledger.Applied(id) {
			return fmt.Errorf("carrier %s mined but its Typecoin transaction was not applied ", id)
		}
		u.l.outs = u.l.outs[:0]
		for i, out := range u.tx.Outputs {
			u.l.outs = append(u.l.outs, typedOut{
				op:     wire.OutPoint{Hash: id, Index: uint32(i)},
				n:      u.values[i],
				amount: out.Amount,
			})
		}
		u.l.depth++
		u.l.owner++
		if len(u.tx.Inputs) > 0 {
			t.lastTx, t.lastCarrier = u.tx, u.carrier
		}
	}
	ep.committed += sent
	ep.blocks++
	t.roundNo++
	return nil
}

// endEpoch runs the negative controls: a forged claim must not verify,
// and a transfer whose inputs the chain has already consumed must be
// refused by the ledger's type check and by the mempool.
func (t *typedWorld) endEpoch(_ context.Context, ep *epoch) error {
	if t.lastClaim == nil || t.lastTx == nil {
		return nil // an epoch too short to have verified anything (smoke test)
	}
	forged := *t.lastClaim
	forged.Type = t.coin(t.lastClaimN + 1)
	if err := typecoin.VerifyClaim(t.n.chain, &forged, t.n.ledger.MinConf()); err == nil {
		t.gateErrs = append(t.gateErrs, errors.New("forged claim verified"))
	}
	ep.expected++

	if err := t.n.ledger.CheckInstance(t.lastTx); err == nil {
		t.gateErrs = append(t.gateErrs, errors.New("ledger type-checked a double spend"))
	}
	double := t.lastCarrier.Copy()
	double.TxOut[len(double.TxOut)-1].Value--
	if _, err := t.n.pool.Accept(double); err == nil {
		t.gateErrs = append(t.gateErrs, errors.New("mempool admitted a double spend"))
	} else if !errors.Is(err, mempool.ErrOrphanTx) && !errors.Is(err, mempool.ErrPoolConflict) {
		t.gateErrs = append(t.gateErrs, fmt.Errorf("double spend refused for the wrong reason: %w", err))
	}
	ep.expected++
	return nil
}

func (t *typedWorld) finish(_ context.Context, r *report) error {
	r.series["bundles"] = append(r.series["bundles"], t.bundles...)
	r.gate(append(t.gateErrs, auditNode(t.n)...))
	return nil
}
