package bench

import (
	"fmt"

	"typecoin/internal/client"
	"typecoin/internal/lf"
	"typecoin/internal/logic"
	"typecoin/internal/proof"
	"typecoin/internal/script"
	"typecoin/internal/typecoin"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

// Experiment E4 (Section 5): "Alice can revoke the offer at any time
// (with about fifteen minutes average latency), simply by spending I."
//
// We publish a revocable offer conditioned on ~spent(R), then broadcast
// the revocation (a plain spend of R) and measure how many blocks pass
// before a discharge of the offer is rejected: the revocation takes
// effect once its spend is on chain, i.e. after the block in flight plus
// the mining wait — on Bitcoin, roughly 1.5 block intervals (fifteen
// minutes).

// E4Row is one row of the E4 table.
type E4Row struct {
	Trial             int
	DischargeBeforeOK bool // discharge accepted before revocation
	BlocksToRevoke    int  // blocks between revocation broadcast and enforcement
	DischargeAfterOK  bool // discharge accepted after revocation (must be false)
}

// String formats the row.
func (r E4Row) String() string {
	return fmt.Sprintf("trial=%d before_ok=%v blocks_to_revoke=%d after_ok=%v",
		r.Trial, r.DischargeBeforeOK, r.BlocksToRevoke, r.DischargeAfterOK)
}

// RunE4 runs the revocation experiment `trials` times.
func RunE4(trials int) ([]E4Row, error) {
	var rows []E4Row
	for trial := 0; trial < trials; trial++ {
		row, err := runE4Once(trial)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runE4Once(trial int) (E4Row, error) {
	env, err := NewEnv(fmt.Sprintf("e4-%d", trial))
	if err != nil {
		return E4Row{}, err
	}
	if err := env.Fund(); err != nil {
		return E4Row{}, err
	}
	cl := client.New(env.Chain, env.Pool, env.Wallet, env.Ledger)
	aliceKey, err := env.Wallet.Key(env.Payout)
	if err != nil {
		return E4Row{}, err
	}

	// The revocation anchor R: a plain P2PKH output Alice controls.
	anchorTx, err := env.Wallet.Build([]wallet.Output{
		{Value: 20_000, PkScript: script.PayToPubKeyHash(env.Payout)},
	}, wallet.BuildOptions{})
	if err != nil {
		return E4Row{}, err
	}
	if _, err := env.Pool.Accept(anchorTx); err != nil {
		return E4Row{}, err
	}
	if err := env.Mine(1); err != nil {
		return E4Row{}, err
	}
	anchor := wire.OutPoint{Hash: anchorTx.TxHash(), Index: 0}

	// The offer: a token whose discharge requires ~spent(R). Alice
	// issues offer-tokens; each discharge converts one into a good,
	// provided the offer is unrevoked.
	t0 := typecoin.NewTx()
	if err := t0.Basis.DeclareFam(lf.This("offer"), lf.KProp{}); err != nil {
		return E4Row{}, err
	}
	if err := t0.Basis.DeclareFam(lf.This("good"), lf.KProp{}); err != nil {
		return E4Row{}, err
	}
	offer := logic.Atom(lf.This("offer"))
	good := logic.Atom(lf.This("good"))
	redeem := logic.Lolli(offer, logic.If(logic.Unspent(anchor), good))
	if err := t0.Basis.DeclareProp(lf.This("redeem"), redeem); err != nil {
		return E4Row{}, err
	}
	// Grant two offer tokens: one to discharge before revocation, one to
	// attempt after.
	t0.Grant = logic.Tensor(offer, offer)
	t0.Outputs = []typecoin.Output{
		{Type: offer, Amount: 10_000, Owner: aliceKey.PubKey()},
		{Type: offer, Amount: 10_000, Owner: aliceKey.PubKey()},
	}
	t0.Proof = proof.Lam{Name: "d", Ty: t0.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("c")}}}
	carrier0, err := cl.Submit(t0)
	if err != nil {
		return E4Row{}, err
	}
	if err := env.Mine(1); err != nil {
		return E4Row{}, err
	}
	t0id := carrier0.TxHash()
	offerG := logic.Atom(lf.TxRef(t0id, "offer"))
	goodG := logic.Atom(lf.TxRef(t0id, "good"))

	discharge := func(idx uint32) (bool, error) {
		tx := typecoin.NewTx()
		op := wire.OutPoint{Hash: t0id, Index: idx}
		tx.Inputs = []typecoin.Input{{Source: op, Type: offerG, Amount: 10_000}}
		tx.Outputs = []typecoin.Output{{Type: goodG, Amount: 10_000, Owner: aliceKey.PubKey()}}
		tx.Proof = proof.Lam{Name: "d", Ty: tx.Domain(),
			Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
				Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
					Body: proof.Apply(proof.Const{Ref: lf.TxRef(t0id, "redeem")}, proof.V("a"))}}}
		carrier, err := cl.Submit(tx)
		if err != nil {
			return false, err
		}
		if err := env.Mine(1); err != nil {
			return false, err
		}
		return cl.Ledger.Applied(carrier.TxHash()), nil
	}

	row := E4Row{Trial: trial}
	// Discharge the first token before revocation: must succeed.
	ok, err := discharge(0)
	if err != nil {
		return E4Row{}, err
	}
	row.DischargeBeforeOK = ok

	// Alice revokes by spending the anchor; measure how many blocks it
	// takes for the revocation to be enforceable (spend confirmed).
	revoke, err := env.Wallet.Build(nil, wallet.BuildOptions{
		ExtraInputs: []wire.OutPoint{anchor},
	})
	if err != nil {
		return E4Row{}, err
	}
	if _, err := env.Pool.Accept(revoke); err != nil {
		return E4Row{}, err
	}
	blocks := 0
	for {
		if _, spent := env.Chain.IsSpent(anchor); spent {
			break
		}
		if err := env.Mine(1); err != nil {
			return E4Row{}, err
		}
		blocks++
		if blocks > 10 {
			return E4Row{}, fmt.Errorf("bench: revocation never confirmed")
		}
	}
	row.BlocksToRevoke = blocks

	// Discharge the second token after revocation: must fail (the
	// transaction enters the chain but is typecoin-invalid, spoiling its
	// input — the hazard fallback transactions address).
	ok, err = discharge(1)
	if err != nil {
		return E4Row{}, err
	}
	row.DischargeAfterOK = ok
	return row, nil
}
