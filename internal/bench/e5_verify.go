package bench

import (
	"fmt"
	"time"

	"typecoin/internal/batch"
	"typecoin/internal/bkey"
	"typecoin/internal/client"
	"typecoin/internal/lf"
	"typecoin/internal/logic"
	"typecoin/internal/proof"
	"typecoin/internal/testutil"
	"typecoin/internal/typecoin"
	"typecoin/internal/wire"
)

// Experiment E5 (Section 3): "type-checking is performed by the
// interested parties, outside the Bitcoin mechanism" — the claimant
// provides the transaction plus all upstream transactions, and the
// verifier re-checks everything. Verification cost therefore grows with
// upstream history length; batch mode (E2) bounds the history a
// withdrawal leaves behind.

// E5Row is one row of the E5 table.
type E5Row struct {
	UpstreamLen int
	VerifyTime  time.Duration
	PerTx       time.Duration
}

// String formats the row.
func (r E5Row) String() string {
	return fmt.Sprintf("upstream=%-5d verify=%-12v per-tx=%v", r.UpstreamLen, r.VerifyTime, r.PerTx)
}

// E5Setup builds a chain with an n-long transfer history and returns
// what Verify needs, so benchmarks can time only the verification.
type E5Setup struct {
	View    typecoin.ChainView
	Claim   wire.OutPoint
	Type    logic.Prop
	Bundles []*typecoin.Bundle
}

// NewE5Setup issues a token and transfers it n-1 times, one carrier per
// block.
func NewE5Setup(n int) (*E5Setup, error) {
	env, err := NewEnv(fmt.Sprintf("e5-%d", n))
	if err != nil {
		return nil, err
	}
	if err := env.Fund(); err != nil {
		return nil, err
	}
	cl := client.New(env.Chain, env.Pool, env.Wallet, env.Ledger)
	key, err := env.Wallet.Key(env.Payout)
	if err != nil {
		return nil, err
	}
	const amount = 10_000
	op, tokGlobal, err := issueToken(env, cl, key.PubKey(), amount)
	if err != nil {
		return nil, err
	}
	for i := 1; i < n; i++ {
		tx := typecoin.NewTx()
		tx.Inputs = []typecoin.Input{{Source: op, Type: tokGlobal, Amount: amount}}
		tx.Outputs = []typecoin.Output{{Type: tokGlobal, Amount: amount, Owner: key.PubKey()}}
		tx.Proof = tokenProofOnChain(tx.Domain())
		carrier, err := cl.Submit(tx)
		if err != nil {
			return nil, fmt.Errorf("transfer %d: %w", i, err)
		}
		if err := env.Mine(1); err != nil {
			return nil, err
		}
		op = wire.OutPoint{Hash: carrier.TxHash(), Index: 0}
	}
	bundles, err := env.Ledger.UpstreamBundles(op)
	if err != nil {
		return nil, err
	}
	return &E5Setup{View: env.Chain, Claim: op, Type: tokGlobal, Bundles: bundles}, nil
}

// Verify runs the trust-free verifier once.
func (s *E5Setup) Verify() error {
	_, err := typecoin.Verify(s.View, s.Claim, s.Type, s.Bundles, 1)
	return err
}

// RunE5 measures verification time for each upstream length.
func RunE5(ns []int) ([]E5Row, error) {
	var rows []E5Row
	for _, n := range ns {
		setup, err := NewE5Setup(n)
		if err != nil {
			return nil, err
		}
		if len(setup.Bundles) != n {
			return nil, fmt.Errorf("bench: expected %d bundles, got %d", n, len(setup.Bundles))
		}
		// Warm once, then time the best of three.
		if err := setup.Verify(); err != nil {
			return nil, err
		}
		best := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if err := setup.Verify(); err != nil {
				return nil, err
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		rows = append(rows, E5Row{
			UpstreamLen: n,
			VerifyTime:  best,
			PerTx:       best / time.Duration(n),
		})
	}
	return rows, nil
}

// RunE5Checker measures the raw proof-checker throughput on the newcoin
// merge proof (the Figure 3 flavor of work), in checks per second.
func RunE5Checker(iters int) (time.Duration, error) {
	b := logic.NewBasis(nil)
	if err := b.DeclareFam(lf.This("coin"), lf.KArrow(lf.NatFam, lf.KProp{})); err != nil {
		return 0, err
	}
	coin := func(n uint64) logic.Prop { return logic.Atom(lf.This("coin"), lf.Nat(n)) }
	coinP := func(m lf.Term) logic.Prop { return logic.Atom(lf.This("coin"), m) }
	merge := logic.Forall("N", lf.NatFam, logic.Forall("M", lf.NatFam, logic.Forall("P", lf.NatFam,
		logic.Lolli(
			logic.Exists("x", lf.FamApp(lf.PlusFam, lf.Var(2, "N"), lf.Var(1, "M"), lf.Var(0, "P")), logic.One),
			logic.Tensor(coinP(lf.Var(2, "N")), coinP(lf.Var(1, "M"))),
			coinP(lf.Var(0, "P")),
		))))
	if err := b.DeclareProp(lf.This("merge"), merge); err != nil {
		return 0, err
	}
	guard := proof.Pack{
		Witness: lf.App(lf.PlusIntro, lf.Nat(2), lf.Nat(3)),
		Of:      proof.Unit{},
		As:      logic.Exists("x", lf.FamApp(lf.PlusFam, lf.Nat(2), lf.Nat(3), lf.Nat(5)), logic.One),
	}
	m := proof.Lam{Name: "p", Ty: logic.Tensor(coin(2), coin(3)),
		Body: proof.Apply(
			proof.TApply(proof.Const{Ref: lf.This("merge")}, lf.Nat(2), lf.Nat(3), lf.Nat(5)),
			guard, proof.V("p"))}
	want := logic.Lolli(logic.Tensor(coin(2), coin(3)), coin(5))
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := proof.Check(b, nil, m, want); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// E5BatchRow is the batch-mode ablation of E5: the same k-transfer
// history conducted off-chain and flushed by one withdrawal leaves a
// two-bundle upstream set, so verification cost no longer grows with k.
type E5BatchRow struct {
	Transfers   int
	BundleCount int
	VerifyTime  time.Duration
}

// String formats the row.
func (r E5BatchRow) String() string {
	return fmt.Sprintf("transfers=%-5d bundles=%-3d verify=%v", r.Transfers, r.BundleCount, r.VerifyTime)
}

// RunE5Batch runs the batch ablation for each transfer count.
func RunE5Batch(ks []int) ([]E5BatchRow, error) {
	var rows []E5BatchRow
	for _, k := range ks {
		setup, err := newE5BatchSetup(k)
		if err != nil {
			return nil, err
		}
		if err := setup.Verify(); err != nil {
			return nil, err
		}
		best := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if err := setup.Verify(); err != nil {
				return nil, err
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		rows = append(rows, E5BatchRow{
			Transfers:   k,
			BundleCount: len(setup.Bundles),
			VerifyTime:  best,
		})
	}
	return rows, nil
}

func newE5BatchSetup(k int) (*E5Setup, error) {
	env, err := NewEnv(fmt.Sprintf("e5b-%d", k))
	if err != nil {
		return nil, err
	}
	if err := env.Fund(); err != nil {
		return nil, err
	}
	cl := client.New(env.Chain, env.Pool, env.Wallet, env.Ledger)
	serverKey, err := bkey.NewPrivateKey(testutil.NewEntropy(fmt.Sprintf("e5b-server-%d", k)))
	if err != nil {
		return nil, err
	}
	server := batch.NewServer(cl, serverKey)
	alice, err := env.Wallet.NewKey()
	if err != nil {
		return nil, err
	}
	aliceKey, err := env.Wallet.Key(alice)
	if err != nil {
		return nil, err
	}
	const amount = 10_000
	op, tokGlobal, err := issueToken(env, cl, server.Key(), amount)
	if err != nil {
		return nil, err
	}
	if err := server.Deposit(op, alice); err != nil {
		return nil, err
	}
	cur := op
	for i := 0; i < k; i++ {
		tx := typecoin.NewTx()
		tx.Inputs = []typecoin.Input{{Source: cur, Type: tokGlobal, Amount: amount}}
		tx.Outputs = []typecoin.Output{{Type: tokGlobal, Amount: amount, Owner: aliceKey.PubKey()}}
		tx.Proof = proof.Lam{Name: "d", Ty: tx.DomainOffChain(),
			Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
				Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
					Body: proof.V("a")}}}
		if err := server.SubmitOffChain(tx, alice); err != nil {
			return nil, fmt.Errorf("off-chain %d: %w", i, err)
		}
		cur = wire.OutPoint{Hash: tx.Hash(), Index: 0}
	}
	carrier, _, err := server.Withdraw(cur, aliceKey.PubKey())
	if err != nil {
		return nil, err
	}
	if err := env.Mine(1); err != nil {
		return nil, err
	}
	claim := wire.OutPoint{Hash: carrier.TxHash(), Index: 0}
	bundles, err := env.Ledger.UpstreamBundles(claim)
	if err != nil {
		return nil, err
	}
	return &E5Setup{View: env.Chain, Claim: claim, Type: tokGlobal, Bundles: bundles}, nil
}
