package bench

import (
	"fmt"

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

// Experiment E2 (Section 3.2): "A Bitcoin transaction takes about an
// hour to be confirmed ... a typical transaction fee is 0.0005 bitcoin
// ... in any kind of automated application it would add up quickly. To
// resolve these problems, Typecoin can be operated in batch mode."
//
// We run k credential transfers first directly on chain (one carrier,
// one fee, one confirmation wait per transfer) and then through a batch
// server (zero on-chain transactions until a single withdrawal), and
// report the on-chain cost of each.

// E2Row is one row of the E2 table.
type E2Row struct {
	Transfers     int
	Mode          string
	OnChainTxs    int
	FeesSat       int64
	BlocksAwaited int
}

// String formats the row.
func (r E2Row) String() string {
	return fmt.Sprintf("k=%-5d %-6s onchain=%-5d fees=%dsat blocks=%d",
		r.Transfers, r.Mode, r.OnChainTxs, r.FeesSat, r.BlocksAwaited)
}

// tokenProofOnChain is the proof skeleton for passing a token through.
func tokenProofOnChain(domain logic.Prop) proof.Term {
	return proof.Lam{Name: "d", Ty: domain,
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("a")}}}
}

func grantProof(domain logic.Prop) proof.Term {
	return proof.Lam{Name: "d", Ty: domain,
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("c")}}}
}

// issueToken publishes a token basis and grants the token to owner.
func issueToken(env *Env, cl *client.Client, owner *bkey.PublicKey, amount int64) (wire.OutPoint, logic.Prop, error) {
	tx := typecoin.NewTx()
	if err := tx.Basis.DeclareFam(lf.This("tok"), lf.KProp{}); err != nil {
		return wire.OutPoint{}, nil, err
	}
	tok := logic.Atom(lf.This("tok"))
	tx.Grant = tok
	tx.Outputs = []typecoin.Output{{Type: tok, Amount: amount, Owner: owner}}
	tx.Proof = grantProof(tx.Domain())
	carrier, err := cl.Submit(tx)
	if err != nil {
		return wire.OutPoint{}, nil, err
	}
	if err := env.Mine(cl.Ledger.MinConf()); err != nil {
		return wire.OutPoint{}, nil, err
	}
	global := logic.SubstRefProp(tok, lf.TxRef(carrier.TxHash(), ""))
	return wire.OutPoint{Hash: carrier.TxHash(), Index: 0}, global, nil
}

// RunE2 produces direct-mode and batch-mode rows for each k.
func RunE2(ks []int) ([]E2Row, error) {
	var rows []E2Row
	for _, k := range ks {
		direct, err := runE2Direct(k)
		if err != nil {
			return nil, err
		}
		rows = append(rows, direct)
		batched, err := runE2Batch(k)
		if err != nil {
			return nil, err
		}
		rows = append(rows, batched)
	}
	return rows, nil
}

func runE2Direct(k int) (E2Row, error) {
	env, err := NewEnv(fmt.Sprintf("e2-direct-%d", k))
	if err != nil {
		return E2Row{}, err
	}
	if err := env.Fund(); err != nil {
		return E2Row{}, err
	}
	cl := client.New(env.Chain, env.Pool, env.Wallet, env.Ledger)
	aliceKey, err := env.Wallet.Key(env.Payout)
	if err != nil {
		return E2Row{}, err
	}
	const amount = 10_000
	op, tokGlobal, err := issueToken(env, cl, aliceKey.PubKey(), amount)
	if err != nil {
		return E2Row{}, err
	}

	row := E2Row{Transfers: k, Mode: "direct", OnChainTxs: 1, FeesSat: client.Fee, BlocksAwaited: 1}
	for i := 0; i < k; i++ {
		tx := typecoin.NewTx()
		tx.Inputs = []typecoin.Input{{Source: op, Type: tokGlobal, Amount: amount}}
		tx.Outputs = []typecoin.Output{{Type: tokGlobal, Amount: amount, Owner: aliceKey.PubKey()}}
		tx.Proof = tokenProofOnChain(tx.Domain())
		carrier, err := cl.Submit(tx)
		if err != nil {
			return E2Row{}, fmt.Errorf("transfer %d: %w", i, err)
		}
		if err := env.Mine(1); err != nil {
			return E2Row{}, err
		}
		op = wire.OutPoint{Hash: carrier.TxHash(), Index: 0}
		row.OnChainTxs++
		row.FeesSat += client.Fee
		row.BlocksAwaited++
	}
	return row, nil
}

func runE2Batch(k int) (E2Row, error) {
	env, err := NewEnv(fmt.Sprintf("e2-batch-%d", k))
	if err != nil {
		return E2Row{}, err
	}
	if err := env.Fund(); err != nil {
		return E2Row{}, err
	}
	cl := client.New(env.Chain, env.Pool, env.Wallet, env.Ledger)
	serverKey, err := bkey.NewPrivateKey(testutil.NewEntropy(fmt.Sprintf("e2-server-%d", k)))
	if err != nil {
		return E2Row{}, err
	}
	server := batch.NewServer(cl, serverKey)

	alice, err := env.Wallet.NewKey()
	if err != nil {
		return E2Row{}, err
	}
	aliceKey, err := env.Wallet.Key(alice)
	if err != nil {
		return E2Row{}, err
	}

	const amount = 10_000
	// Deposit: one on-chain transaction.
	op, tokGlobal, err := issueToken(env, cl, server.Key(), amount)
	if err != nil {
		return E2Row{}, err
	}
	if err := server.Deposit(op, alice); err != nil {
		return E2Row{}, err
	}
	row := E2Row{Transfers: k, Mode: "batch", OnChainTxs: 1, FeesSat: client.Fee, BlocksAwaited: 1}

	// k off-chain transfers (Alice to herself through the server): no
	// on-chain activity at all.
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
			return E2Row{}, fmt.Errorf("off-chain transfer %d: %w", i, err)
		}
		cur = wire.OutPoint{Hash: tx.Hash(), Index: 0}
	}

	// One withdrawal flushes everything.
	if _, _, err := server.Withdraw(cur, aliceKey.PubKey()); err != nil {
		return E2Row{}, err
	}
	if err := env.Mine(1); err != nil {
		return E2Row{}, err
	}
	row.OnChainTxs++
	row.FeesSat += client.Fee
	row.BlocksAwaited++
	return row, nil
}
