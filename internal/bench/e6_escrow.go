package bench

import (
	"fmt"
	"time"

	"typecoin/internal/bkey"
	"typecoin/internal/chainhash"
	"typecoin/internal/client"
	"typecoin/internal/escrow"
	"typecoin/internal/lf"
	"typecoin/internal/logic"
	"typecoin/internal/mempool"
	"typecoin/internal/proof"
	"typecoin/internal/testutil"
	"typecoin/internal/typecoin"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

// Experiment E6 (Section 7): type-checking escrow. The agent's policy —
// "sign any instance of the transaction that type checks" — costs one
// template match, one embedding check, one full type check and one
// signature per agent. We measure the end-to-end signature-collection
// latency for pool thresholds m-of-n, including the tolerance case where
// compromised agents refuse.

// E6Row is one row of the E6 table.
type E6Row struct {
	M, N        int
	Compromised int // agents that refuse to sign
	CollectTime time.Duration
	Succeeded   bool
}

// String formats the row.
func (r E6Row) String() string {
	return fmt.Sprintf("%d-of-%d compromised=%d collect=%-12v ok=%v",
		r.M, r.N, r.Compromised, r.CollectTime, r.Succeeded)
}

// RunE6 measures signature collection for each pool configuration.
// Configurations where compromised > n-m must fail.
func RunE6(configs [][3]int) ([]E6Row, error) {
	var rows []E6Row
	for _, cfg := range configs {
		row, err := runE6Once(cfg[0], cfg[1], cfg[2])
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runE6Once(m, n, compromised int) (E6Row, error) {
	env, err := NewEnv(fmt.Sprintf("e6-%d-%d-%d", m, n, compromised))
	if err != nil {
		return E6Row{}, err
	}
	if err := env.Fund(); err != nil {
		return E6Row{}, err
	}
	cl := client.New(env.Chain, env.Pool, env.Wallet, env.Ledger)
	aliceKey, err := env.Wallet.Key(env.Payout)
	if err != nil {
		return E6Row{}, err
	}
	bob, err := env.Wallet.NewKey()
	if err != nil {
		return E6Row{}, err
	}
	bobKey, err := env.Wallet.Key(bob)
	if err != nil {
		return E6Row{}, err
	}

	var agents []*escrow.Agent
	for i := 0; i < n; i++ {
		key, err := bkey.NewPrivateKey(testutil.NewEntropy(fmt.Sprintf("e6-agent-%d-%d-%d-%d", m, n, compromised, i)))
		if err != nil {
			return E6Row{}, err
		}
		agents = append(agents, escrow.NewAgent(key, env.Chain, env.Ledger))
	}
	pool, err := escrow.NewPool(m, agents...)
	if err != nil {
		return E6Row{}, err
	}

	// Alice escrows a prize and opens an offer for a grantable token.
	t0 := typecoin.NewTx()
	if err := t0.Basis.DeclareFam(lf.This("solution"), lf.KProp{}); err != nil {
		return E6Row{}, err
	}
	if err := t0.Basis.DeclareFam(lf.This("prize"), lf.KProp{}); err != nil {
		return E6Row{}, err
	}
	mk := logic.Lolli(logic.One, logic.Atom(lf.This("solution")))
	if err := t0.Basis.DeclareProp(lf.This("mk"), mk); err != nil {
		return E6Row{}, err
	}
	prize := logic.Atom(lf.This("prize"))
	t0.Grant = prize
	const prizeSat = 30_000
	t0.Outputs = []typecoin.Output{{
		Type: prize, Amount: prizeSat, Owner: agents[0].Key(), Escrow: pool.Lock(),
	}}
	t0.Proof = grantProof(t0.Domain())
	carrier0, err := cl.Submit(t0)
	if err != nil {
		return E6Row{}, err
	}
	if err := env.Mine(1); err != nil {
		return E6Row{}, err
	}
	t0id := carrier0.TxHash()
	prizeOp := wire.OutPoint{Hash: t0id, Index: 0}
	prizeG := logic.Atom(lf.TxRef(t0id, "prize"))
	solG := logic.Atom(lf.TxRef(t0id, "solution"))

	const solSat = 10_000
	template := typecoin.NewTx()
	template.Inputs = []typecoin.Input{
		{Type: solG, Amount: solSat},
		{Source: prizeOp, Type: prizeG, Amount: prizeSat},
	}
	template.Outputs = []typecoin.Output{
		{Type: solG, Amount: solSat, Owner: aliceKey.PubKey()},
		{Type: prizeG, Amount: prizeSat},
	}
	template.Proof = tokenProofOnChain(template.Domain())
	open := &typecoin.OpenTx{Template: template, OpenInputs: []int{0}, OpenOwners: []int{1}}
	// Honest agents register; compromised ones never heard of the offer.
	for i := compromised; i < n; i++ {
		agents[i].Register(open)
	}
	// Reorder the pool so compromised agents are consulted first (worst
	// case).
	ordered := make([]*escrow.Agent, 0, n)
	ordered = append(ordered, agents[:compromised]...)
	ordered = append(ordered, agents[compromised:]...)
	pool2, err := escrow.NewPool(m, ordered...)
	if err != nil {
		return E6Row{}, err
	}

	// Bob produces the solution.
	t1 := typecoin.NewTx()
	t1.Outputs = []typecoin.Output{{Type: solG, Amount: solSat, Owner: bobKey.PubKey()}}
	t1.Proof = grantLessSolutionProof(t1.Domain(), t0id)
	carrier1, err := cl.Submit(t1)
	if err != nil {
		return E6Row{}, err
	}
	if err := env.Mine(1); err != nil {
		return E6Row{}, err
	}
	solOp := wire.OutPoint{Hash: carrier1.TxHash(), Index: 0}

	filled, err := open.Fill(map[int]wire.OutPoint{0: solOp},
		map[int]*bkey.PublicKey{1: bobKey.PubKey()})
	if err != nil {
		return E6Row{}, err
	}
	carrierOuts, err := typecoin.CarrierOutputs(filled)
	if err != nil {
		return E6Row{}, err
	}
	outputs := make([]wallet.Output, len(carrierOuts))
	for i, o := range carrierOuts {
		outputs[i] = wallet.Output{Value: o.Value, PkScript: o.PkScript}
	}
	claim, err := env.Wallet.Build(outputs, wallet.BuildOptions{
		Fee:            mempool.DefaultMinRelayFee,
		ExtraInputs:    []wire.OutPoint{solOp},
		ExternalInputs: []wallet.ExternalInput{{OutPoint: prizeOp, Value: prizeSat}},
	})
	if err != nil {
		return E6Row{}, err
	}

	start := time.Now()
	sigScript, err := pool2.CollectSignatures(filled, claim, 1)
	collect := time.Since(start)
	row := E6Row{M: m, N: n, Compromised: compromised, CollectTime: collect, Succeeded: err == nil}
	if err == nil {
		claim.TxIn[1].SignatureScript = sigScript
		if err := cl.SubmitPrebuilt(filled, claim); err != nil {
			return E6Row{}, fmt.Errorf("bench: signed claim rejected: %w", err)
		}
		if err := env.Mine(1); err != nil {
			return E6Row{}, err
		}
		if !cl.Ledger.Applied(claim.TxHash()) {
			return E6Row{}, fmt.Errorf("bench: signed claim not applied")
		}
	} else {
		env.Wallet.Unlock(claim)
	}
	return row, nil
}

// grantLessSolutionProof derives solution from the published mk rule.
func grantLessSolutionProof(domain logic.Prop, t0id chainhash.Hash) proof.Term {
	return proof.Lam{Name: "d", Ty: domain,
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.Apply(proof.Const{Ref: lf.TxRef(t0id, "mk")}, proof.Unit{})}}}
}
