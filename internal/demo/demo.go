// Package demo provides the shared scaffolding for the runnable examples
// under examples/: a funded single-node regtest environment with a
// Typecoin client, plus the common proof-term skeletons.
package demo

import (
	"typecoin/internal/bkey"
	"typecoin/internal/chain"
	"typecoin/internal/client"
	"typecoin/internal/clock"
	"typecoin/internal/logic"
	"typecoin/internal/node"
	"typecoin/internal/proof"
	"typecoin/internal/testutil"
)

// Env is a funded regtest node with a Typecoin client (minConf 1).
type Env struct {
	*node.Node
	Params   *chain.Params
	Clock    *clock.Simulated
	Client   *client.Client
	MinerKey bkey.Principal
}

// NewEnv builds and funds the environment.
func NewEnv(seed string) (*Env, error) {
	clk := node.SimClock()
	nd, err := node.Open(node.Config{Clock: clk, Entropy: testutil.NewEntropy(seed)})
	if err != nil {
		return nil, err
	}
	minerKey, err := nd.Wallet.NewKey()
	if err != nil {
		return nil, err
	}
	env := &Env{
		Node: nd, Params: nd.Chain.Params(), Clock: clk, MinerKey: minerKey,
		Client: client.New(nd.Chain, nd.Pool, nd.Wallet, nd.Ledger),
	}
	if err := env.Mine(env.Params.CoinbaseMaturity + 5); err != nil {
		return nil, err
	}
	return env, nil
}

// Mine mines n blocks, advancing the simulated clock by the target
// spacing for each.
func (e *Env) Mine(n int) error {
	for i := 0; i < n; i++ {
		e.Clock.Advance(e.Params.TargetSpacing)
		if _, _, err := e.Miner.Mine(e.MinerKey); err != nil {
			return err
		}
	}
	return nil
}

// NewActor generates a key pair for a named participant.
func (e *Env) NewActor() (bkey.Principal, *bkey.PrivateKey, error) {
	p, err := e.Wallet.NewKey()
	if err != nil {
		return bkey.Principal{}, nil, err
	}
	key, err := e.Wallet.Key(p)
	if err != nil {
		return bkey.Principal{}, nil, err
	}
	return p, key, nil
}

// Now returns the simulated time as a nat (unix seconds), the clock the
// before(t) conditions are judged against.
func (e *Env) Now() uint64 { return uint64(e.Clock.Now().Unix()) }

// WithDomain builds the standard proof skeleton: a lambda over the
// transaction domain C (x) A (x) R with c (grant), a (inputs) and r
// (receipts) in scope for body.
func WithDomain(domain logic.Prop, body proof.Term) proof.Term {
	return proof.Lam{Name: "d", Ty: domain,
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: body}}}
}

// ProjectGrant is the proof for a pure grant transaction: consume the
// domain, return C.
func ProjectGrant(domain logic.Prop) proof.Term {
	return WithDomain(domain, proof.V("c"))
}

// PassInputs is the proof for a pure transfer: consume the domain,
// return A.
func PassInputs(domain logic.Prop) proof.Term {
	return WithDomain(domain, proof.V("a"))
}
