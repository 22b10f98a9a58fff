// Package bench implements the experiment harness of EXPERIMENTS.md: one
// function per experiment (E1-E6), each returning the rows the paper's
// corresponding claim predicts, so `go test -bench` and cmd/tcbench can
// regenerate every table.
package bench

import (
	"math"

	"typecoin/internal/bkey"
	"typecoin/internal/chain"
	"typecoin/internal/clock"
	"typecoin/internal/node"
	"typecoin/internal/testutil"
)

// Env is a funded single-node environment for experiments.
type Env struct {
	*node.Node
	Params *chain.Params
	Clock  *clock.Simulated
	Payout bkey.Principal
}

// NewEnv builds the environment; its ledger applies carriers at one
// confirmation.
func NewEnv(seed string) (*Env, error) {
	clk := node.SimClock()
	nd, err := node.Open(node.Config{Clock: clk, Entropy: testutil.NewEntropy(seed)})
	if err != nil {
		return nil, err
	}
	payout, err := nd.Wallet.NewKey()
	if err != nil {
		return nil, err
	}
	return &Env{Node: nd, Params: nd.Chain.Params(), Clock: clk, Payout: payout}, nil
}

// Mine mines n blocks, advancing the clock by the target spacing each.
func (e *Env) Mine(n int) error {
	for i := 0; i < n; i++ {
		e.Clock.Advance(e.Params.TargetSpacing)
		if _, _, err := e.Miner.Mine(e.Payout); err != nil {
			return err
		}
	}
	return nil
}

// Fund mines to coinbase maturity plus a buffer so the wallet has
// several spendable coinbases.
func (e *Env) Fund() error {
	return e.Mine(e.Params.CoinbaseMaturity + 10)
}

// NakamotoProbability is the analytic probability that an attacker with
// hash-power fraction q reverses a transaction buried under z blocks
// (Nakamoto 2008, section 11; the paper's Section 1, item 5).
func NakamotoProbability(q float64, z int) float64 {
	p := 1 - q
	if q >= p {
		return 1
	}
	lambda := float64(z) * q / p
	sum := 1.0
	for k := 0; k <= z; k++ {
		poisson := math.Exp(-lambda)
		for i := 1; i <= k; i++ {
			poisson *= lambda / float64(i)
		}
		sum -= poisson * (1 - math.Pow(q/p, float64(z-k)))
	}
	if sum < 0 {
		return 0
	}
	return sum
}
