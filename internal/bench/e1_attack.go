package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Experiment E1 (Section 1, item 5): "In order to reverse a transaction,
// an attacker would need to create a new block without it, and then
// outpace the rest of the network ... his likelihood of success drops
// exponentially" with confirmation depth.
//
// The race is the standard Nakamoto model: block discovery alternates
// between the honest network (probability 1-q per step) and the attacker
// (probability q). A transaction is "confirmed" at depth z; the attacker
// starts one block behind (his replacement block) and wins if he ever
// pulls ahead of the honest chain. We simulate the race with a
// deterministic PRNG and compare against the analytic probability.

// E1Row is one row of the E1 table.
type E1Row struct {
	Q        float64 // attacker hash-power fraction
	Depth    int     // confirmations z
	Observed float64 // simulated reversal rate
	Analytic float64 // Nakamoto's closed form
	Trials   int
}

// String formats the row.
func (r E1Row) String() string {
	return fmt.Sprintf("q=%.2f z=%d observed=%.4f analytic=%.4f (n=%d)",
		r.Q, r.Depth, r.Observed, r.Analytic, r.Trials)
}

// prng is a tiny deterministic generator (SplitMix-style over SHA-256
// seeds) so experiment runs are reproducible without math/rand.
type prng struct{ state uint64 }

func newPRNG(seed string) *prng {
	sum := sha256.Sum256([]byte(seed))
	return &prng{state: binary.LittleEndian.Uint64(sum[:8])}
}

func (p *prng) next() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (p *prng) float() float64 {
	return float64(p.next()>>11) / float64(1<<53)
}

// raceOnce simulates one double-spend race: the merchant waits for z
// confirmations, then the attacker keeps mining until he either pulls
// ahead (reversal) or falls hopelessly behind.
func raceOnce(rng *prng, q float64, z int) bool {
	// While the merchant waits for z honest blocks, the attacker also
	// mines; count how many he finds in that window (one attacker block
	// is needed just to replace the transaction's block).
	attacker := 0
	honest := 0
	for honest < z {
		if rng.float() < q {
			attacker++
		} else {
			honest++
		}
	}
	// Deficit: honest chain is z ahead of the attacker's secret chain
	// (which still needs its replacement block counted in `attacker`).
	deficit := z - attacker
	if deficit <= 0 {
		return true
	}
	// Continue the race; give up when the deficit is insurmountable.
	const hopeless = 80
	for deficit > 0 && deficit < hopeless {
		if rng.float() < q {
			deficit--
		} else {
			deficit++
		}
	}
	return deficit <= 0
}

// RunE1 simulates the confirmation race for each (q, z) pair.
func RunE1(qs []float64, depths []int, trials int) []E1Row {
	rng := newPRNG("typecoin/e1")
	var rows []E1Row
	for _, q := range qs {
		for _, z := range depths {
			wins := 0
			for i := 0; i < trials; i++ {
				if raceOnce(rng, q, z) {
					wins++
				}
			}
			rows = append(rows, E1Row{
				Q:        q,
				Depth:    z,
				Observed: float64(wins) / float64(trials),
				Analytic: NakamotoProbability(q, z),
				Trials:   trials,
			})
		}
	}
	return rows
}

// RunE1Chain demonstrates the same race on the real chain machinery for
// one small case: an attacker who out-mines the honest network reverses
// a buried transaction via a reorganization; one who does not, does not.
// It returns (reorged, stillMain) for an attacker given a head start vs
// one who is behind.
func RunE1Chain() (bool, bool, error) {
	// Honest chain: 3 blocks after genesis.
	env, err := NewEnv("e1-honest")
	if err != nil {
		return false, false, err
	}
	if err := env.Mine(3); err != nil {
		return false, false, err
	}
	honestTip := env.Chain.BestHash()

	// Attacker forks from genesis with 4 blocks: more work, reorg.
	attacker, err := NewEnv("e1-attacker")
	if err != nil {
		return false, false, err
	}
	if err := attacker.Mine(4); err != nil {
		return false, false, err
	}
	for h := 1; h <= attacker.Chain.BestHeight(); h++ {
		blk, _ := attacker.Chain.BlockAtHeight(h)
		if _, err := env.Chain.ProcessBlock(blk); err != nil {
			return false, false, err
		}
	}
	reorged := env.Chain.BestHash() == attacker.Chain.BestHash()

	// A shorter attacking branch (2 blocks) must NOT displace the honest
	// chain.
	env2, err := NewEnv("e1-honest2")
	if err != nil {
		return false, false, err
	}
	if err := env2.Mine(3); err != nil {
		return false, false, err
	}
	weak, err := NewEnv("e1-weak")
	if err != nil {
		return false, false, err
	}
	if err := weak.Mine(2); err != nil {
		return false, false, err
	}
	for h := 1; h <= weak.Chain.BestHeight(); h++ {
		blk, _ := weak.Chain.BlockAtHeight(h)
		if _, err := env2.Chain.ProcessBlock(blk); err != nil {
			return false, false, err
		}
	}
	stillMain := env2.Chain.BestHash() != weak.Chain.BestHash()
	_ = honestTip
	return reorged, stillMain, nil
}
