// Package testutil provides deterministic helpers shared by tests and
// benchmarks: a seeded entropy stream and a pre-wired regtest harness
// (chain + mempool + miner + wallet) with spendable funds.
package testutil

import (
	"crypto/sha256"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"typecoin/internal/bkey"
	"typecoin/internal/chain"
	"typecoin/internal/clock"
	"typecoin/internal/mempool"
	"typecoin/internal/miner"
	"typecoin/internal/wallet"
)

// Entropy is a deterministic io.Reader derived from a seed by iterated
// SHA-256, so tests generate reproducible keys.
type Entropy struct {
	state [32]byte
	buf   []byte
}

// NewEntropy creates a deterministic entropy stream.
func NewEntropy(seed string) *Entropy {
	return &Entropy{state: sha256.Sum256([]byte(seed))}
}

// Read fills p with pseudo-random bytes.
func (e *Entropy) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(e.buf) == 0 {
			e.state = sha256.Sum256(e.state[:])
			e.buf = append(e.buf[:0], e.state[:]...)
		}
		c := copy(p[n:], e.buf)
		e.buf = e.buf[c:]
		n += c
	}
	return n, nil
}

var _ io.Reader = (*Entropy)(nil)

// Seeds returns a seeded scenario's seed list: the single seed in
// SIM_SEED (to replay a failure), every seed of the range lo-hi in
// SIM_SEEDS (for a sweep; see make sim-sweep), or else defaults.
func Seeds(tb testing.TB, defaults ...int64) []int64 {
	tb.Helper()
	if env := os.Getenv("SIM_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			tb.Fatalf("SIM_SEED=%q: %v", env, err)
		}
		return []int64{seed}
	}
	if env := os.Getenv("SIM_SEEDS"); env != "" {
		from, to, _ := strings.Cut(env, "-")
		lo, err1 := strconv.ParseInt(from, 10, 64)
		hi, err2 := strconv.ParseInt(to, 10, 64)
		if err1 != nil || err2 != nil || lo > hi {
			tb.Fatalf("SIM_SEEDS=%q: want a range lo-hi", env)
		}
		var seeds []int64
		for s := lo; s <= hi; s++ {
			seeds = append(seeds, s)
		}
		return seeds
	}
	return defaults
}

// Harness bundles a regtest node's components with a funded wallet.
type Harness struct {
	Params *chain.Params
	Clock  *clock.Simulated
	Chain  *chain.Chain
	Pool   *mempool.Pool
	Miner  *miner.Miner
	Wallet *wallet.Wallet
	// MinerKey receives block subsidies.
	MinerKey bkey.Principal
}

// NewHarness builds a regtest harness. The simulated clock starts just
// after the genesis timestamp.
func NewHarness(tb testing.TB, seed string) *Harness {
	tb.Helper()
	params := chain.RegTestParams()
	clk := clock.NewSimulated(params.GenesisBlock.Header.Timestamp.Add(time.Minute))
	c := chain.New(params, clk)
	pool := mempool.New(c, -1)
	w := wallet.New(c, NewEntropy(seed))
	minerKey, err := w.NewKey()
	if err != nil {
		tb.Fatalf("harness: new key: %v", err)
	}
	m := miner.New(c, pool, clk)
	return &Harness{
		Params:   params,
		Clock:    clk,
		Chain:    c,
		Pool:     pool,
		Miner:    m,
		Wallet:   w,
		MinerKey: minerKey,
	}
}

// MineBlocks mines n blocks paying the harness miner key, advancing the
// clock by the target spacing per block.
func (h *Harness) MineBlocks(tb testing.TB, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		h.Clock.Advance(h.Params.TargetSpacing)
		if _, _, err := h.Miner.Mine(h.MinerKey); err != nil {
			tb.Fatalf("harness: mine: %v", err)
		}
	}
}

// Fund mines enough blocks that the wallet holds at least one mature
// coinbase (maturity + 1 blocks).
func (h *Harness) Fund(tb testing.TB) {
	tb.Helper()
	h.MineBlocks(tb, h.Params.CoinbaseMaturity+1)
	if h.Wallet.Balance() == 0 {
		tb.Fatal("harness: wallet unfunded after maturity blocks")
	}
}
