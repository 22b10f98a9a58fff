package bench

import (
	"fmt"

	"typecoin/internal/bkey"
	"typecoin/internal/chainhash"
	"typecoin/internal/script"
	"typecoin/internal/wallet"
)

// Experiment E3 (Section 3.3): embedding metadata as a bogus P2PKH
// output "would have a severe consequence on Bitcoin itself ...
// unrecoverable txouts mean permanent deadweight in the [unspent-txout]
// table", while the 1-of-2 multisig form "can be spent, and its entry in
// the unspent-txout table can be garbage-collected."
//
// We create n metadata-carrying transactions under each strategy, then
// run the cleanup pass (spend whatever is spendable) and measure the
// UTXO table size before, after creation, and after cleanup.

// E3Row is one row of the E3 table.
type E3Row struct {
	N            int
	Strategy     string
	Baseline     int // UTXO size before the experiment
	AfterCreate  int
	AfterCleanup int
	Deadweight   int // entries that can never be reclaimed
}

// String formats the row.
func (r E3Row) String() string {
	return fmt.Sprintf("n=%-4d %-9s baseline=%-4d created=%-4d cleaned=%-4d deadweight=%d",
		r.N, r.Strategy, r.Baseline, r.AfterCreate, r.AfterCleanup, r.Deadweight)
}

// RunE3 measures both strategies for each n.
func RunE3(ns []int) ([]E3Row, error) {
	var rows []E3Row
	for _, n := range ns {
		bogus, err := runE3(n, "bogus")
		if err != nil {
			return nil, err
		}
		rows = append(rows, bogus)
		multisig, err := runE3(n, "multisig")
		if err != nil {
			return nil, err
		}
		rows = append(rows, multisig)
	}
	return rows, nil
}

func runE3(n int, strategy string) (E3Row, error) {
	env, err := NewEnv(fmt.Sprintf("e3-%s-%d", strategy, n))
	if err != nil {
		return E3Row{}, err
	}
	// Enough mature coinbases to fund n metadata transactions.
	if err := env.Mine(env.Params.CoinbaseMaturity + n/40 + 10); err != nil {
		return E3Row{}, err
	}
	key, err := env.Wallet.Key(env.Payout)
	if err != nil {
		return E3Row{}, err
	}
	row := E3Row{N: n, Strategy: strategy, Baseline: env.Chain.UtxoSize()}

	// metaScripts tracks every metadata-carrying locking script created,
	// so deadweight can be counted exactly after cleanup.
	metaScripts := make(map[string]bool, n)

	// Create n metadata-carrying transactions.
	for i := 0; i < n; i++ {
		meta := chainhash.TaggedHash("typecoin/tx", []byte(fmt.Sprintf("payload-%d", i)))
		var pkScript []byte
		switch strategy {
		case "bogus":
			// Pre-OP_RETURN style: a P2PKH to a fake "principal" that is
			// really the metadata. Unspendable forever, but indistinguishable
			// from a real output, so the table must keep it.
			var fake bkey.Principal
			copy(fake[:], meta[:bkey.PrincipalSize])
			pkScript = script.PayToPubKeyHash(fake)
		case "multisig":
			pkScript, err = script.MultiSigScript(1, key.PubKey().Serialize(), script.MetadataKeySlot(meta))
			if err != nil {
				return E3Row{}, err
			}
		default:
			return E3Row{}, fmt.Errorf("bench: unknown strategy %q", strategy)
		}
		metaScripts[string(pkScript)] = true
		tx, err := env.Wallet.Build([]wallet.Output{{Value: 10_000, PkScript: pkScript}},
			wallet.BuildOptions{})
		if err != nil {
			return E3Row{}, fmt.Errorf("metadata tx %d: %w", i, err)
		}
		if _, err := env.Pool.Accept(tx); err != nil {
			return E3Row{}, err
		}
		// Mine every few transactions to keep blocks modest.
		if env.Pool.Size() >= 50 {
			if err := env.Mine(1); err != nil {
				return E3Row{}, err
			}
		}
	}
	if err := env.Mine(1); err != nil {
		return E3Row{}, err
	}
	row.AfterCreate = env.Chain.UtxoSize()

	// Cleanup: spend every reclaimable metadata output back to plain
	// funds (Section 3.1's "cracking a resource open").
	for {
		metas := env.Wallet.MetadataOutpoints()
		if len(metas) == 0 {
			break
		}
		if len(metas) > 100 {
			metas = metas[:100]
		}
		cleanup, err := env.Wallet.Build(nil, wallet.BuildOptions{ExtraInputs: metas})
		if err != nil {
			return E3Row{}, fmt.Errorf("cleanup: %w", err)
		}
		if _, err := env.Pool.Accept(cleanup); err != nil {
			return E3Row{}, err
		}
		if err := env.Mine(1); err != nil {
			return E3Row{}, err
		}
	}
	row.AfterCleanup = env.Chain.UtxoSize()
	// Deadweight: metadata-carrying entries still in the table.
	for _, op := range env.Chain.UtxoOutpoints() {
		entry := env.Chain.LookupUtxo(op)
		if entry != nil && metaScripts[string(entry.Out.PkScript)] {
			row.Deadweight++
		}
	}
	return row, nil
}
