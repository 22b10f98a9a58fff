package chain

import (
	"fmt"

	"typecoin/internal/script"
	"typecoin/internal/wire"
)

// The block-connect validation pipeline splits work into two phases:
// a serial phase that resolves inputs against the UTXO view in
// transaction order (spends within a block may chain, so ordering
// matters) and records one scriptJob per input of each transaction
// without an admission verdict, and a parallel phase that runs the
// accumulated script/signature checks through par.Do.
// Script verification only reads the spending transaction and the
// locking script captured in the job, so it is safe to run after the
// UTXO view has moved on — and concurrently.

// scriptJob is one deferred input-script verification: input `in` of
// `tx` spending an output locked by pkScript.
type scriptJob struct {
	tx       *wire.MsgTx
	in       int
	pkScript []byte
}

func (j scriptJob) run() error {
	if err := script.VerifyInput(j.tx, j.in, j.pkScript); err != nil {
		return fmt.Errorf("chain: input %d of %s: %w", j.in, j.tx.TxHash(), err)
	}
	return nil
}
