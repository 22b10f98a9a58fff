package chain

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"typecoin/internal/script"
	"typecoin/internal/sigcache"
	"typecoin/internal/wire"
)

// The block-connect validation pipeline splits work into two phases:
// a serial phase that resolves inputs against the UTXO view in
// transaction order (spends within a block may chain, so ordering
// matters) and records one scriptJob per input, and a parallel phase
// that fans the accumulated script/signature checks out across a bounded
// worker pool. Script verification only reads the spending transaction
// and the locking script captured in the job, so it is safe to run after
// the UTXO view has moved on — and concurrently.

// scriptJob is one deferred input-script verification: input `in` of
// `tx` (transaction `txIdx` of the block) spending an output locked by
// pkScript.
type scriptJob struct {
	tx       *wire.MsgTx
	txIdx    int
	in       int
	pkScript []byte
}

func (j scriptJob) run(sv *sigcache.Cache) error {
	if err := script.VerifyInputCached(j.tx, j.in, j.pkScript, sv); err != nil {
		return fmt.Errorf("chain: input %d of %s: %w", j.in, j.tx.TxHash(), err)
	}
	return nil
}

// runScriptJobs verifies every job, fanning out across up to GOMAXPROCS
// goroutines; with one CPU (or one job) it runs them in order on the
// caller's goroutine. Verification fails fast: the first observed
// failure stops the remaining workers from claiming jobs. Jobs are
// claimed in block order and a claimed job always runs to completion,
// so every job before a failing one is checked and the failure earliest
// in block order is the one returned, whatever the interleaving.
func runScriptJobs(jobs []scriptJob, sv *sigcache.Cache) error {
	workers := min(runtime.GOMAXPROCS(0), len(jobs))
	if workers <= 1 {
		for _, j := range jobs {
			if err := j.run(sv); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64 // index of the next unclaimed job
		failed   atomic.Bool  // fail-fast flag
		mu       sync.Mutex
		firstErr error
		firstIdx = len(jobs)
		wg       sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= len(jobs) {
				return
			}
			if err := jobs[i].run(sv); err != nil {
				mu.Lock()
				if i < firstIdx {
					firstIdx, firstErr = i, err
				}
				mu.Unlock()
				failed.Store(true)
			}
		}
	}
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go worker()
	}
	wg.Wait()
	return firstErr
}
