package typecoin

import (
	"sync/atomic"

	"typecoin/internal/logic"
)

// CountClosedChecks counts the runs of the closed half of transaction
// checking (the half that infers the proof) until the test ends. Tests
// that use it must not run in parallel: it swaps a package variable.
func CountClosedChecks(t interface{ Cleanup(func()) }) *atomic.Int64 {
	var n atomic.Int64
	orig := checkClosed
	checkClosed = func(sigma *logic.Basis, tx *Tx, payload []byte) (logic.Cond, error) {
		n.Add(1)
		return orig(sigma, tx, payload)
	}
	t.Cleanup(func() { checkClosed = orig })
	return &n
}

// VerdictCount reports how many closed verdicts the ledger holds.
func (l *Ledger) VerdictCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.verdicts)
}
