package mempool

import "fmt"

// SetBetweenPhases makes fn run in every admission after its first
// phase, with the txid in flight and no lock held, before its scripts
// are verified.
func (p *Pool) SetBetweenPhases(fn func()) { p.betweenPhases = fn }

// CheckSpends reports an error unless spends names exactly the inputs
// of the pooled transactions, each with its spender.
func (p *Pool) CheckSpends() error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	claims := 0
	for txid, ptx := range p.pool {
		for _, in := range ptx.tx.TxIn {
			if spender, ok := p.spends[in.PreviousOutPoint]; !ok || spender != txid {
				return fmt.Errorf("pooled %s spends %v, recorded spender %s", txid, in.PreviousOutPoint, spender)
			}
			claims++
		}
	}
	if claims != len(p.spends) {
		return fmt.Errorf("%d spend claims for %d pooled inputs", len(p.spends), claims)
	}
	return nil
}
