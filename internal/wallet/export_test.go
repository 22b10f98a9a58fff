package wallet

import (
	"typecoin/internal/bkey"
	"typecoin/internal/wire"
)

// Confirmed returns w's confirmed coins and those a fresh rescan of the
// chain's unspent table finds under the same keys.
func Confirmed(w *Wallet) (got, rescanned map[wire.OutPoint]walletUtxo) {
	fresh := &Wallet{chain: w.chain, keys: make(map[bkey.Principal]*bkey.PrivateKey)}
	w.keysMu.Lock()
	for p, k := range w.keys {
		fresh.keys[p] = k
	}
	w.keysMu.Unlock()
	fresh.Rescan()
	w.mu.Lock()
	defer w.mu.Unlock()
	got = make(map[wire.OutPoint]walletUtxo)
	for op, u := range w.utxos {
		if u.height >= 0 {
			got[op] = u
		}
	}
	return got, fresh.utxos
}
