package wallet

// Wallet persistence. A wallet created with Open writes its keys through
// to the chain's store:
//
//	wk + principal(20) -> serialized private key
//
// Key rows are written when keys are created or imported. The confirmed
// UTXO view is not stored: it is a function of the keys and the chain's
// unspent table, so Open rebuilds it with a rescan. Unconfirmed state
// (height -1 change, input locks) is not persisted either: it is
// reconstructed on startup by the mempool reload calling
// ObserveUnconfirmed for every recovered transaction.
//
// Wallets created with New stay memory-only; tests attach several
// wallets to one chain, which a shared key namespace would break.

import (
	"fmt"
	"io"

	"typecoin/internal/bkey"
	"typecoin/internal/chain"
	"typecoin/internal/store"
	"typecoin/internal/wire"
)

func keyWalletKey(p bkey.Principal) []byte { return append([]byte("wk"), p[:]...) }

// Open creates a wallet persisted in c's store, reloading any keys a
// previous run saved there and rebuilding the confirmed UTXO view from
// the chain. entropy may be nil to use crypto/rand. At most one Open
// wallet should exist per store.
func Open(c *chain.Chain, entropy io.Reader) (*Wallet, error) {
	st := c.Store()
	w := &Wallet{
		chain:   c,
		entropy: entropy,
		st:      st,
		keys:    make(map[bkey.Principal]*bkey.PrivateKey),
		utxos:   make(map[wire.OutPoint]walletUtxo),
		locked:  make(map[wire.OutPoint]bool),
	}
	err := st.Iterate([]byte("wk"), func(k, v []byte) error {
		key, err := bkey.ParsePrivateKey(v)
		if err != nil {
			return fmt.Errorf("wallet: corrupt key row: %w", err)
		}
		w.keys[key.Principal()] = key
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Subscribe before the rescan, both under w.mu: a block that lands
	// in between is in the rescan's view and its notification, queued
	// on w.mu, re-applies it harmlessly — none can fall between the two.
	w.mu.Lock()
	defer w.mu.Unlock()
	c.Subscribe(w.onChainChange)
	w.rescanLocked()
	return w, nil
}

// persistKey writes a key row; a no-op for memory-only wallets.
func (w *Wallet) persistKey(p bkey.Principal, key *bkey.PrivateKey) error {
	if w.st == nil {
		return nil
	}
	b := store.NewBatch()
	b.Put(keyWalletKey(p), key.Serialize())
	return w.st.Apply(b)
}

// ObserveUnconfirmed re-registers an unconfirmed transaction of ours
// after a restart: inputs we control are locked against reselection and
// outputs we control are tracked as unconfirmed change, exactly as Build
// left them before the shutdown. The mempool reload calls this for
// every recovered transaction.
func (w *Wallet) ObserveUnconfirmed(tx *wire.MsgTx) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, in := range tx.TxIn {
		if _, ok := w.utxos[in.PreviousOutPoint]; ok {
			w.locked[in.PreviousOutPoint] = true
		}
	}
	txid := tx.TxHash()
	for i, out := range tx.TxOut {
		op := wire.OutPoint{Hash: txid, Index: uint32(i)}
		if _, ok := w.utxos[op]; ok {
			continue // already confirmed
		}
		if u, mine := w.coin(out, -1, false); mine {
			w.utxos[op] = u
		}
	}
}
