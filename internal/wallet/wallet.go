// Package wallet manages keys and unspent outputs, and builds signed
// Bitcoin transactions, including the 1-of-2 multisig metadata outputs
// that carry Typecoin transaction hashes (paper, Section 3.3).
package wallet

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"typecoin/internal/bkey"
	"typecoin/internal/chain"
	"typecoin/internal/chainhash"
	"typecoin/internal/par"
	"typecoin/internal/script"
	"typecoin/internal/store"
	"typecoin/internal/wire"
)

// Wallet errors.
var (
	ErrInsufficientFunds = errors.New("wallet: insufficient funds")
	ErrUnknownKey        = errors.New("wallet: no private key for principal")
)

// Wallet holds private keys and tracks the UTXOs they control on one
// chain. All methods are safe for concurrent use.
type Wallet struct {
	chain   *chain.Chain
	entropy io.Reader

	// st is non-nil for wallets created with Open: keys are written
	// through to the chain's store.
	st store.Store

	// keysMu guards keys alone, so principal look-ups and script
	// classification never wait on mu, which Build holds while calling
	// into the chain.
	keysMu sync.Mutex
	keys   map[bkey.Principal]*bkey.PrivateKey

	mu sync.Mutex
	// utxos tracks spendable outputs we control: confirmed chain outputs
	// plus change from our own unconfirmed transactions, minus anything
	// we have already spent (locked).
	utxos  map[wire.OutPoint]walletUtxo
	locked map[wire.OutPoint]bool
}

type walletUtxo struct {
	value    int64
	pkScript []byte
	owner    bkey.Principal
	height   int // -1 for unconfirmed self-created outputs
	coinbase bool
	metaSlot bool // a 1-of-2 metadata output we can reclaim
}

// New creates an empty wallet bound to c. entropy may be nil to use
// crypto/rand.
func New(c *chain.Chain, entropy io.Reader) *Wallet {
	w := &Wallet{
		chain:   c,
		entropy: entropy,
		keys:    make(map[bkey.Principal]*bkey.PrivateKey),
		utxos:   make(map[wire.OutPoint]walletUtxo),
		locked:  make(map[wire.OutPoint]bool),
	}
	c.Subscribe(w.onChainChange)
	return w
}

// NewKey generates and registers a fresh key, returning its principal.
func (w *Wallet) NewKey() (bkey.Principal, error) {
	key, err := bkey.NewPrivateKey(w.entropy)
	if err != nil {
		return bkey.Principal{}, err
	}
	p := key.Principal()
	w.keysMu.Lock()
	w.keys[p] = key
	w.keysMu.Unlock()
	if err := w.persistKey(p, key); err != nil {
		return bkey.Principal{}, err
	}
	return p, nil
}

// ImportKey registers an existing key.
func (w *Wallet) ImportKey(key *bkey.PrivateKey) bkey.Principal {
	p := key.Principal()
	w.keysMu.Lock()
	w.keys[p] = key
	w.keysMu.Unlock()
	// A store that refuses the write will refuse everything else too;
	// the resident key still works for this process.
	_ = w.persistKey(p, key)
	return p
}

// Key returns the private key for p.
func (w *Wallet) Key(p bkey.Principal) (*bkey.PrivateKey, error) {
	w.keysMu.Lock()
	defer w.keysMu.Unlock()
	key, ok := w.keys[p]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownKey, p)
	}
	return key, nil
}

// Principals lists the wallet's principals in stable order.
func (w *Wallet) Principals() []bkey.Principal {
	w.keysMu.Lock()
	defer w.keysMu.Unlock()
	return w.principalsLocked()
}

// coin returns the wallet's record of out, created at height (-1 for
// unconfirmed self-created outputs), and whether one of our keys
// controls it, either as P2PKH or as the genuine key slot of a 1-of-2
// metadata multisig. It takes only keysMu.
func (w *Wallet) coin(out *wire.TxOut, height int, coinbase bool) (walletUtxo, bool) {
	u := walletUtxo{value: out.Value, pkScript: out.PkScript, height: height, coinbase: coinbase}
	w.keysMu.Lock()
	defer w.keysMu.Unlock()
	if p, ok := script.ExtractPubKeyHash(out.PkScript); ok {
		_, mine := w.keys[p]
		u.owner = p
		return u, mine
	}
	if m, slots, ok := script.ExtractMultiSig(out.PkScript); ok && m == 1 {
		for _, slot := range slots {
			if _, isMeta := script.ExtractMetadataKeySlot(slot); isMeta {
				continue
			}
			pk, err := bkey.ParsePubKey(slot)
			if err != nil {
				continue
			}
			p := pk.Principal()
			if _, mine := w.keys[p]; mine {
				u.owner, u.metaSlot = p, true
				return u, true
			}
		}
	}
	return u, false
}

// onChainChange applies each main-chain change to the confirmed view
// from the event alone: a connect drops the outputs the block spent and
// adds those it created for our keys; a disconnect undoes that, putting
// back the spent entries we own, each with its height and coinbase flag,
// before dropping what the block created, so an output created and
// spent within the block ends up gone. Unconfirmed self-created change
// (height -1) and input locks are kept.
func (w *Wallet) onChainChange(n chain.Notification) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n.Connected {
		for _, tx := range n.Block.Transactions {
			txid := tx.TxHash()
			for _, in := range tx.TxIn {
				delete(w.utxos, in.PreviousOutPoint)
				delete(w.locked, in.PreviousOutPoint)
			}
			for i, out := range tx.TxOut {
				if u, mine := w.coin(out, n.Height, tx.IsCoinBase()); mine {
					w.utxos[wire.OutPoint{Hash: txid, Index: uint32(i)}] = u
				}
			}
		}
		return
	}
	for _, so := range n.Spent {
		if u, mine := w.coin(&so.Entry.Out, so.Entry.Height, so.Entry.IsCoinBase); mine {
			w.utxos[so.OutPoint] = u
		}
	}
	for _, tx := range n.Block.Transactions {
		txid := tx.TxHash()
		for i := range tx.TxOut {
			delete(w.utxos, wire.OutPoint{Hash: txid, Index: uint32(i)})
		}
	}
}

// rescanLocked rebuilds the confirmed UTXO view from the chain's
// unspent table; the caller holds w.mu. Unconfirmed self-created
// outputs (height -1) are kept.
func (w *Wallet) rescanLocked() {
	kept := make(map[wire.OutPoint]walletUtxo)
	for op, u := range w.utxos {
		if u.height < 0 {
			kept[op] = u
		}
	}
	w.utxos = kept
	for _, op := range w.chain.UtxoOutpoints() {
		entry := w.chain.LookupUtxo(op)
		if entry == nil {
			continue
		}
		if u, mine := w.coin(&entry.Out, entry.Height, entry.IsCoinBase); mine {
			w.utxos[op] = u
		}
	}
}

// Rescan rebuilds the UTXO view from the chain's unspent table. Call
// after importing keys.
func (w *Wallet) Rescan() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.utxos = make(map[wire.OutPoint]walletUtxo)
	w.rescanLocked()
}

// Balance returns the spendable balance in satoshi (excluding immature
// coinbases and locked outputs).
func (w *Wallet) Balance() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	tip := w.chain.BestHeight()
	maturity := w.chain.Params().CoinbaseMaturity
	var total int64
	for op, u := range w.utxos {
		if w.locked[op] {
			continue
		}
		if u.coinbase && u.height >= 0 && tip-u.height+1 < maturity {
			continue
		}
		total += u.value
	}
	return total
}

// Output describes one payment a transaction should make.
type Output struct {
	Value    int64
	PkScript []byte
}

// BuildOptions tune transaction construction.
type BuildOptions struct {
	// Fee is the absolute fee to attach. Zero means
	// mempool-minimum-compatible default.
	Fee int64
	// ChangeTo receives any excess; zero value means the first wallet key.
	ChangeTo bkey.Principal
	// ExtraInputs are outpoints that must be spent in addition to
	// funding inputs (e.g. Typecoin resource inputs). They must be
	// spendable by the wallet.
	ExtraInputs []wire.OutPoint
	// ExternalInputs are outpoints included after ExtraInputs that the
	// wallet does NOT control: their signature scripts are left empty for
	// external signers (escrow agents). Value is needed for balancing.
	ExternalInputs []ExternalInput
}

// ExternalInput is an input signed by someone else.
type ExternalInput struct {
	OutPoint wire.OutPoint
	Value    int64
}

// DefaultFee is the fee attached when BuildOptions.Fee is zero: the
// paper's "typical transaction fee [of] 0.0005 bitcoin" (Section 3.2).
const DefaultFee = 50_000

// dustLimit is the smallest change output worth creating.
const dustLimit = 1000

// Build assembles and signs a transaction paying outputs, selecting
// funding inputs from the wallet and returning change. The resulting
// transaction is marked locked in the wallet so subsequent builds do not
// double-select its inputs.
func (w *Wallet) Build(outputs []Output, opts BuildOptions) (*wire.MsgTx, error) {
	w.mu.Lock()
	defer w.mu.Unlock()

	fee := opts.Fee
	if fee == 0 {
		fee = DefaultFee
	}
	var need int64 = fee
	for _, o := range outputs {
		need += o.Value
	}

	tx := wire.NewMsgTx(wire.TxVersion)
	var selected []wire.OutPoint
	var have int64

	addInput := func(op wire.OutPoint) error {
		u, ok := w.utxos[op]
		if !ok {
			return fmt.Errorf("wallet: outpoint %v not controlled by wallet", op)
		}
		if w.locked[op] {
			return fmt.Errorf("wallet: outpoint %v already locked", op)
		}
		tx.AddTxIn(&wire.TxIn{PreviousOutPoint: op, Sequence: wire.MaxTxInSequenceNum})
		selected = append(selected, op)
		have += u.value
		return nil
	}

	for _, op := range opts.ExtraInputs {
		if err := addInput(op); err != nil {
			return nil, err
		}
	}
	for _, ext := range opts.ExternalInputs {
		tx.AddTxIn(&wire.TxIn{PreviousOutPoint: ext.OutPoint, Sequence: wire.MaxTxInSequenceNum})
		have += ext.Value
	}

	// Coin selection: deterministic largest-first over mature, unlocked,
	// non-metadata outputs.
	if have < need {
		type cand struct {
			op wire.OutPoint
			u  walletUtxo
		}
		tip := w.chain.BestHeight()
		maturity := w.chain.Params().CoinbaseMaturity
		var cands []cand
		for op, u := range w.utxos {
			if w.locked[op] || u.metaSlot {
				continue
			}
			if u.coinbase && u.height >= 0 && tip-u.height+1 < maturity {
				continue
			}
			already := false
			for _, sel := range selected {
				if sel == op {
					already = true
					break
				}
			}
			if !already {
				cands = append(cands, cand{op, u})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].u.value != cands[j].u.value {
				return cands[i].u.value > cands[j].u.value
			}
			c := chainhash.Compare(cands[i].op.Hash, cands[j].op.Hash)
			if c != 0 {
				return c < 0
			}
			return cands[i].op.Index < cands[j].op.Index
		})
		for _, c := range cands {
			if have >= need {
				break
			}
			if err := addInput(c.op); err != nil {
				return nil, err
			}
		}
	}
	if have < need {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrInsufficientFunds, have, need)
	}

	for _, o := range outputs {
		tx.AddTxOut(&wire.TxOut{Value: o.Value, PkScript: o.PkScript})
	}
	if change := have - need; change >= dustLimit {
		changeTo := opts.ChangeTo
		if changeTo.IsZero() {
			w.keysMu.Lock()
			ps := w.principalsLocked()
			w.keysMu.Unlock()
			if len(ps) == 0 {
				return nil, errors.New("wallet: no key for change output")
			}
			changeTo = ps[0]
		}
		tx.AddTxOut(&wire.TxOut{Value: change, PkScript: script.PayToPubKeyHash(changeTo)})
	}

	if err := w.signLocked(tx, selected); err != nil {
		return nil, err
	}
	for _, op := range selected {
		w.locked[op] = true
	}
	// Track our own change immediately so chained builds work before
	// confirmation.
	txid := tx.TxHash()
	for i, out := range tx.TxOut {
		if u, mine := w.coin(out, -1, false); mine {
			w.utxos[wire.OutPoint{Hash: txid, Index: uint32(i)}] = u
		}
	}
	return tx, nil
}

// principalsLocked lists principals in stable order; caller holds keysMu.
func (w *Wallet) principalsLocked() []bkey.Principal {
	out := make([]bkey.Principal, 0, len(w.keys))
	for p := range w.keys {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// signLocked signs every selected input of tx (matching by outpoint, so
// interleaved external inputs do not shift indices). It resolves each
// input's coin and key in order, then signs the inputs in parallel
// (par.Do). The scripts are written only once every signature is made:
// each input's sighash reads the length of every input's script.
func (w *Wallet) signLocked(tx *wire.MsgTx, selected []wire.OutPoint) error {
	type input struct {
		idx    int
		u      walletUtxo
		key    *bkey.PrivateKey
		script []byte
	}
	ins := make([]input, len(selected))
	for n, op := range selected {
		i := -1
		for j, ti := range tx.TxIn {
			if ti.PreviousOutPoint == op {
				i = j
				break
			}
		}
		if i < 0 {
			return fmt.Errorf("wallet: selected input %v not in transaction", op)
		}
		u, ok := w.utxos[op]
		if !ok {
			return fmt.Errorf("wallet: lost utxo %v during signing", op)
		}
		w.keysMu.Lock()
		key, ok := w.keys[u.owner]
		w.keysMu.Unlock()
		if !ok {
			return fmt.Errorf("%w: %s", ErrUnknownKey, u.owner)
		}
		ins[n] = input{idx: i, u: u, key: key}
	}
	err := par.Do(len(ins), func(n int) error {
		in := &ins[n]
		var err error
		if in.u.metaSlot {
			in.script, err = script.MultiSigSignatureScript(tx, in.idx, in.u.pkScript, script.SigHashAll, in.key)
		} else {
			in.script, err = script.SignatureScript(tx, in.idx, in.u.pkScript, script.SigHashAll, in.key)
		}
		return err
	})
	if err != nil {
		return err
	}
	for _, in := range ins {
		tx.TxIn[in.idx].SignatureScript = in.script
	}
	return nil
}

// Unlock releases outpoints locked by Build (e.g. when the transaction
// was abandoned).
func (w *Wallet) Unlock(tx *wire.MsgTx) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, in := range tx.TxIn {
		delete(w.locked, in.PreviousOutPoint)
	}
	txid := tx.TxHash()
	for i := range tx.TxOut {
		op := wire.OutPoint{Hash: txid, Index: uint32(i)}
		if u, ok := w.utxos[op]; ok && u.height < 0 {
			delete(w.utxos, op)
		}
	}
}

// UtxoCount reports the number of tracked outputs (test helper).
func (w *Wallet) UtxoCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.utxos)
}

// MetadataOutpoints lists tracked 1-of-2 metadata outputs, the targets of
// the "cleanup" spends measured in experiment E3.
func (w *Wallet) MetadataOutpoints() []wire.OutPoint {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []wire.OutPoint
	for op, u := range w.utxos {
		if u.metaSlot && !w.locked[op] {
			out = append(out, op)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		c := chainhash.Compare(out[i].Hash, out[j].Hash)
		if c != 0 {
			return c < 0
		}
		return out[i].Index < out[j].Index
	})
	return out
}
