package index

// Derived state across restarts: the store keeps blocks, not their
// consequences, so the UTXO table, spend journal, transaction index,
// wallet coins and outpoint spends a node answers with after a reopen
// are folded afresh from the blocks. These tests require that fold to
// reproduce exactly what the node held before it closed, across a
// seeded schedule of payments, reorgs, clean restarts, torn commits and
// disconnects on freshly loaded state. RESTART_SEED=<n> replays one
// schedule.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"typecoin/internal/bkey"
	"typecoin/internal/chain"
	"typecoin/internal/chainhash"
	"typecoin/internal/clock"
	"typecoin/internal/mempool"
	"typecoin/internal/script"
	"typecoin/internal/store"
	"typecoin/internal/wire"
)

// derived is everything a node answers with that is a function of its
// blocks, over every outpoint and transaction the run ever created.
type derived struct {
	Tip      chainhash.Hash
	Utxos    map[wire.OutPoint]chain.UtxoEntry
	Spent    map[wire.OutPoint]chain.SpendRecord
	Position map[chainhash.Hash][2]int
	Balance  int64
	Coins    int
	Meta     []wire.OutPoint
	Outspend map[wire.OutPoint]SpendInfo
	History  map[bkey.Principal][]HistEntry
	Activity map[bkey.Principal][]PrinEntry
}

// seen accumulates every outpoint, transaction and P2PKH address any
// main chain of the run has held, so reorged-away ones are checked too.
type seen struct {
	outpoints map[wire.OutPoint]bool
	txids     map[chainhash.Hash]bool
	addrs     map[bkey.Principal]bool
}

func (s *seen) observe(c *chain.Chain) {
	for height := 0; height <= c.BestHeight(); height++ {
		blk, _ := c.BlockAtHeight(height)
		for _, tx := range blk.Transactions {
			txid := tx.TxHash()
			s.txids[txid] = true
			for i, out := range tx.TxOut {
				s.outpoints[wire.OutPoint{Hash: txid, Index: uint32(i)}] = true
				if p, ok := script.ExtractPubKeyHash(out.PkScript); ok {
					s.addrs[p] = true
				}
			}
		}
	}
}

func capture(t *testing.T, h *harness, s *seen) derived {
	t.Helper()
	s.observe(h.chain)
	d := derived{
		Tip:      h.chain.BestHash(),
		Utxos:    make(map[wire.OutPoint]chain.UtxoEntry),
		Spent:    make(map[wire.OutPoint]chain.SpendRecord),
		Position: make(map[chainhash.Hash][2]int),
		Balance:  h.wallet.Balance(),
		Coins:    h.wallet.UtxoCount(),
		Meta:     h.wallet.MetadataOutpoints(),
		Outspend: make(map[wire.OutPoint]SpendInfo),
		History:  make(map[bkey.Principal][]HistEntry),
		Activity: make(map[bkey.Principal][]PrinEntry),
	}
	for _, op := range h.chain.UtxoOutpoints() {
		d.Utxos[op] = *h.chain.LookupUtxo(op)
	}
	for op := range s.outpoints {
		if rec, ok := h.chain.IsSpent(op); ok {
			d.Spent[op] = rec
		}
		info, ok, err := h.ix.Outspend(op)
		if err != nil {
			t.Fatalf("Outspend %v: %v", op, err)
		}
		if ok {
			d.Outspend[op] = info
		}
	}
	for txid := range s.txids {
		if height, index, ok := h.chain.TxPosition(txid); ok {
			d.Position[txid] = [2]int{height, index}
		}
	}
	for p := range s.addrs {
		var cur Cursor
		for {
			page, next, err := h.ix.AddressHistory(p, cur, 3)
			if err != nil {
				t.Fatalf("AddressHistory: %v", err)
			}
			d.History[p] = append(d.History[p], page...)
			if next == nil {
				break
			}
			cur = *next
		}
		page, _, err := h.ix.PrincipalActivity(p, Cursor{}, MaxPageLimit)
		if err != nil {
			t.Fatalf("PrincipalActivity: %v", err)
		}
		d.Activity[p] = page
	}
	return d
}

// requireSame fails unless two captures agree field by field.
func requireSame(t *testing.T, what string, got, want derived) {
	t.Helper()
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			t.Fatalf("%s: %s differs:\n got  %v\n want %v", what, g.Type().Field(i).Name,
				g.Field(i).Interface(), w.Field(i).Interface())
		}
	}
	if len(got.Utxos) == 0 || len(got.Spent) == 0 {
		t.Fatalf("%s: capture is vacuous (%d utxos, %d spends)", what, len(got.Utxos), len(got.Spent))
	}
}

// audit runs both independent replays against the node's live state.
func audit(t *testing.T, what string, h *harness) {
	t.Helper()
	if err := h.chain.AuditFromGenesis(); err != nil {
		t.Fatalf("%s: chain audit: %v", what, err)
	}
	if err := h.ix.AuditRebuild(); err != nil {
		t.Fatalf("%s: index audit: %v", what, err)
	}
}

// payBlock mines one block carrying up to three wallet payments and a
// child that spends the first payment's output inside the same block.
func payBlock(t *testing.T, h *harness, rng *rand.Rand) {
	t.Helper()
	dest, err := h.wallet.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	parent := h.pay(t, dest, 2_000_000)
	if parent == nil {
		t.Fatal("wallet refused the parent payment")
	}
	for i := rng.Intn(3); i > 0; i-- {
		h.pay(t, dest, 300_000+rng.Int63n(100_000))
	}
	child := wire.NewMsgTx(wire.TxVersion)
	child.AddTxIn(&wire.TxIn{
		PreviousOutPoint: wire.OutPoint{Hash: parent.TxHash(), Index: 0},
		Sequence:         wire.MaxTxInSequenceNum,
	})
	child.AddTxOut(&wire.TxOut{
		Value:    2_000_000 - mempool.DefaultMinRelayFee,
		PkScript: script.PayToPubKeyHash(h.payout),
	})
	key, err := h.wallet.Key(dest)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := script.SignatureScript(child, 0, parent.TxOut[0].PkScript, script.SigHashAll, key)
	if err != nil {
		t.Fatal(err)
	}
	child.TxIn[0].SignatureScript = sig
	if _, err := h.pool.Accept(child); err != nil {
		t.Fatalf("intra-block child: %v", err)
	}
	blk := h.mine(t)
	if _, height, ok := h.chain.BlockOf(child.TxHash()); !ok || height != h.chain.BestHeight() {
		t.Fatalf("child not mined in block %s", blk.BlockHash())
	}
	if _, height, _ := h.chain.BlockOf(parent.TxHash()); height != h.chain.BestHeight() {
		t.Fatal("parent and child not mined in one block")
	}
}

// drain mines until the pool is empty, so the wallet holds no
// unconfirmed state a restart (which reloads no mempool here) would drop.
func drain(t *testing.T, h *harness) {
	t.Helper()
	for i := 0; h.pool.Size() > 0; i++ {
		if i == 3 {
			t.Fatalf("pool still holds %d transactions", h.pool.Size())
		}
		h.mine(t)
	}
}

func restartSeeds(t *testing.T) []int64 {
	t.Helper()
	if env := os.Getenv("RESTART_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("RESTART_SEED=%q: %v", env, err)
		}
		return []int64{seed}
	}
	return []int64{1}
}

// Schedule steps.
const (
	stepPay = iota
	stepReorg
	stepReopen
	stepTear
	stepReopenDisconnect
)

func TestDerivedStateSurvivesRestart(t *testing.T) {
	for _, seed := range restartSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRestartSchedule(t, seed)
		})
	}
}

func runRestartSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	params := chain.RegTestParams()
	clk := clock.NewSimulated(params.GenesisBlock.Header.Timestamp.Add(time.Minute))
	generation := 0
	open := func() (*harness, *store.File) {
		generation++
		st, err := store.OpenFile(dir)
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		return openNode(t, st, clk, fmt.Sprintf("restart/%d/%d", seed, generation)), st
	}
	h, st := open()
	defer func() { st.Close() }()
	s := &seen{
		outpoints: make(map[wire.OutPoint]bool),
		txids:     make(map[chainhash.Hash]bool),
		addrs:     make(map[bkey.Principal]bool),
	}
	// reopen closes the store and reopens the directory, requiring the
	// new node to answer exactly as want says the old one did.
	reopen := func(what string, want derived) {
		t.Helper()
		if err := st.Close(); err != nil {
			t.Fatalf("%s: close: %v", what, err)
		}
		h, st = open()
		requireSame(t, what, capture(t, h, s), want)
		audit(t, what, h)
	}
	h.fund(t)

	// Every kind of step runs at least once, payments first so there is
	// something to reorg, then seeded extras in seeded order.
	steps := []int{stepReorg, stepReopen, stepTear, stepReopenDisconnect, stepPay}
	for i := 0; i < 6; i++ {
		steps = append(steps, rng.Intn(stepReopenDisconnect+1))
	}
	rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	steps = append([]int{stepPay, stepPay}, steps...)

	for i, step := range steps {
		what := fmt.Sprintf("seed %d step %d", seed, i)
		switch step {
		case stepPay:
			payBlock(t, h, rng)
			payBlock(t, h, rng)
		case stepReorg:
			s.observe(h.chain) // the blocks about to be disconnected
			h.fork(t, 1+rng.Intn(3))
			drain(t, h)
		case stepReopen:
			drain(t, h)
			reopen(what+" (clean reopen)", capture(t, h, s))
		case stepTear:
			drain(t, h)
			dest, err := h.wallet.NewKey()
			if err != nil {
				t.Fatal(err)
			}
			want := capture(t, h, s) // NewKey is the last write before the tear
			h.pay(t, dest, 1_000_000)
			st.TearNextApply(1 + rng.Intn(64))
			h.clk.Advance(time.Minute)
			if _, _, err := h.miner.Mine(h.payout); !errors.Is(err, store.ErrIO) {
				t.Fatalf("%s: torn connect: %v, want ErrIO", what, err)
			}
			if h.chain.BestHash() != want.Tip {
				t.Fatalf("%s: tip moved past a torn commit", what)
			}
			reopen(what+" (reopen after torn commit)", want)
		case stepReopenDisconnect:
			drain(t, h)
			reopen(what+" (reopen before disconnect)", capture(t, h, s))
			s.observe(h.chain) // the blocks about to be disconnected
			h.fork(t, 1+rng.Intn(3))
			drain(t, h)
			audit(t, what+" (disconnect after reopen)", h)
		}
	}
	drain(t, h)
	reopen(fmt.Sprintf("seed %d final reopen", seed), capture(t, h, s))
}

// TestOpenDropsRetiredFamilies plants rows of every family earlier
// releases derived and stored (chain u/s/U, wallet wu, index is, ledger
// ls/la) beside a chain, then reopens it: the node must answer with the state its
// blocks imply, ignoring the planted rows, and leave none of them.
func TestOpenDropsRetiredFamilies(t *testing.T) {
	dir := t.TempDir()
	params := chain.RegTestParams()
	clk := clock.NewSimulated(params.GenesisBlock.Header.Timestamp.Add(time.Minute))
	st, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := openNode(t, st, clk, "retired")
	h.fund(t)
	rng := rand.New(rand.NewSource(1))
	payBlock(t, h, rng)
	payBlock(t, h, rng)
	drain(t, h)
	s := &seen{
		outpoints: make(map[wire.OutPoint]bool),
		txids:     make(map[chainhash.Hash]bool),
		addrs:     make(map[bkey.Principal]bool),
	}
	want := capture(t, h, s)

	// Rows that, were they still read, would add a coin, a spend and a
	// wallet output no block made, an undo journal for the tip, and a
	// carrier seen and applied that no block holds.
	bogus := wire.OutPoint{Hash: chainhash.HashB([]byte("no such tx")), Index: 0}
	opKey := func(prefix string) []byte {
		k := append([]byte(prefix), bogus.Hash[:]...)
		return append(k, 0, 0, 0, 0)
	}
	tip := h.chain.BestHash()
	retired := []string{"u", "s", "U", "wu", "is", "ls", "la"}
	b := store.NewBatch()
	b.Put(opKey("u"), []byte{0, 1, 0x80, 0x80, 0x80, 0x10, 1, 0x51})
	b.Put(opKey("s"), append(tip[:], 0, 0, 0, 0, 1))
	b.Put(append([]byte("U"), tip[:]...), []byte{0})
	b.Put(opKey("wu"), []byte{0, 1, 1})
	b.Put(opKey("is"), append(tip[:], 0, 0, 0, 0, 1))
	b.Put(append([]byte("ls"), tip[:]...), bogus.Hash[:])
	b.Put(append([]byte("la"), bogus.Hash[:]...), []byte{1})
	if err := st.Apply(b); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h = openNode(t, st, clk, "retired/2")
	requireSame(t, "reopen over retired rows", capture(t, h, s), want)
	audit(t, "reopen over retired rows", h)
	for _, prefix := range retired {
		n := 0
		if err := st.Iterate([]byte(prefix), func(k, v []byte) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Errorf("%d %q rows survive the open", n, prefix)
		}
	}
}
