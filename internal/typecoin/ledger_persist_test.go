package typecoin_test

// The persistent ledger on a real datadir: announcements are the only
// rows it writes, the running ledger never reads them back, and a reopen
// replays the applied set the running ledger reached.

import (
	"fmt"
	"testing"
	"time"

	"typecoin/internal/bkey"
	"typecoin/internal/chain"
	"typecoin/internal/chainhash"
	"typecoin/internal/clock"
	"typecoin/internal/lf"
	"typecoin/internal/logic"
	"typecoin/internal/mempool"
	"typecoin/internal/miner"
	"typecoin/internal/proof"
	"typecoin/internal/store"
	"typecoin/internal/testutil"
	"typecoin/internal/typecoin"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

// ledgerNode is a chain, a funded wallet, a miner and a persistent
// ledger over one store.
type ledgerNode struct {
	clk    *clock.Simulated
	chain  *chain.Chain
	pool   *mempool.Pool
	wallet *wallet.Wallet
	miner  *miner.Miner
	payout bkey.Principal
	owner  *bkey.PublicKey
	ledger *typecoin.Ledger
}

func openLedgerNode(t *testing.T, st store.Store, clk *clock.Simulated) *ledgerNode {
	t.Helper()
	c, err := chain.Open(chain.Config{Params: chain.RegTestParams(), Clock: clk, Store: st})
	if err != nil {
		t.Fatalf("open chain: %v", err)
	}
	n := &ledgerNode{clk: clk, chain: c, pool: mempool.New(c, -1)}
	n.wallet = wallet.New(c, testutil.NewEntropy(t.Name()))
	if n.payout, err = n.wallet.NewKey(); err != nil {
		t.Fatal(err)
	}
	key, err := n.wallet.Key(n.payout)
	if err != nil {
		t.Fatal(err)
	}
	n.owner = key.PubKey()
	n.miner = miner.New(c, n.pool, clk)
	if n.ledger, err = typecoin.OpenLedger(c, 1); err != nil {
		t.Fatalf("open ledger: %v", err)
	}
	return n
}

func (n *ledgerNode) mine(t *testing.T, blocks int) {
	t.Helper()
	for i := 0; i < blocks; i++ {
		n.clk.Advance(time.Minute)
		if _, _, err := n.miner.Mine(n.payout); err != nil {
			t.Fatalf("mine: %v", err)
		}
	}
}

// reorgAbove replaces the main chain above forkHeight with empty blocks,
// one more than it had: a second chain shares the history up to
// forkHeight and outgrows the first.
func (n *ledgerNode) reorgAbove(t *testing.T, forkHeight int) {
	t.Helper()
	other := chain.New(chain.RegTestParams(), n.clk)
	for h := 1; h <= forkHeight; h++ {
		blk, _ := n.chain.BlockAtHeight(h)
		if _, err := other.ProcessBlock(blk); err != nil {
			t.Fatalf("fork: shared block %d: %v", h, err)
		}
	}
	otherMiner := miner.New(other, nil, n.clk)
	for i := n.chain.BestHeight() - forkHeight; i >= 0; i-- {
		n.clk.Advance(time.Minute)
		blk, _, err := otherMiner.Mine(n.payout)
		if err != nil {
			t.Fatalf("fork: mine: %v", err)
		}
		if _, err := n.chain.ProcessBlock(blk); err != nil {
			t.Fatalf("fork: feed: %v", err)
		}
	}
	if n.chain.BestHash() != other.BestHash() {
		t.Fatal("reorg did not take")
	}
}

// grant is a no-input transaction granting a fresh token; name keeps
// the hashes of a test's grants apart.
func (n *ledgerNode) grant(t *testing.T, name string) *typecoin.Tx {
	t.Helper()
	tx := typecoin.NewTx()
	if err := tx.Basis.DeclareFam(lf.This(name), lf.KProp{}); err != nil {
		t.Fatal(err)
	}
	tok := logic.Atom(lf.This(name))
	tx.Grant = tok
	tx.Outputs = []typecoin.Output{{Type: tok, Amount: 5_000, Owner: n.owner}}
	tx.Proof = proof.Lam{Name: "d", Ty: tx.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("c")}}}
	return tx
}

// carry puts a new carrier for tx into the mempool and returns its txid.
func (n *ledgerNode) carry(t *testing.T, tx *typecoin.Tx) chainhash.Hash {
	t.Helper()
	outs, err := typecoin.CarrierOutputs(tx)
	if err != nil {
		t.Fatal(err)
	}
	return n.carryOuts(t, outs)
}

// carryOuts puts a new transaction with the given typed output prefix
// into the mempool and returns its txid.
func (n *ledgerNode) carryOuts(t *testing.T, outs []*wire.TxOut) chainhash.Hash {
	t.Helper()
	wOuts := make([]wallet.Output, len(outs))
	for i, o := range outs {
		wOuts[i] = wallet.Output{Value: o.Value, PkScript: o.PkScript}
	}
	carrier, err := n.wallet.Build(wOuts, wallet.BuildOptions{})
	if err != nil {
		t.Fatalf("build carrier: %v", err)
	}
	if _, err := n.pool.Accept(carrier); err != nil {
		t.Fatalf("accept carrier: %v", err)
	}
	return carrier.TxHash()
}

// wantApplied demands that the ledger's applied set equal want.
func wantApplied(t *testing.T, when string, l *typecoin.Ledger, want ...chainhash.Hash) {
	t.Helper()
	if l.AppliedCount() != len(want) {
		t.Fatalf("%s: %d applied, want %d", when, l.AppliedCount(), len(want))
	}
	for _, id := range want {
		if !l.Applied(id) {
			t.Fatalf("%s: carrier %s not applied", when, id)
		}
	}
}

// wantOnlyAnnouncements demands that st hold no ls or la row: the
// ledger persists its announcements and nothing it derives from them.
func wantOnlyAnnouncements(t *testing.T, when string, st store.Store) {
	t.Helper()
	for _, prefix := range []string{"ls", "la"} {
		err := st.Iterate([]byte(prefix), func(k, _ []byte) error {
			return fmt.Errorf("derived row %x", k)
		})
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
}

// wantReopenMatches opens a second chain and ledger over st, as a
// restart would, and demands that they apply exactly the carriers the
// running ledger applies.
func wantReopenMatches(t *testing.T, when string, st store.Store, clk *clock.Simulated, running *typecoin.Ledger, carriers ...chainhash.Hash) {
	t.Helper()
	c, err := chain.Open(chain.Config{Params: chain.RegTestParams(), Clock: clk, Store: st})
	if err != nil {
		t.Fatalf("%s: reopen chain: %v", when, err)
	}
	l, err := typecoin.OpenLedger(c, running.MinConf())
	if err != nil {
		t.Fatalf("%s: reopen ledger: %v", when, err)
	}
	if l.AppliedCount() != running.AppliedCount() {
		t.Fatalf("%s: reopen applies %d, the running ledger %d", when, l.AppliedCount(), running.AppliedCount())
	}
	for _, id := range carriers {
		if l.Applied(id) != running.Applied(id) {
			t.Fatalf("%s: carrier %s: reopen applied %v, running %v", when, id, l.Applied(id), running.Applied(id))
		}
	}
}

func TestLedgerWritesOnlyAnnouncements(t *testing.T) {
	dir := t.TempDir()
	file, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The engine only counts here: the ledger reads the store in
	// OpenLedger and must never read it again. The reopens after each
	// step read file directly, past the count.
	eng := store.NewFaultEngine(file, 0)
	clk := clock.NewSimulated(chain.RegTestParams().GenesisBlock.Header.Timestamp.Add(time.Minute))
	n := openLedgerNode(t, eng, clk)
	scans := eng.OpCalls(store.OpIterate)
	var carriers []chainhash.Hash
	step := func(when string, want ...chainhash.Hash) {
		t.Helper()
		wantApplied(t, when, n.ledger, want...)
		wantOnlyAnnouncements(t, when, file)
		if got := eng.OpCalls(store.OpIterate); got != scans {
			t.Fatalf("%s: the running ledger scanned the store: %d Iterate calls since OpenLedger", when, got-scans)
		}
		wantReopenMatches(t, when, file, clk, n.ledger, carriers...)
	}
	n.mine(t, n.chain.Params().CoinbaseMaturity+6) // six mature coinbases to fund carriers

	// (i) announce, then mine.
	t1 := n.grant(t, "one")
	n.ledger.Announce(t1)
	c1 := n.carry(t, t1)
	n.mine(t, 1)
	carriers = append(carriers, c1)
	step("announce-then-mine", c1)

	// (ii) mine, then announce.
	t2 := n.grant(t, "two")
	c2 := n.carry(t, t2)
	n.mine(t, 1)
	carriers = append(carriers, c2)
	step("mined, unannounced", c1)
	n.ledger.Announce(t2)
	step("mine-then-announce", c1, c2)

	// (iii) a late announcement whose carrier sits before an applied one
	// forces a rebuild, and the rebuild takes a carrier back: cL commits
	// to the list {t3, t3x} and is mined first, c3 commits to t3 alone.
	// With only t3 announced c3 applies; once the list is announced,
	// blockchain order gives t3 to cL and c3 is refused as a duplicate.
	t3, t3x := n.grant(t, "three"), n.grant(t, "threeX")
	list := &typecoin.FallbackList{Txs: []*typecoin.Tx{t3, t3x}}
	listOuts, err := typecoin.CarrierOutputsList(list)
	if err != nil {
		t.Fatal(err)
	}
	cL := n.carryOuts(t, listOuts)
	n.mine(t, 1)
	c3 := n.carry(t, t3)
	n.mine(t, 1)
	n.ledger.Announce(t3)
	carriers = append(carriers, cL, c3)
	step("later carrier applied", c1, c2, c3)
	t5 := n.grant(t, "five")
	n.ledger.Announce(t5)
	c5 := n.carry(t, t5)
	n.mine(t, 1)
	carriers = append(carriers, c5)
	forkHeight := n.chain.BestHeight() - 1 // c5's block is the tip
	n.ledger.AnnounceList(list)
	step("late announcement, rebuilt", c1, c2, cL, c5)

	// (iv) a reorg drops c5: a second chain shares the history below the
	// tip and outgrows it with empty blocks.
	n.reorgAbove(t, forkHeight)
	step("reorg", c1, c2, cL)

	// (v) close and reopen: same applied set, nothing written.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	file2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer file2.Close()
	before := file2.JournalBytes()
	n2 := openLedgerNode(t, file2, clk)
	wantApplied(t, "reopen", n2.ledger, c1, c2, cL)
	wantOnlyAnnouncements(t, "reopen", file2)
	if err := n2.ledger.AuditAffine(); err != nil {
		t.Fatalf("reopened ledger audit: %v", err)
	}
	if got := file2.JournalBytes(); got != before {
		t.Fatalf("reopening a datadir wrote %d journal bytes", got-before)
	}
}

// The late-announcement rule compares blockchain positions, not heights:
// cL (the list {t, tx}) and c (t alone) are mined in one block, cL first.
// With only t announced c applies; announcing the list then finds cL in
// the same block ahead of an applied carrier, and must replay so that cL
// takes t and c is refused, as on a node that knew the list all along.
func TestLedgerMarkersLateAnnounceSameBlock(t *testing.T) {
	clk := clock.NewSimulated(chain.RegTestParams().GenesisBlock.Header.Timestamp.Add(time.Minute))
	st := store.NewMem()
	n := openLedgerNode(t, st, clk)
	n.mine(t, n.chain.Params().CoinbaseMaturity+2)
	tx, txx := n.grant(t, "same"), n.grant(t, "sameX")
	list := &typecoin.FallbackList{Txs: []*typecoin.Tx{tx, txx}}
	listOuts, err := typecoin.CarrierOutputsList(list)
	if err != nil {
		t.Fatal(err)
	}
	cL := n.carryOuts(t, listOuts)
	c := n.carry(t, tx)
	n.mine(t, 1)
	hL, iL, okL := n.chain.TxPosition(cL)
	h, i, ok := n.chain.TxPosition(c)
	if !okL || !ok || hL != h || iL >= i {
		t.Fatalf("carriers at (%d,%d) and (%d,%d): want one block, the list's carrier first", hL, iL, h, i)
	}
	n.ledger.Announce(tx)
	wantApplied(t, "later carrier applied", n.ledger, c)
	n.ledger.AnnounceList(list)
	wantApplied(t, "late announcement, same block", n.ledger, cL)

	fresh := typecoin.NewLedger(n.chain, 1)
	fresh.Announce(tx)
	fresh.AnnounceList(list)
	fresh.Rescan()
	if !fresh.Applied(cL) || fresh.Applied(c) {
		t.Fatalf("a replay applies cL %v, c %v; want cL only", fresh.Applied(cL), fresh.Applied(c))
	}
}

// appliedDatadir leaves, in a closed datadir, a chain on which one
// announced grant's carrier is confirmed and applied.
func appliedDatadir(t *testing.T, clk *clock.Simulated) (dir string, tx *typecoin.Tx, carrier chainhash.Hash) {
	t.Helper()
	dir = t.TempDir()
	file, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := openLedgerNode(t, file, clk)
	n.mine(t, n.chain.Params().CoinbaseMaturity+1)
	tx = n.grant(t, "tok")
	n.ledger.Announce(tx)
	carrier = n.carry(t, tx)
	n.mine(t, 1)
	wantApplied(t, "first run", n.ledger, carrier)
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, tx, carrier
}

// A commitment hash is public, so anyone can mine a second carrier for
// it. Announced after both are mined, the running ledger applies the one
// a replay applies — the first valid carrier in blockchain order — and
// the datadir it wrote reopens.
func TestLedgerReopenDuplicateCarriers(t *testing.T) {
	clk := clock.NewSimulated(chain.RegTestParams().GenesisBlock.Header.Timestamp.Add(time.Minute))
	dir := t.TempDir()
	file, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := openLedgerNode(t, file, clk)
	n.mine(t, n.chain.Params().CoinbaseMaturity+4)
	// Two well-formed carriers of ta: the earlier wins.
	ta := n.grant(t, "a")
	ca1 := n.carry(t, ta)
	n.mine(t, 1)
	n.carry(t, ta)
	n.mine(t, 1)
	// The earlier carrier of tb pays the wrong amount and is no carrier
	// of it at all: the later wins.
	tb := n.grant(t, "b")
	bad, err := typecoin.CarrierOutputs(tb)
	if err != nil {
		t.Fatal(err)
	}
	bad[0].Value++
	n.carryOuts(t, bad)
	n.mine(t, 1)
	cb2 := n.carry(t, tb)
	n.mine(t, 1)
	n.ledger.Announce(ta)
	n.ledger.Announce(tb)
	wantApplied(t, "duplicate carriers, swept", n.ledger, ca1, cb2)
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}

	file2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer file2.Close()
	n2 := openLedgerNode(t, file2, clk)
	wantApplied(t, "duplicate carriers, reopened", n2.ledger, ca1, cb2)
}

// An announcement row the store refuses is not lost: it is retried on
// the next block connect, and the datadir reopens with its carrier
// applied.
func TestLedgerReopenAfterRefusedBatch(t *testing.T) {
	clk := clock.NewSimulated(chain.RegTestParams().GenesisBlock.Header.Timestamp.Add(time.Minute))
	dir := t.TempDir()
	file, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := store.NewFaultEngine(file, 0)
	n := openLedgerNode(t, eng, clk)
	n.mine(t, n.chain.Params().CoinbaseMaturity+1)
	tx := n.grant(t, "tok")
	h := tx.Hash()
	eng.Inject(store.FaultRule{Op: store.OpApply, Kind: store.KindEIO, Mode: store.ModeOneShot})
	n.ledger.Announce(tx)
	if ok, _ := file.Has(append([]byte("ka"), h[:]...)); ok {
		t.Fatal("the injected fault did not refuse the announcement's batch")
	}
	carrier := n.carry(t, tx)
	n.mine(t, 1)
	wantApplied(t, "after the refused batch", n.ledger, carrier)
	if ok, _ := file.Has(append([]byte("ka"), h[:]...)); !ok {
		t.Fatal("the refused announcement row was never written")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	file2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer file2.Close()
	n2 := openLedgerNode(t, file2, clk)
	wantApplied(t, "reopened after the refused batch", n2.ledger, carrier)
}

// A confirmed carrier whose announcement row is gone opens as never
// announced: the carrier is not applied and its hash is re-requested.
// Announcing it again brings the ledger to what a fresh replay holds.
func TestLedgerReopenLostAnnouncement(t *testing.T) {
	clk := clock.NewSimulated(chain.RegTestParams().GenesisBlock.Header.Timestamp.Add(time.Minute))
	dir, tx, carrier := appliedDatadir(t, clk)

	file, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	h := (&typecoin.FallbackList{Txs: []*typecoin.Tx{tx}}).Hash()
	b := store.NewBatch()
	b.Delete(append([]byte("ka"), h[:]...))
	if err := file.Apply(b); err != nil {
		t.Fatal(err)
	}
	n := openLedgerNode(t, file, clk)
	wantApplied(t, "reopen without the announcement", n.ledger)
	if missing := n.ledger.MissingAnnouncements(); len(missing) != 1 || missing[0] != h {
		t.Fatalf("MissingAnnouncements = %v, want [%s]", missing, h)
	}

	n.ledger.Announce(tx)
	wantApplied(t, "re-announced", n.ledger, carrier)
	fresh := typecoin.NewLedger(n.chain, 1)
	fresh.Announce(tx)
	fresh.Rescan()
	if !fresh.Applied(carrier) {
		t.Fatal("a fresh replay does not apply the carrier")
	}
	out := wire.OutPoint{Hash: carrier, Index: 0}
	got, gok := n.ledger.ResolveOutput(out)
	want, wok := fresh.ResolveOutput(out)
	if !gok || !wok {
		t.Fatalf("typed output resolves %v, in a fresh replay %v; want both", gok, wok)
	}
	if eq, err := logic.PropEqual(got, want); err != nil || !eq {
		t.Fatalf("typed output has type %s, in a fresh replay %s (%v)", got, want, err)
	}
	r := lf.TxRef(carrier, "tok")
	_, gok = n.ledger.GlobalBasis().LookupFamConst(r)
	_, wok = fresh.GlobalBasis().LookupFamConst(r)
	if !gok || !wok {
		t.Fatalf("%s resolves %v, in a fresh replay %v; want both", r, gok, wok)
	}
}
