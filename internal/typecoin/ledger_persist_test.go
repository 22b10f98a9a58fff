package typecoin_test

// The persistent ledger's marker discipline, on a real datadir: every
// mutation writes exactly the la rows it changed and never reads them
// back, and OpenLedger settles what a previous run left behind.

import (
	"errors"
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

// markerRows reads the la rows of st.
func markerRows(t *testing.T, st store.Store) map[chainhash.Hash]bool {
	t.Helper()
	rows := make(map[chainhash.Hash]bool)
	err := st.Iterate([]byte("la"), func(k, v []byte) error {
		var id chainhash.Hash
		if len(k) != 2+len(id) {
			return fmt.Errorf("malformed la key %x", k)
		}
		copy(id[:], k[2:])
		rows[id] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// wantMarkers demands that the la rows of st and the ledger's applied
// set both equal want.
func wantMarkers(t *testing.T, when string, st store.Store, l *typecoin.Ledger, want ...chainhash.Hash) {
	t.Helper()
	rows := markerRows(t, st)
	if len(rows) != len(want) || l.AppliedCount() != len(want) {
		t.Fatalf("%s: %d la rows, %d applied, want %d of each", when, len(rows), l.AppliedCount(), len(want))
	}
	for _, id := range want {
		if !rows[id] || !l.Applied(id) {
			t.Fatalf("%s: carrier %s: la row %v, applied %v; want both", when, id, rows[id], l.Applied(id))
		}
	}
}

func TestLedgerMarkersTrackApplied(t *testing.T) {
	dir := t.TempDir()
	file, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The engine only counts here: the ledger reads the store in
	// OpenLedger and must never read it again.
	eng := store.NewFaultEngine(file, 0)
	clk := clock.NewSimulated(chain.RegTestParams().GenesisBlock.Header.Timestamp.Add(time.Minute))
	n := openLedgerNode(t, eng, clk)
	scans := eng.OpCalls(store.OpIterate)
	n.mine(t, n.chain.Params().CoinbaseMaturity+6) // six mature coinbases to fund carriers

	// (i) announce, then mine.
	t1 := n.grant(t, "one")
	n.ledger.Announce(t1)
	c1 := n.carry(t, t1)
	n.mine(t, 1)
	wantMarkers(t, "announce-then-mine", file, n.ledger, c1)

	// (ii) mine, then announce.
	t2 := n.grant(t, "two")
	c2 := n.carry(t, t2)
	n.mine(t, 1)
	wantMarkers(t, "mined, unannounced", file, n.ledger, c1)
	n.ledger.Announce(t2)
	wantMarkers(t, "mine-then-announce", file, n.ledger, c1, c2)

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
	wantMarkers(t, "later carrier applied", file, n.ledger, c1, c2, c3)
	t5 := n.grant(t, "five")
	n.ledger.Announce(t5)
	c5 := n.carry(t, t5)
	n.mine(t, 1)
	forkHeight := n.chain.BestHeight() - 1 // c5's block is the tip
	n.ledger.AnnounceList(list)
	wantMarkers(t, "late announcement, rebuilt", file, n.ledger, c1, c2, cL, c5)

	// (iv) a reorg drops c5: a second chain shares the history below the
	// tip and outgrows it with empty blocks.
	n.reorgAbove(t, forkHeight)
	wantMarkers(t, "reorg", file, n.ledger, c1, c2, cL)

	if got := eng.OpCalls(store.OpIterate); got != scans {
		t.Fatalf("the running ledger scanned the store: %d Iterate calls since OpenLedger", got-scans)
	}

	// (v) close and reopen: same markers, same applied set, nothing to
	// repair.
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
	wantMarkers(t, "reopen", file2, n2.ledger, c1, c2, cL)
	if err := n2.ledger.AuditAffine(); err != nil {
		t.Fatalf("reopened ledger audit: %v", err)
	}
	if got := file2.JournalBytes(); got != before {
		t.Fatalf("reopening a consistent datadir wrote %d journal bytes", got-before)
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
	wantMarkers(t, "later carrier applied", st, n.ledger, c)
	n.ledger.AnnounceList(list)
	wantMarkers(t, "late announcement, same block", st, n.ledger, cL)

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
	wantMarkers(t, "first run", file, n.ledger, carrier)
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
	wantMarkers(t, "duplicate carriers, swept", file, n.ledger, ca1, cb2)
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}

	file2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer file2.Close()
	n2 := openLedgerNode(t, file2, clk)
	wantMarkers(t, "duplicate carriers, reopened", file2, n2.ledger, ca1, cb2)
}

// A batch the store refuses is not lost: its rows ride in front of the
// next mutation's, so the announcement row cannot be overtaken by the
// marker of its own carrier, and the datadir reopens.
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
	wantMarkers(t, "after the refused batch", file, n.ledger, carrier)
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
	wantMarkers(t, "reopened after the refused batch", file2, n2.ledger, carrier)
}

// A marker for a confirmed carrier that the replay cannot reproduce —
// here because its announcement row is gone — refuses to open, and the
// evidence stays in the store.
func TestLedgerReopenDivergedMarker(t *testing.T) {
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
	c, err := chain.Open(chain.Config{Params: chain.RegTestParams(), Clock: clk, Store: file})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := typecoin.OpenLedger(c, 1); !errors.Is(err, typecoin.ErrStateDiverged) {
		t.Fatalf("OpenLedger = %v, want ErrStateDiverged", err)
	}
	if !markerRows(t, file)[carrier] {
		t.Fatal("the refused open erased the marker it refused")
	}
}

// A marker whose carrier is not on the recovered chain is what a crash
// between a disconnect commit and the ledger's delete leaves: the open
// succeeds and removes it.
func TestLedgerReopenStaleMarker(t *testing.T) {
	clk := clock.NewSimulated(chain.RegTestParams().GenesisBlock.Header.Timestamp.Add(time.Minute))
	dir, _, carrier := appliedDatadir(t, clk)

	file, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	stale := chainhash.Hash{0xde, 0xad}
	b := store.NewBatch()
	b.Put(append([]byte("la"), stale[:]...), []byte{1})
	if err := file.Apply(b); err != nil {
		t.Fatal(err)
	}
	n := openLedgerNode(t, file, clk)
	wantMarkers(t, "reopen over a stale marker", file, n.ledger, carrier)
}
