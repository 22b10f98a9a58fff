package chain

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"

	"typecoin/internal/chainhash"
	"typecoin/internal/clock"
	"typecoin/internal/store"
	"typecoin/internal/telemetry"
	"typecoin/internal/wire"
)

// mineChainBlocks builds a donor chain of n blocks and returns them, so
// tests can feed headers and bodies to a separate chain in any order.
func mineChainBlocks(t testing.TB, n int) (*Chain, *clock.Simulated, []*wire.MsgBlock) {
	t.Helper()
	donor, clk := newTestChain(t)
	blocks := extend(t, donor, clk, n, 0xd0)
	return donor, clk, blocks
}

func headersOf(blocks []*wire.MsgBlock) []wire.BlockHeader {
	out := make([]wire.BlockHeader, len(blocks))
	for i, b := range blocks {
		out[i] = b.Header
	}
	return out
}

func TestProcessHeadersExtendsHeaderTip(t *testing.T) {
	_, clk, blocks := mineChainBlocks(t, 30)
	c := New(RegTestParams(), clk)
	accepted, err := c.ProcessHeaders(headersOf(blocks))
	if err != nil {
		t.Fatalf("ProcessHeaders: %v", err)
	}
	if accepted != 30 {
		t.Fatalf("accepted = %d, want 30", accepted)
	}
	if got := c.HeaderHeight(); got != 30 {
		t.Fatalf("header height = %d, want 30", got)
	}
	if c.BestHeight() != 0 {
		t.Fatalf("connected height = %d, want 0 (no bodies yet)", c.BestHeight())
	}
	if c.HeaderTipHash() != blocks[29].BlockHash() {
		t.Fatal("header tip is not the last header")
	}
	// Re-offering the same headers is a no-op, not an error.
	if accepted, err := c.ProcessHeaders(headersOf(blocks)); err != nil || accepted != 30 {
		t.Fatalf("re-process: accepted=%d err=%v", accepted, err)
	}
}

func TestProcessHeadersRejectsOrphanSkeleton(t *testing.T) {
	_, clk, blocks := mineChainBlocks(t, 10)
	c := New(RegTestParams(), clk)
	// Headers that skip the connecting prefix cannot attach.
	accepted, err := c.ProcessHeaders(headersOf(blocks[5:]))
	if !errors.Is(err, ErrOrphanHeader) {
		t.Fatalf("err = %v, want ErrOrphanHeader", err)
	}
	if accepted != 0 {
		t.Fatalf("accepted = %d, want 0", accepted)
	}
	// A partial batch accepts the connecting prefix, then fails.
	mixed := append(headersOf(blocks[:3]), headersOf(blocks[6:])...)
	accepted, err = c.ProcessHeaders(mixed)
	if !errors.Is(err, ErrOrphanHeader) || accepted != 3 {
		t.Fatalf("mixed batch: accepted=%d err=%v", accepted, err)
	}
}

func TestProcessHeadersRejectsInvalid(t *testing.T) {
	_, clk, blocks := mineChainBlocks(t, 3)
	c := New(RegTestParams(), clk)
	bad := headersOf(blocks)
	bad[1].Timestamp = bad[1].Timestamp.Add(3 * time.Hour) // future; also breaks PoW solution
	if _, err := c.ProcessHeaders(bad); err == nil {
		t.Fatal("tampered header accepted")
	}
	// An unsolved header fails proof of work.
	unsolved := headersOf(blocks)
	unsolved[2].Nonce++
	if accepted, err := c.ProcessHeaders(unsolved); !errors.Is(err, ErrBadProofOfWork) {
		t.Fatalf("accepted=%d err=%v, want ErrBadProofOfWork", accepted, err)
	}
}

func TestOutOfOrderBodiesParkAndConnect(t *testing.T) {
	_, clk, blocks := mineChainBlocks(t, 12)
	c := New(RegTestParams(), clk)
	if _, err := c.ProcessHeaders(headersOf(blocks)); err != nil {
		t.Fatal(err)
	}
	// Deliver bodies in reverse: all but the first park.
	for i := len(blocks) - 1; i > 0; i-- {
		status, err := c.ProcessBlock(blocks[i])
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		if status != StatusParked {
			t.Fatalf("body %d status = %v, want parked", i, status)
		}
	}
	if got := c.ParkedCount(); got != 11 {
		t.Fatalf("parked = %d, want 11", got)
	}
	// The first body unblocks the whole parked run.
	status, err := c.ProcessBlock(blocks[0])
	if err != nil || status != StatusMainChain {
		t.Fatalf("body 0: status=%v err=%v", status, err)
	}
	if c.BestHeight() != 12 {
		t.Fatalf("connected height = %d, want 12", c.BestHeight())
	}
	if c.ParkedCount() != 0 {
		t.Fatalf("parked = %d after connect, want 0", c.ParkedCount())
	}
	if err := c.AuditFromGenesis(); err != nil {
		t.Fatal(err)
	}
}

func TestNextNeededBodiesFollowsSkeleton(t *testing.T) {
	_, clk, blocks := mineChainBlocks(t, 8)
	c := New(RegTestParams(), clk)
	if got := c.NextNeededBodies(16); len(got) != 0 {
		t.Fatalf("fresh chain needs %d bodies, want 0", len(got))
	}
	if _, err := c.ProcessHeaders(headersOf(blocks)); err != nil {
		t.Fatal(err)
	}
	need := c.NextNeededBodies(16)
	if len(need) != 8 {
		t.Fatalf("need %d bodies, want 8", len(need))
	}
	for i, nb := range need {
		if nb.Hash != blocks[i].BlockHash() || nb.Height != i+1 {
			t.Fatalf("need[%d] out of skeleton order", i)
		}
	}
	// A parked body and a connected body both leave the list; the cap is
	// honored.
	if _, err := c.ProcessBlock(blocks[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ProcessBlock(blocks[0]); err != nil {
		t.Fatal(err)
	}
	need = c.NextNeededBodies(3)
	want := []int{1, 3, 4}
	if len(need) != 3 {
		t.Fatalf("need %d bodies, want 3", len(need))
	}
	for i, idx := range want {
		if need[i].Hash != blocks[idx].BlockHash() {
			t.Fatalf("need[%d] = %s, want block %d", i, need[i].Hash, idx)
		}
	}
}

func TestHeaderLocatorAndHeadersAfter(t *testing.T) {
	_, clk, blocks := mineChainBlocks(t, 40)
	c := New(RegTestParams(), clk)
	if _, err := c.ProcessHeaders(headersOf(blocks)); err != nil {
		t.Fatal(err)
	}
	// Headers are only served once their bodies are: a bare skeleton is
	// not relayed (see HeadersAfter). Before any body connects, a fresh
	// peer gets nothing.
	fresh := New(RegTestParams(), clk)
	if got := c.HeadersAfter(fresh.HeaderLocator(), wire.MaxHeadersPerMsg); len(got) != 0 {
		t.Fatalf("bodyless skeleton served %d headers, want 0", len(got))
	}
	// Connect the first 30 bodies: serving stops at the body frontier.
	for _, blk := range blocks[:30] {
		if _, err := c.ProcessBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.HeadersAfter(fresh.HeaderLocator(), wire.MaxHeadersPerMsg); len(got) != 30 {
		t.Fatalf("partially-backed skeleton served %d headers, want 30", len(got))
	}
	for _, blk := range blocks[30:] {
		if _, err := c.ProcessBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	loc := c.HeaderLocator()
	if loc[0] != blocks[39].BlockHash() {
		t.Fatal("locator does not start at the header tip")
	}
	if loc[len(loc)-1] != c.Params().GenesisBlock.BlockHash() {
		t.Fatal("locator does not end at genesis")
	}
	// A peer with the same skeleton gets nothing after the locator.
	if got := c.HeadersAfter(loc, wire.MaxHeadersPerMsg); len(got) != 0 {
		t.Fatalf("caught-up peer got %d headers", len(got))
	}
	// A peer 40 behind gets the whole skeleton from its genesis locator.
	got := c.HeadersAfter(fresh.HeaderLocator(), wire.MaxHeadersPerMsg)
	if len(got) != 40 {
		t.Fatalf("fresh peer got %d headers, want 40", len(got))
	}
	if got[0].BlockHash() != blocks[0].BlockHash() {
		t.Fatal("headers do not start after genesis")
	}
	// The serve limit is honored.
	if got := c.HeadersAfter(fresh.HeaderLocator(), 7); len(got) != 7 {
		t.Fatalf("limited serve returned %d headers", len(got))
	}
}

func TestHeaderIndexSurvivesReopen(t *testing.T) {
	_, clk, blocks := mineChainBlocks(t, 25)
	st := store.NewMem()
	c, err := Open(Config{Params: RegTestParams(), Clock: clk, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	// Accept the full skeleton but connect only the first 10 bodies:
	// the persisted header tip must run ahead of the connected tip.
	if _, err := c.ProcessHeaders(headersOf(blocks)); err != nil {
		t.Fatal(err)
	}
	for _, blk := range blocks[:10] {
		if _, err := c.ProcessBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	if c.BestHeight() != 10 || c.HeaderHeight() != 25 {
		t.Fatalf("pre-reopen heights: connected=%d header=%d", c.BestHeight(), c.HeaderHeight())
	}

	re, err := Open(Config{Params: RegTestParams(), Clock: clk, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if re.BestHeight() != 10 {
		t.Fatalf("reopened connected height = %d, want 10", re.BestHeight())
	}
	if re.HeaderHeight() != 25 {
		t.Fatalf("reopened header height = %d, want 25 (skeleton lost)", re.HeaderHeight())
	}
	if re.HeaderTipHash() != blocks[24].BlockHash() {
		t.Fatal("reopened header tip mismatch")
	}
	// The reopened node knows exactly which bodies it still needs, and
	// connecting them resumes where it left off.
	need := re.NextNeededBodies(100)
	if len(need) != 15 || need[0].Hash != blocks[10].BlockHash() {
		t.Fatalf("reopened node needs %d bodies starting at %v", len(need), need)
	}
	for _, blk := range blocks[10:] {
		if status, err := re.ProcessBlock(blk); err != nil || status != StatusMainChain {
			t.Fatalf("resume connect: status=%v err=%v", status, err)
		}
	}
	if re.BestHeight() != 25 {
		t.Fatalf("resumed height = %d, want 25", re.BestHeight())
	}
	if err := re.AuditFromGenesis(); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderReorgPrefersMoreWork(t *testing.T) {
	// Two donors fork at height 5: branch A reaches 8, branch B reaches
	// 12. A node that saw A's skeleton first must switch its header tip
	// and body schedule to B.
	donor, clk, shared := mineChainBlocks(t, 5)
	branchA := extend(t, donor, clk, 3, 0xaa)

	donorB := New(RegTestParams(), clk)
	for _, blk := range shared {
		if _, err := donorB.ProcessBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	var branchB []*wire.MsgBlock
	for i := 0; i < 7; i++ {
		// Offset timestamps so branch B's blocks differ from branch A's.
		ts := clk.Now().Add(time.Duration(i+1) * time.Minute)
		blk := mineEmpty(t, donorB, donorB.BestHash(), donorB.BestHeight()+1, ts, 0xbb)
		if _, err := donorB.ProcessBlock(blk); err != nil {
			t.Fatal(err)
		}
		branchB = append(branchB, blk)
	}

	c := New(RegTestParams(), clk)
	if _, err := c.ProcessHeaders(headersOf(append(append([]*wire.MsgBlock{}, shared...), branchA...))); err != nil {
		t.Fatal(err)
	}
	if c.HeaderHeight() != 8 {
		t.Fatalf("header height = %d, want 8", c.HeaderHeight())
	}
	if _, err := c.ProcessHeaders(headersOf(branchB)); err != nil {
		t.Fatal(err)
	}
	if c.HeaderHeight() != 12 {
		t.Fatalf("header height after reorg = %d, want 12", c.HeaderHeight())
	}
	if c.HeaderTipHash() != branchB[6].BlockHash() {
		t.Fatal("header tip did not move to the heavier branch")
	}
	// The body schedule follows the heavier skeleton.
	need := c.NextNeededBodies(100)
	if len(need) != 12 {
		t.Fatalf("need %d bodies, want 12", len(need))
	}
	if need[5].Hash != branchB[0].BlockHash() {
		t.Fatal("body schedule still follows the lighter branch")
	}
	// Availability is per chain, not per height: a peer whose best
	// announced header is branch A's tip can only serve up to the fork
	// point of the now-heavier skeleton.
	if got := c.ServableHeight(branchB[6].BlockHash()); got != 12 {
		t.Fatalf("ServableHeight(tip B) = %d, want 12", got)
	}
	if got := c.ServableHeight(branchA[2].BlockHash()); got != 5 {
		t.Fatalf("ServableHeight(tip A) = %d, want 5 (fork point)", got)
	}
	if got := c.ServableHeight(chainhash.Hash{0xde, 0xad}); got != 0 {
		t.Fatalf("ServableHeight(unknown) = %d, want 0", got)
	}
}

// mineBlock builds and solves a block on prev carrying txs, whose fees
// the coinbase collects.
func mineBlock(t testing.TB, c *Chain, prev chainhash.Hash, height int, ts time.Time, tag byte, fees int64, txs ...*wire.MsgTx) *wire.MsgBlock {
	t.Helper()
	blk := mineEmpty(t, c, prev, height, ts, tag)
	blk.Transactions[0].TxOut[0].Value += fees
	blk.Transactions[0].InvalidateCache()
	blk.Transactions = append(blk.Transactions, txs...)
	blk.Header.MerkleRoot = wire.ComputeMerkleRoot(blk.Transactions)
	solve(t, blk, c.Params())
	return blk
}

// mineBranch mines n empty blocks on top of prev without connecting them
// anywhere.
func mineBranch(t testing.TB, c *Chain, clk *clock.Simulated, prev chainhash.Hash, prevHeight, n int, tag byte) []*wire.MsgBlock {
	t.Helper()
	var out []*wire.MsgBlock
	for i := 1; i <= n; i++ {
		blk := mineEmpty(t, c, prev, prevHeight+i, clk.Advance(time.Minute), tag)
		out = append(out, blk)
		prev = blk.BlockHash()
	}
	return out
}

// spendOf spends the anyone-can-spend coinbase of blk, paying a 1000
// fee; tag makes distinct spends of one output.
func spendOf(blk *wire.MsgBlock, tag byte) *wire.MsgTx {
	cb := blk.Transactions[0]
	tx := wire.NewMsgTx(wire.TxVersion)
	tx.AddTxIn(&wire.TxIn{PreviousOutPoint: wire.OutPoint{Hash: cb.TxHash()}, Sequence: wire.MaxTxInSequenceNum})
	tx.AddTxOut(&wire.TxOut{Value: cb.TxOut[0].Value - 1000, PkScript: []byte{0x51, tag}})
	return tx
}

func neededHashes(c *Chain) []chainhash.Hash {
	var out []chainhash.Hash
	for _, nb := range c.NextNeededBodies(1000) {
		out = append(out, nb.Hash)
	}
	return out
}

func hashesOf(blocks []*wire.MsgBlock) []chainhash.Hash {
	var out []chainhash.Hash
	for _, b := range blocks {
		out = append(out, b.BlockHash())
	}
	return out
}

func mustProcessBlocks(t testing.TB, c *Chain, blocks []*wire.MsgBlock) {
	t.Helper()
	for _, blk := range blocks {
		if _, err := c.ProcessBlock(blk); err != nil {
			t.Fatalf("ProcessBlock: %v", err)
		}
	}
}

func mustProcessHeaders(t testing.TB, c *Chain, blocks []*wire.MsgBlock) {
	t.Helper()
	if _, err := c.ProcessHeaders(headersOf(blocks)); err != nil {
		t.Fatalf("ProcessHeaders: %v", err)
	}
}

// failedBodyFixture is a 12-block shared prefix with two competing
// continuations: branch A (two valid blocks, the first spending a mature
// coinbase) and the heavier branch B (four blocks, the first of which
// spends one output twice).
type failedBodyFixture struct {
	clk          *clock.Simulated
	shared, a, b []*wire.MsgBlock
}

func newFailedBodyFixture(t *testing.T) *failedBodyFixture {
	t.Helper()
	donor, clk, shared := mineChainBlocks(t, 12)
	fork, height := donor.BestHash(), donor.BestHeight()+1
	a1 := mineBlock(t, donor, fork, height, clk.Advance(time.Minute), 0xaa, 1000, spendOf(shared[1], 0))
	b1 := mineBlock(t, donor, fork, height, clk.Advance(time.Minute), 0xbb, 2000,
		spendOf(shared[0], 1), spendOf(shared[0], 2))
	return &failedBodyFixture{
		clk:    clk,
		shared: shared,
		a:      append([]*wire.MsgBlock{a1}, mineBranch(t, donor, clk, a1.BlockHash(), height, 1, 0xaa)...),
		b:      append([]*wire.MsgBlock{b1}, mineBranch(t, donor, clk, b1.BlockHash(), height, 3, 0xbb)...),
	}
}

// open returns a chain over st with the shared prefix connected, and the
// registry its metrics live on.
func (f *failedBodyFixture) open(t *testing.T, st store.Store) (*Chain, *telemetry.Registry) {
	t.Helper()
	c, err := Open(Config{Params: RegTestParams(), Clock: f.clk, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c.SetTelemetry(reg, nil)
	mustProcessBlocks(t, c, f.shared)
	return c, reg
}

func scriptJobs(t *testing.T, reg *telemetry.Registry) float64 {
	t.Helper()
	v, ok := reg.Value("chain_script_jobs_total")
	if !ok {
		t.Fatal("chain_script_jobs_total not registered")
	}
	return v
}

// TestFailedBodyIsRemembered: a body that fails consensus validation
// flags its node and every indexed descendant, so the best-header tip
// and the body schedule leave the branch and a re-delivery is answered
// without validating anything again. A store fault is not a verdict on
// the body and must leave the node retryable.
func TestFailedBodyIsRemembered(t *testing.T) {
	f := newFailedBodyFixture(t)
	tipA, tipB := f.a[len(f.a)-1].BlockHash(), f.b[len(f.b)-1].BlockHash()

	// expectInvalid re-delivers blk and requires the flag to answer: no
	// error but errKnownInvalid, and no script ever run.
	expectInvalid := func(t *testing.T, c *Chain, reg *telemetry.Registry, blk *wire.MsgBlock) {
		t.Helper()
		before := scriptJobs(t, reg)
		status, err := c.ProcessBlock(blk)
		if status != StatusInvalid || !errors.Is(err, errKnownInvalid) {
			t.Fatalf("re-delivery: status=%v err=%v, want invalid/errKnownInvalid", status, err)
		}
		if after := scriptJobs(t, reg); after != before {
			t.Fatalf("re-delivery ran %v script jobs", after-before)
		}
	}
	// expectOffBranchB requires that nothing still points at branch B.
	expectOffBranchB := func(t *testing.T, c *Chain, wantNeeded []chainhash.Hash) {
		t.Helper()
		if got := c.HeaderTipHash(); got != tipA {
			t.Fatalf("header tip = %s, want branch A's tip %s", got, tipA)
		}
		if got := neededHashes(c); !reflect.DeepEqual(got, wantNeeded) {
			t.Fatalf("needed bodies = %v, want %v", got, wantNeeded)
		}
		if got := c.ServableHeight(tipB); got != len(f.shared) {
			t.Fatalf("ServableHeight(tip B) = %d, want the fork point %d", got, len(f.shared))
		}
		if n, err := c.ProcessHeaders(headersOf(f.b)); n != 0 || !errors.Is(err, errKnownInvalid) {
			t.Fatalf("re-offered failed headers: accepted=%d err=%v", n, err)
		}
		child := mineBranch(t, c, f.clk, tipB, len(f.shared)+len(f.b), 1, 0xbc)
		if n, err := c.ProcessHeaders(headersOf(child)); n != 0 || !errors.Is(err, errKnownInvalid) {
			t.Fatalf("header extending a failed node: accepted=%d err=%v", n, err)
		}
	}

	t.Run("first body of the heavier skeleton", func(t *testing.T) {
		c, reg := f.open(t, store.NewMem())
		mustProcessHeaders(t, c, f.a)
		mustProcessHeaders(t, c, f.b)
		if c.HeaderTipHash() != tipB {
			t.Fatal("header tip is not on the heavier branch B")
		}
		if status, err := c.ProcessBlock(f.b[0]); status != StatusInvalid || !errors.Is(err, ErrDoubleSpend) {
			t.Fatalf("double-spending body: status=%v err=%v", status, err)
		}
		expectOffBranchB(t, c, hashesOf(f.a))
		expectInvalid(t, c, reg, f.b[0])
		// A descendant's body is turned away too, not parked.
		expectInvalid(t, c, reg, f.b[1])
		if c.ParkedCount() != 0 {
			t.Fatalf("parked = %d, want 0", c.ParkedCount())
		}
		mustProcessBlocks(t, c, f.a)
		if c.BestHash() != tipA {
			t.Fatal("branch A did not connect")
		}
		if err := c.AuditFromGenesis(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("failure found by a reorganization", func(t *testing.T) {
		// Branch A is connected; B's bodies arrive in order. B1 and B2
		// carry too little work to be validated and are stored on the
		// side, B3 triggers the reorganization that finds B1 invalid, and
		// B4 stays header-only.
		c, reg := f.open(t, store.NewMem())
		mustProcessBlocks(t, c, f.a)
		mustProcessHeaders(t, c, f.b)
		mustProcessBlocks(t, c, f.b[:2])
		if status, err := c.ProcessBlock(f.b[2]); status != StatusInvalid || !errors.Is(err, ErrDoubleSpend) {
			t.Fatalf("reorg onto the bad branch: status=%v err=%v", status, err)
		}
		if c.BestHash() != tipA {
			t.Fatal("failed reorganization did not restore branch A")
		}
		expectOffBranchB(t, c, nil)
		// At the parent of this fix every re-delivery of B3 repeated the
		// reorganization and re-verified branch A's scripts.
		for _, blk := range f.b[:3] {
			expectInvalid(t, c, reg, blk)
		}
		if err := c.AuditFromGenesis(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("flag is resident only", func(t *testing.T) {
		// The flag has no store row. A reopened node has forgotten it, so
		// the heavier bad branch holds the best header again, its first
		// body is scheduled again, and one validation flags it again.
		dir := t.TempDir()
		st, err := store.OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		c, reg := f.open(t, st)
		mustProcessHeaders(t, c, f.a)
		mustProcessHeaders(t, c, f.b)
		if status, err := c.ProcessBlock(f.b[0]); status != StatusInvalid || !errors.Is(err, ErrDoubleSpend) {
			t.Fatalf("double-spending body: status=%v err=%v", status, err)
		}
		expectInvalid(t, c, reg, f.b[0])
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		st, err = store.OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		re, reg := f.open(t, st)
		if got := re.HeaderTipHash(); got != tipB {
			t.Fatalf("reopened header tip = %s, want branch B's tip %s", got, tipB)
		}
		if got := neededHashes(re); !reflect.DeepEqual(got, hashesOf(f.b)) {
			t.Fatalf("reopened needed bodies = %v, want branch B's", got)
		}
		if status, err := re.ProcessBlock(f.b[0]); status != StatusInvalid || !errors.Is(err, ErrDoubleSpend) {
			t.Fatalf("re-delivery after reopen: status=%v err=%v, want one more validation", status, err)
		}
		expectOffBranchB(t, re, hashesOf(f.a))
		expectInvalid(t, re, reg, f.b[0])
	})

	t.Run("store fault is not a verdict", func(t *testing.T) {
		st := store.NewFaultEngine(store.NewMem(), 1)
		c, _ := f.open(t, st)
		mustProcessHeaders(t, c, f.a)
		st.Inject(store.FaultRule{Op: store.OpApply, Kind: store.KindEIO, Mode: store.ModeSticky})
		if status, err := c.ProcessBlock(f.a[0]); status != StatusInvalid || !store.IsStoreFault(err) {
			t.Fatalf("body on a failing store: status=%v err=%v, want a store fault", status, err)
		}
		if c.HeaderTipHash() != tipA {
			t.Fatal("store fault moved the header tip")
		}
		if got := neededHashes(c); !reflect.DeepEqual(got, hashesOf(f.a)) {
			t.Fatalf("needed bodies = %v, want both of branch A", got)
		}
		st.Clear()
		for _, blk := range f.a {
			if status, err := c.ProcessBlock(blk); status != StatusMainChain || err != nil {
				t.Fatalf("after the store healed: status=%v err=%v", status, err)
			}
		}
	})
}

// chainSeeds returns the property-test seed list, or the single seed
// from CHAIN_SEED for replaying a failure. The list includes seeds whose
// interleavings leave equal-work header tips: 1 and 7 fail under a
// first-seen tie-break, 45 and 95 when a connecting block does not
// claim the tie.
func chainSeeds(t *testing.T) []int64 {
	t.Helper()
	if env := os.Getenv("CHAIN_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("CHAIN_SEED=%q: %v", env, err)
		}
		return []int64{seed}
	}
	return []int64{1, 7, 23, 42, 45, 95, 98, 1337}
}

// TestBlockIndexRestartEquivalence drives a file-backed chain through a
// seeded interleaving of header batches and bodies over a tree with a
// trunk, a lighter side branch, a heavier branch that stays (mostly)
// header-only and equal-work siblings at both tips, then reopens the
// store. The rebuilt index must select the same tips as the running node
// held, and must need exactly the bodies the node still needed plus the
// parked ones, which are not persisted.
func TestBlockIndexRestartEquivalence(t *testing.T) {
	for _, seed := range chainSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRestartEquivalence(t, seed)
		})
	}
}

func runRestartEquivalence(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := filepath.Join(t.TempDir(), "data")
	params := RegTestParams()
	clk := clock.NewSimulated(params.GenesisBlock.Header.Timestamp.Add(time.Minute))
	c, st := openFileChain(t, dir, clk)

	genesis := params.GenesisBlock.BlockHash()
	trunk := mineBranch(t, c, clk, genesis, 0, 8, 0x01)
	heavy := mineBranch(t, c, clk, trunk[5].BlockHash(), 6, 6, 0x03)
	branches := [][]*wire.MsgBlock{
		trunk,
		mineBranch(t, c, clk, trunk[3].BlockHash(), 4, 3, 0x02), // lighter side branch
		heavy,
		mineBranch(t, c, clk, trunk[7].BlockHash(), 8, 1, 0x04),  // equal-work siblings
		mineBranch(t, c, clk, trunk[7].BlockHash(), 8, 1, 0x05),  // above the trunk
		mineBranch(t, c, clk, heavy[4].BlockHash(), 11, 1, 0x06), // sibling of the heavy tip
	}
	// How much of each branch's skeleton is ever offered: the heavy
	// branch stops anywhere (leaving its header chain lighter than, level
	// with, or heavier than the trunk's children), siblings come or not.
	limit := []int{len(trunk), 3, rng.Intn(len(heavy) + 1), rng.Intn(2), rng.Intn(2), rng.Intn(2)}
	if limit[2] < 5 {
		limit[5] = 0 // its parent is never indexed
	}
	// Some bodies never arrive; the heavy branch gets at most its first
	// two, its sibling none.
	var bodies []*wire.MsgBlock
	for i, br := range branches {
		for j, blk := range br {
			if rng.Intn(6) > 0 && (i != 2 || j < 2) && i != 5 {
				bodies = append(bodies, blk)
			}
		}
	}
	// Three delivery disciplines: bodies in mining order with headers
	// trailing (blocks connect as they come), the whole skeleton first
	// and bodies shuffled (they park), or everything shuffled (a body
	// ahead of both its header and its parent body is dropped).
	mode := rng.Intn(3)
	if mode > 0 {
		rng.Shuffle(len(bodies), func(i, j int) { bodies[i], bodies[j] = bodies[j], bodies[i] })
	}

	// Header batches follow each branch in order; a batch whose fork
	// point is not indexed yet is refused and offered again later.
	sent := make([]int, len(branches))
	dropped := 0
	for step := 0; ; step++ {
		if step > 10000 {
			t.Fatal("interleaving did not finish")
		}
		var left []int
		for i := range branches {
			if sent[i] < limit[i] {
				left = append(left, i)
			}
		}
		if len(left) == 0 && len(bodies) == 0 {
			break
		}
		if len(bodies) == 0 || (len(left) > 0 && (mode == 1 || rng.Intn(2) == 0)) {
			i := left[rng.Intn(len(left))]
			end := sent[i] + 1 + rng.Intn(4)
			if end > limit[i] {
				end = limit[i]
			}
			n, err := c.ProcessHeaders(headersOf(branches[i][sent[i]:end]))
			if err != nil && !errors.Is(err, ErrOrphanHeader) {
				t.Fatalf("ProcessHeaders: %v", err)
			}
			sent[i] += n
			continue
		}
		status, err := c.ProcessBlock(bodies[0])
		if err != nil {
			t.Fatalf("ProcessBlock: %v", err)
		}
		if status == StatusOrphan {
			dropped++
		}
		bodies = bodies[1:]
	}

	bestHash, headerTip, headerHeight := c.BestHash(), c.HeaderTipHash(), c.HeaderHeight()
	locator := c.HeaderLocator()
	// The bodies a restarted node must fetch: what was still needed, plus
	// what was parked on the skeleton above the connected chain.
	want := c.NextNeededBodies(1000)
	fork := c.ServableHeight(bestHash)
	c.mu.RLock()
	for _, n := range c.parked {
		if c.onBestHeaders(n) && n.height > fork {
			want = append(want, NeededBody{Hash: n.hash, Height: n.height})
		}
	}
	c.mu.RUnlock()
	sort.Slice(want, func(i, j int) bool { return want[i].Height < want[j].Height })
	t.Logf("connected %d, header tip %d, fork %d, parked %d, dropped %d, to fetch %d",
		c.BestHeight(), headerHeight, fork, c.ParkedCount(), dropped, len(want))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, st2 := openFileChain(t, dir, clk)
	defer st2.Close()
	if re.BestHash() != bestHash {
		t.Fatalf("connected tip %s, was %s", re.BestHash(), bestHash)
	}
	if re.HeaderTipHash() != headerTip || re.HeaderHeight() != headerHeight {
		t.Fatalf("header tip %s@%d, was %s@%d", re.HeaderTipHash(), re.HeaderHeight(), headerTip, headerHeight)
	}
	if got := re.HeaderLocator(); !reflect.DeepEqual(got, locator) {
		t.Fatalf("header locator %v, was %v", got, locator)
	}
	if got := re.NextNeededBodies(1000); !reflect.DeepEqual(got, want) {
		t.Fatalf("needed bodies %v, want %v", got, want)
	}
	if err := re.AuditFromGenesis(); err != nil {
		t.Fatal(err)
	}
}
