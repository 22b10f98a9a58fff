package index

// Crash recovery: the index rows ride in the chain's atomic commit
// batch, so a store that dies mid-commit — torn frame on disk — must
// never leave a block without its rows or rows without their block.
// The test drives a file-backed node through a fault that tears a
// frame, reopens the directory, lets the index catch up, resyncs the
// missed blocks, and demands the result be bit-for-bit identical to a
// control node that never crashed.

import (
	"errors"
	"reflect"
	"testing"

	"typecoin/internal/chain"
	"typecoin/internal/store"
)

func TestIndexCrashMidCommitRecovers(t *testing.T) {
	// Control node: in-memory, never crashes, indexes everything.
	ctl := newHarness(t, "index/crash", nil)

	// Crash node: file store under a fault that tears the 18th Apply
	// mid-frame — inside the run of payment-carrying blocks (bootstrap
	// is 1 apply, funding 11). Chain and index only — rows derive from
	// blocks alone.
	dir := t.TempDir()
	fileSt, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	fault := store.NewFaultEngine(fileSt, 0)
	fault.Inject(store.FaultRule{Op: store.OpApply, Kind: store.KindKill,
		Mode: store.ModeOneShot, After: 17, TearBytes: 10})
	chF, err := chain.Open(chain.Config{Params: ctl.params, Clock: ctl.clk, Store: fault})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(chF); err != nil {
		t.Fatal(err)
	}

	// Mature the control wallet, then feed those blocks to the crash
	// node (they fit comfortably below the armed Apply).
	ctl.fund(t)
	for h := 1; h <= ctl.chain.BestHeight(); h++ {
		blk, _ := ctl.chain.BlockAtHeight(h)
		if _, err := chF.ProcessBlock(blk); err != nil {
			t.Fatalf("feed funding block: %v", err)
		}
	}
	// Wallet payments every block so the batches carry address and
	// spend rows; somewhere in here the fault tears a frame.
	crashed := false
	for i := 0; i < 8 && !crashed; i++ {
		dest, err := ctl.wallet.NewKey()
		if err != nil {
			t.Fatal(err)
		}
		ctl.pay(t, dest, 500_000+int64(i))
		blk := ctl.mine(t)
		if _, err := chF.ProcessBlock(blk); err != nil {
			if !errors.Is(err, store.ErrClosed) {
				t.Fatalf("crash node rejected block for the wrong reason: %v", err)
			}
			crashed = true
		}
	}
	if !crashed {
		t.Fatalf("fault never fired: %d applies", fault.OpCalls(store.OpApply))
	}
	_ = fault.Close()

	// Reopen: journal replay truncates the torn frame; the chain comes
	// back at a durable prefix and the index catches up to it inside
	// Open — then resync restores the missed blocks through the normal
	// contribute path.
	st2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.TruncatedBytes() == 0 {
		t.Error("reopen found no torn frame to truncate")
	}
	ch2, err := chain.Open(chain.Config{Params: ctl.params, Clock: ctl.clk, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	if ch2.BestHeight() >= ctl.chain.BestHeight() {
		t.Fatalf("recovered height %d, want < control %d", ch2.BestHeight(), ctl.chain.BestHeight())
	}
	ix2, err := Open(ch2)
	if err != nil {
		t.Fatalf("reopen index: %v", err)
	}
	// Consistency at the recovered prefix, before resync: the index tip
	// must equal the recovered chain tip (atomicity), and the rows must
	// already pass the rebuild audit.
	tipHash, tipHeight, err := ix2.Tip()
	if err != nil {
		t.Fatal(err)
	}
	if tipHash != ch2.BestHash() || tipHeight != ch2.BestHeight() {
		t.Fatalf("recovered index tip %s@%d, chain %s@%d",
			tipHash, tipHeight, ch2.BestHash(), ch2.BestHeight())
	}
	if err := ix2.AuditRebuild(); err != nil {
		t.Fatalf("recovered index audit: %v", err)
	}

	// Resync from the control chain and compare against the control
	// node's index: bit-for-bit equal rows.
	for h := 1; h <= ctl.chain.BestHeight(); h++ {
		blk, _ := ctl.chain.BlockAtHeight(h)
		if _, err := ch2.ProcessBlock(blk); err != nil {
			t.Fatalf("resync block at %d: %v", h, err)
		}
	}
	if ch2.BestHash() != ctl.chain.BestHash() {
		t.Fatal("resynced chain diverged from control")
	}
	got, err := dumpIndexRows(ix2.st)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dumpIndexRows(ctl.ix.st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered index rows differ from control: %d vs %d rows", len(got), len(want))
	}
	if err := ix2.AuditRebuild(); err != nil {
		t.Fatalf("resynced index audit: %v", err)
	}
}
