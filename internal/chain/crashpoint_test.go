package chain

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"typecoin/internal/clock"
	"typecoin/internal/crashpoint"
	"typecoin/internal/store"
)

// recoverAndCheck reopens a materialized crash state as a full chain
// and runs the recovery invariants: the store must open (truncating any
// torn tail), the chain must load with its tip linked back to genesis,
// the from-genesis audit (UTXO set + spend journal vs replay) must
// pass, and the recovered height must lie inside the commit window.
func recoverAndCheck(params *Params, clk clock.Clock, dir string, preHeight, finalHeight int) (int, error) {
	st, err := store.OpenFile(dir)
	if err != nil {
		return 0, fmt.Errorf("recovery open store: %w", err)
	}
	defer st.Close()
	c, err := Open(Config{Params: params, Clock: clk, Store: st})
	if err != nil {
		return 0, fmt.Errorf("recovery open chain: %w", err)
	}
	h := c.BestHeight()
	if h < preHeight || h > finalHeight {
		return h, fmt.Errorf("recovered height %d outside window [%d, %d]", h, preHeight, finalHeight)
	}
	// Tip linkage: every height up to the tip must resolve to a block
	// whose parent is the block below it.
	prev := params.GenesisBlock.BlockHash()
	for height := 1; height <= h; height++ {
		blk, ok := c.BlockAtHeight(height)
		if !ok {
			return h, fmt.Errorf("missing block at height %d (tip %d)", height, h)
		}
		if blk.Header.PrevBlock != prev {
			return h, fmt.Errorf("height %d links to %s, want %s", height, blk.Header.PrevBlock, prev)
		}
		prev = blk.BlockHash()
	}
	if err := c.AuditFromGenesis(); err != nil {
		return h, fmt.Errorf("audit: %w", err)
	}
	return h, nil
}

// TestCrashPointsSyncPath explores every crash state of a synchronous
// commit window (per-apply fsync): two block connects, each a
// blocks.dat append plus one journal frame plus its fsync. At every
// boundary and torn variant the datadir must recover a consistent
// chain, and across clean boundaries the recovered height must be
// monotone — later crashes never recover less chain.
func TestCrashPointsSyncPath(t *testing.T) {
	base := t.TempDir()
	dataDir := filepath.Join(base, "data")
	params := RegTestParams()
	clk := clock.NewSimulated(params.GenesisBlock.Header.Timestamp.Add(time.Minute))

	c, st := openFileChain(t, dataDir, clk)
	st.SetSyncEvery(true)
	extend(t, c, clk, 3, 0)
	if err := st.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	preHeight := c.BestHeight()
	snap := filepath.Join(base, "snap")
	if err := crashpoint.Snapshot(snap, dataDir); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	rec := &crashpoint.Recorder{}
	st.SetDiskHook(rec)
	extend(t, c, clk, 2, 0)
	st.SetDiskHook(nil)
	finalHeight := c.BestHeight()
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	events := rec.Events()
	if len(events) < 6 { // 2 connects x (body append + frame write + fsync)
		t.Fatalf("window recorded only %d physical ops: %v", len(events), events)
	}

	lastClean := -1
	n, err := crashpoint.Explore(filepath.Join(base, "scratch"), snap, events, func(dir string, p crashpoint.Point) error {
		h, err := recoverAndCheck(params, clk, dir, preHeight, finalHeight)
		if err != nil {
			return err
		}
		if p.Tear < 0 {
			if h < lastClean {
				return fmt.Errorf("recovery regressed: height %d after an earlier boundary gave %d", h, lastClean)
			}
			lastClean = h
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastClean != finalHeight {
		t.Fatalf("full-window recovery reached height %d, want %d", lastClean, finalHeight)
	}
	t.Logf("sync path: %d crash states over %d physical ops", n, len(events))
}
