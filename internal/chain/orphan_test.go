package chain

import (
	"math/rand"
	"reflect"
	"testing"

	"typecoin/internal/chainhash"
)

// TestParentlessBodyIsNotHeld: a body whose header and parent body are
// both unknown is dropped, not held, and connects when delivered again
// after its parent. Once its header is validated, the same early body
// parks instead.
func TestParentlessBodyIsNotHeld(t *testing.T) {
	_, clk, blocks := mineChainBlocks(t, 2)
	b1, b2 := blocks[0], blocks[1]

	c := New(RegTestParams(), clk)
	if status, err := c.ProcessBlock(b2); err != nil || status != StatusOrphan {
		t.Fatalf("child first: status=%v err=%v, want orphan", status, err)
	}
	if c.HaveBlock(b2.BlockHash()) {
		t.Fatal("parentless body is held")
	}
	mustProcessBlocks(t, c, blocks[:1])
	if c.BestHeight() != 1 {
		t.Fatalf("height %d after the parent, want 1: the dropped child connected", c.BestHeight())
	}
	if status, err := c.ProcessBlock(b2); err != nil || status != StatusMainChain {
		t.Fatalf("child again: status=%v err=%v", status, err)
	}

	c = New(RegTestParams(), clk)
	mustProcessHeaders(t, c, blocks)
	if status, err := c.ProcessBlock(b2); err != nil || status != StatusParked {
		t.Fatalf("child first on a known header: status=%v err=%v, want parked", status, err)
	}
	if !c.HaveBlock(b2.BlockHash()) {
		t.Fatal("parked body is not held")
	}
	if status, err := c.ProcessBlock(b1); err != nil || status != StatusMainChain || c.BestHeight() != 2 {
		t.Fatalf("parent: status=%v err=%v height=%d, want both connected", status, err, c.BestHeight())
	}
}

// TestParkedCapDropsAndRefetches fills the parked set to its block cap
// with a 4 098-header skeleton whose first body is withheld and whose
// other 4 097 arrive shuffled. The body past the cap is not held, the
// body schedule names it again, and it connects once the gap fills. The
// parked byte cap takes the same branch and stays untested: it needs
// 32 MiB of bodies. The test takes about 1.6 s on a 2-vCPU VM, mostly
// mining.
func TestParkedCapDropsAndRefetches(t *testing.T) {
	_, clk, blocks := mineChainBlocks(t, defaultMaxParked+2)
	c := New(RegTestParams(), clk)
	mustProcessHeaders(t, c, blocks)

	// blocks[i] sits at height i+1; blocks[0] is withheld.
	order := rand.New(rand.NewSource(1)).Perm(len(blocks) - 1)
	for _, i := range order {
		if status, err := c.ProcessBlock(blocks[i+1]); err != nil || status != StatusParked {
			t.Fatalf("body %d: status=%v err=%v, want parked", i+2, status, err)
		}
	}
	overHeight := order[len(order)-1] + 2
	over := blocks[overHeight-1]
	if got := c.ParkedCount(); got != defaultMaxParked {
		t.Fatalf("parked %d, want the cap %d", got, defaultMaxParked)
	}
	if c.HaveBlock(over.BlockHash()) {
		t.Fatal("the body past the cap is held")
	}
	want := []chainhash.Hash{blocks[0].BlockHash(), over.BlockHash()}
	if got := neededHashes(c); !reflect.DeepEqual(got, want) {
		t.Fatalf("needed bodies = %v, want the withheld first body and the one past the cap %v", got, want)
	}

	mustProcessBlocks(t, c, blocks[:1])
	if got := c.BestHeight(); got != overHeight-1 {
		t.Fatalf("connected height %d, want %d, just below the dropped body", got, overHeight-1)
	}
	if got := neededHashes(c); !reflect.DeepEqual(got, want[1:]) {
		t.Fatalf("needed bodies = %v, want %v", got, want[1:])
	}
	if status, err := c.ProcessBlock(over); err != nil || status != StatusMainChain {
		t.Fatalf("refetched body: status=%v err=%v", status, err)
	}
	if c.BestHeight() != len(blocks) || c.ParkedCount() != 0 {
		t.Fatalf("height %d, parked %d; want %d and 0", c.BestHeight(), c.ParkedCount(), len(blocks))
	}
}
