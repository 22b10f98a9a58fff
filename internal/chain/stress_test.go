package chain

import (
	"sync"
	"testing"
	"time"

	"typecoin/internal/chainhash"
	"typecoin/internal/wire"
)

// TestConcurrentReadersDuringReorg hammers the chain's read API from
// several goroutines while blocks connect and a reorganization runs.
// Its value is mostly under -race: every reader must observe a
// consistent snapshot without torn state while the writer flips the
// main chain between branches.
func TestConcurrentReadersDuringReorg(t *testing.T) {
	c, clk := newTestChain(t)
	base := c.Params().GenesisBlock.Header.Timestamp

	// Pre-build and pre-solve both branches so the hot loop only feeds
	// blocks: main m1..m12 from genesis, and a heavier fork f7..f14 from
	// m6 that overtakes the main branch and forces a reorg.
	var main []*wire.MsgBlock
	prev := c.Params().GenesisBlock.BlockHash()
	for h := 1; h <= 12; h++ {
		blk := mineEmpty(t, c, prev, h, base.Add(time.Duration(h)*time.Minute), 0)
		main = append(main, blk)
		prev = blk.BlockHash()
	}
	var fork []*wire.MsgBlock
	prev = main[5].BlockHash() // m6, height 6
	for h := 7; h <= 14; h++ {
		blk := mineEmpty(t, c, prev, h, base.Add(time.Duration(h)*time.Minute+30*time.Second), 1)
		fork = append(fork, blk)
		prev = blk.BlockHash()
	}
	clk.Advance(time.Hour) // every pre-built timestamp is now in the past

	var txids []chainhash.Hash
	for _, blk := range append(append([]*wire.MsgBlock{}, main...), fork...) {
		txids = append(txids, blk.Transactions[0].TxHash())
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				snap := c.BestSnapshot()
				if snap.Height < 0 || snap.Work == nil || snap.Work.Sign() <= 0 {
					t.Errorf("inconsistent snapshot: %+v", snap)
					return
				}
				if !c.HaveBlock(snap.Hash) {
					t.Errorf("snapshot tip %s unknown to chain", snap.Hash)
					return
				}
				txid := txids[(g*7+i)%len(txids)]
				c.Confirmations(txid)
				if tx, ok := c.TxByID(txid); ok && tx.TxHash() != txid {
					t.Errorf("TxByID(%s) returned tx %s", txid, tx.TxHash())
					return
				}
				c.BlockOf(txid)
				c.LookupUtxo(wire.OutPoint{Hash: txid, Index: 0})
				c.HeadersAfter(c.HeaderLocator(), 5)
			}
		}(g)
	}

	for _, blk := range main {
		if status, err := c.ProcessBlock(blk); err != nil || status != StatusMainChain {
			t.Fatalf("main block: status %v, err %v", status, err)
		}
	}
	for _, blk := range fork {
		if _, err := c.ProcessBlock(blk); err != nil {
			t.Fatalf("fork block: %v", err)
		}
	}
	close(done)
	wg.Wait()

	if got := c.BestHeight(); got != 14 {
		t.Fatalf("final height = %d, want 14", got)
	}
	if got := c.BestHash(); got != fork[len(fork)-1].BlockHash() {
		t.Fatalf("tip = %s, want fork tip", got)
	}
	// The reorg must have moved the tx index with it: disconnected main
	// coinbases are gone, fork coinbases resolve.
	if got := c.Confirmations(main[11].Transactions[0].TxHash()); got != 0 {
		t.Errorf("disconnected coinbase has %d confirmations", got)
	}
	if _, ok := c.TxByID(fork[0].Transactions[0].TxHash()); !ok {
		t.Error("fork coinbase missing from tx index after reorg")
	}
}

// TestUtxoViewParallelReads hammers the sharded view from reader
// goroutines while blocks connect and disconnect (a reorg) on the main
// goroutine. Run under -race this is the proof that Lookup/Size/
// ShardSizes need no chain lock.
func TestUtxoViewParallelReads(t *testing.T) {
	c, clk := newTestChain(t)
	blks := extend(t, c, clk, 12, 0)

	view := c.UtxoView()
	seed := c.UtxoOutpoints()
	if len(seed) == 0 {
		t.Fatal("no outpoints to read")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			i := r
			for {
				select {
				case <-stop:
					return
				default:
				}
				op := seed[i%len(seed)]
				view.Lookup(op) // may be nil mid-reorg; must not race
				if i%64 == 0 {
					view.Size()
					view.ShardSizes()
				}
				i++
			}
		}(r)
	}

	// Writer side: extend the chain, then force a reorg by building a
	// longer side branch from height 6.
	extend(t, c, clk, 6, 2)
	forkFrom := blks[5] // height 6
	prev := forkFrom.BlockHash()
	height := 7
	ts := clk.Now()
	for i := 0; i < 14; i++ {
		ts = ts.Add(time.Minute)
		blk := mineEmpty(t, c, prev, height, ts, 3)
		if _, err := c.ProcessBlock(blk); err != nil {
			t.Fatalf("side block %d: %v", height, err)
		}
		prev = blk.BlockHash()
		height++
	}
	close(stop)
	wg.Wait()

	if got, want := c.BestHeight(), 20; got != want {
		t.Fatalf("post-reorg height = %d, want %d", got, want)
	}
	// The view must agree with itself after the storm.
	if got, want := len(c.UtxoOutpoints()), c.UtxoSize(); got != want {
		t.Fatalf("Outpoints count %d != Size %d", got, want)
	}
}
