package sigcache

import (
	"fmt"
	"sync"
	"testing"

	"typecoin/internal/chainhash"
)

func txid(i int) chainhash.Hash {
	return chainhash.HashB([]byte(fmt.Sprintf("tx-%d", i)))
}

func TestAddExists(t *testing.T) {
	c := New(8)
	if c.Exists(txid(0)) {
		t.Fatal("empty set reported a hit")
	}
	c.Add(txid(0))
	if !c.Exists(txid(0)) {
		t.Fatal("added txid not found")
	}
	if c.Exists(txid(1)) {
		t.Error("hit for a txid never added")
	}
	c.Remove(txid(0))
	if c.Exists(txid(0)) {
		t.Error("removed txid still found")
	}
	c.Remove(txid(1)) // absent: no effect
	if st := c.Stats(); st.Size != 0 {
		t.Errorf("size = %d after removing the only entry", st.Size)
	}
}

// TestBoundEvictsOne fills the set to its bound and adds one more: one
// entry, whichever it is, makes room, and every other stays.
func TestBoundEvictsOne(t *testing.T) {
	const bound = 4
	c := New(bound)
	for i := 0; i <= bound; i++ {
		c.Add(txid(i))
	}
	st := c.Stats()
	if st.Size != bound || st.Evictions != 1 {
		t.Fatalf("size %d, evictions %d; want %d and 1", st.Size, st.Evictions, bound)
	}
	if !c.Exists(txid(bound)) {
		t.Error("newest txid was evicted")
	}
	present := 0
	for i := 0; i < bound; i++ {
		if c.Exists(txid(i)) {
			present++
		}
	}
	if present != bound-1 {
		t.Errorf("%d of the first %d txids present, want %d", present, bound, bound-1)
	}
}

func TestDuplicateAddDoesNotGrow(t *testing.T) {
	c := New(1)
	c.Add(txid(0))
	c.Add(txid(0))
	if st := c.Stats(); st.Size != 1 || st.Evictions != 0 {
		t.Fatalf("stats after a duplicate add: %+v", st)
	}
}

func TestStatsCounters(t *testing.T) {
	c := New(4)
	c.Exists(txid(0)) // miss
	c.Add(txid(0))
	c.Exists(txid(0)) // hit
	c.Exists(txid(0)) // hit
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss", st)
	}
	if st.Size != 1 || st.Capacity != 4 {
		t.Errorf("stats size/capacity = %d/%d", st.Size, st.Capacity)
	}
}

func TestNilCacheIsAlwaysMiss(t *testing.T) {
	var c *Cache
	c.Add(txid(0)) // must not panic
	if c.Exists(txid(0)) {
		t.Fatal("nil cache reported a hit")
	}
	c.Remove(txid(0))
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
}

func TestDefaultCapacity(t *testing.T) {
	if got := New(0).Stats().Capacity; got != DefaultCapacity {
		t.Errorf("capacity = %d, want %d", got, DefaultCapacity)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h := txid((g*200 + i) % 100)
				c.Add(h)
				c.Exists(h)
				if i%3 == 0 {
					c.Remove(h)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Size > 64 {
		t.Fatalf("size = %d exceeds capacity", st.Size)
	}
}
