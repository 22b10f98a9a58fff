package sigcache

import (
	"fmt"
	"sync"
	"testing"

	"typecoin/internal/chainhash"
)

func triple(i int) (chainhash.Hash, []byte, []byte) {
	return chainhash.HashB([]byte(fmt.Sprintf("sighash-%d", i))),
		[]byte(fmt.Sprintf("sig-%d", i)),
		[]byte(fmt.Sprintf("pubkey-%d", i))
}

func TestAddExists(t *testing.T) {
	c := New(8)
	h, sig, pk := triple(0)
	if c.Exists(NewKey(h, sig, pk)) {
		t.Fatal("empty cache reported a hit")
	}
	c.Add(NewKey(h, sig, pk))
	if !c.Exists(NewKey(h, sig, pk)) {
		t.Fatal("added triple not found")
	}
	// Any component differing is a distinct triple.
	if c.Exists(NewKey(chainhash.HashB([]byte("other")), sig, pk)) {
		t.Error("hit with wrong sighash")
	}
	if c.Exists(NewKey(h, []byte("other"), pk)) {
		t.Error("hit with wrong signature")
	}
	if c.Exists(NewKey(h, sig, []byte("other"))) {
		t.Error("hit with wrong pubkey")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(4)
	for i := 0; i < 4; i++ {
		h, sig, pk := triple(i)
		c.Add(NewKey(h, sig, pk))
	}
	// Touch entry 0 so it becomes most recent; entry 1 is now the LRU.
	h0, sig0, pk0 := triple(0)
	if !c.Exists(NewKey(h0, sig0, pk0)) {
		t.Fatal("entry 0 missing")
	}
	h4, sig4, pk4 := triple(4)
	c.Add(NewKey(h4, sig4, pk4))

	if c.Len() != 4 {
		t.Fatalf("len = %d, want 4", c.Len())
	}
	h1, sig1, pk1 := triple(1)
	if c.Exists(NewKey(h1, sig1, pk1)) {
		t.Error("LRU entry 1 survived eviction")
	}
	if !c.Exists(NewKey(h0, sig0, pk0)) {
		t.Error("recently used entry 0 was evicted")
	}
	if !c.Exists(NewKey(h4, sig4, pk4)) {
		t.Error("newest entry missing")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestDuplicateAddDoesNotGrow(t *testing.T) {
	c := New(4)
	h, sig, pk := triple(0)
	c.Add(NewKey(h, sig, pk))
	c.Add(NewKey(h, sig, pk))
	if c.Len() != 1 {
		t.Fatalf("len = %d after duplicate add", c.Len())
	}
}

func TestStatsCounters(t *testing.T) {
	c := New(4)
	h, sig, pk := triple(0)
	c.Exists(NewKey(h, sig, pk)) // miss
	c.Add(NewKey(h, sig, pk))
	c.Exists(NewKey(h, sig, pk)) // hit
	c.Exists(NewKey(h, sig, pk)) // hit
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
	h, sig, pk := triple(0)
	c.Add(NewKey(h, sig, pk)) // must not panic
	if c.Exists(NewKey(h, sig, pk)) {
		t.Fatal("nil cache reported a hit")
	}
	if c.Len() != 0 {
		t.Fatal("nil cache has entries")
	}
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
				h, sig, pk := triple((g*200 + i) % 100)
				c.Add(NewKey(h, sig, pk))
				c.Exists(NewKey(h, sig, pk))
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("len = %d exceeds capacity", c.Len())
	}
}
