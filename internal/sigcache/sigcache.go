// Package sigcache caches successful ECDSA signature verifications.
//
// Verifying a signature is by far the most expensive step of script
// execution, and the same (signature hash, public key, signature) triple
// is typically verified twice on its way into the chain: once when the
// mempool admits the transaction at relay time, and again when the block
// carrying it is connected. Sharing one cache between the mempool and the
// chain lets block connect skip the second ECDSA verification entirely —
// the same optimization Bitcoin Core ships as its sigcache.
//
// The cache is a bounded, concurrency-safe LRU. Only *successful*
// verifications are stored; a hit therefore proves the triple verified
// before, so membership alone authorizes the skip. All methods are safe
// on a nil *Cache (they behave as an always-miss cache), so callers can
// thread an optional cache without nil checks.
package sigcache

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"typecoin/internal/chainhash"
)

// DefaultCapacity is the entry bound used when callers do not choose one.
// An entry is ~100 bytes of key plus list/map overhead, so the default
// costs a few MiB — small against the ECDSA work it saves.
const DefaultCapacity = 32768

// Key identifies one verified triple. The signature and public key are
// stored as SHA-256 digests of their serialized forms: fixed-size,
// collision-resistant, and cheaper to compare than variable-length DER.
// A caller builds the key once and passes it to Exists and, after a
// successful verification, to Add.
type Key struct {
	sigHash chainhash.Hash
	sig     [sha256.Size]byte
	pubKey  [sha256.Size]byte
}

// NewKey builds the cache key of a (signature hash, signature, public
// key) triple.
func NewKey(sigHash chainhash.Hash, sig, pubKey []byte) Key {
	return Key{sigHash: sigHash, sig: sha256.Sum256(sig), pubKey: sha256.Sum256(pubKey)}
}

// Cache is a bounded LRU of verified signature triples. All methods are
// safe for concurrent use and on a nil receiver.
type Cache struct {
	mu        sync.Mutex
	capacity  int
	entries   map[Key]*list.Element
	order     *list.List // front = most recently used; values are keys
	hits      uint64
	misses    uint64
	evictions uint64
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Size      int
	Capacity  int
}

// New creates a cache bounded to capacity entries; capacity <= 0 selects
// DefaultCapacity.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[Key]*list.Element, capacity),
		order:    list.New(),
	}
}

// Exists reports whether the triple was previously verified successfully,
// refreshing its recency on a hit. A nil cache always misses.
func (c *Cache) Exists(k Key) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.order.MoveToFront(el)
		c.hits++
		return true
	}
	c.misses++
	return false
}

// Add records a successfully verified triple, evicting the least recently
// used entries if the cache is full. A nil cache ignores the call.
// Callers must only Add triples that actually verified: membership is
// later taken as proof of validity.
func (c *Cache) Add(k Key) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.order.MoveToFront(el)
		return
	}
	for len(c.entries) >= c.capacity {
		back := c.order.Back()
		if back == nil {
			break
		}
		delete(c.entries, back.Value.(Key))
		c.order.Remove(back)
		c.evictions++
	}
	c.entries[k] = c.order.PushFront(k)
}

// Len returns the current number of cached triples.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the effectiveness counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      len(c.entries),
		Capacity:  c.capacity,
	}
}
