// Package sigcache holds the script verdicts of admitted transactions:
// the txids of transactions whose every input script passed
// script.VerifyInput when the mempool admitted them.
//
// Block connect runs no script of a listed transaction. A verdict keyed
// by txid stands for the block because the txid covers the signature
// scripts (there is no witness), the script engine has no lock-time
// opcode, and an outpoint fixes the script it spends (the chain keeps
// one main-chain transaction per txid). A malleated twin has another
// txid, misses, and is verified in full.
//
// The set is bounded; past the bound an arbitrary entry makes room,
// which costs that transaction one full verification at connect. All
// methods are safe for concurrent use and on a nil *Cache, which
// always misses.
package sigcache

import (
	"sync"

	"typecoin/internal/chainhash"
)

// DefaultCapacity is the entry bound used when callers do not choose
// one: several mempools' worth of transactions, at about 100 bytes of
// map entry each.
const DefaultCapacity = 32768

// Cache is a bounded set of txids whose scripts passed admission.
type Cache struct {
	mu        sync.Mutex
	capacity  int
	txids     map[chainhash.Hash]struct{}
	hits      uint64
	misses    uint64
	evictions uint64
}

// Stats is a point-in-time snapshot of the set's counters. Hits and
// misses count transactions that block connect looked up.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Size      int
	Capacity  int
}

// New creates a set bounded to capacity txids; capacity <= 0 selects
// DefaultCapacity.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{capacity: capacity, txids: make(map[chainhash.Hash]struct{})}
}

// Add records that every input script of txid passed. Callers add only
// transactions that verified: membership is later taken as proof.
func (c *Cache) Add(txid chainhash.Hash) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.txids[txid]; ok {
		return
	}
	if len(c.txids) >= c.capacity {
		for k := range c.txids {
			delete(c.txids, k)
			c.evictions++
			break
		}
	}
	c.txids[txid] = struct{}{}
}

// Exists reports whether txid's scripts passed, counting a hit or a
// miss.
func (c *Cache) Exists(txid chainhash.Hash) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.txids[txid]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return ok
}

// Remove drops txid's verdict.
func (c *Cache) Remove(txid chainhash.Hash) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.txids, txid)
}

// Stats returns a snapshot of the counters.
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
		Size:      len(c.txids),
		Capacity:  c.capacity,
	}
}
