package bkey

import (
	"crypto/ecdsa"
	"sync"
	"sync/atomic"
)

// maxKeyTables bounds the keys the verifier remembers, tabled or not, so
// the tables it holds never exceed 1024 × 32 KiB = 32 MiB.
const maxKeyTables = 1024

// keyTables is the process-wide cache behind PublicKey.Verify.
var keyTables = newKeyCache(maxKeyTables)

// keyCache holds comb tables for the keys a process verifies under. It
// caches public-key precomputation only, never a verdict: every signature
// is fully verified, through crypto/ecdsa until its key is tabled and
// through the key's table afterwards. A key is recorded when a signature
// under it first verifies, and tabled the next time it is seen. So a
// signature that fails to verify never leads to a build or an eviction:
// invalid signatures under fresh keys cost what they cost before tables.
// DESIGN.md ("Signature verification") gives the measured costs.
type keyCache struct {
	bound  int
	mu     sync.Mutex
	keys   map[[64]byte]*combTable // X‖Y → table; nil: recorded, not tabled
	tables int                     // non-nil entries of keys

	builds, tableVerifies, coldVerifies atomic.Uint64
}

func newKeyCache(bound int) *keyCache {
	return &keyCache{bound: bound, keys: make(map[[64]byte]*combTable)}
}

// verify reports whether sig is a valid signature of the 32-byte digest
// under p.
func (c *keyCache) verify(p *PublicKey, digest []byte, sig *Signature) bool {
	var k [64]byte
	p.ec.X.FillBytes(k[:32])
	p.ec.Y.FillBytes(k[32:])
	if t := c.table(k, p); t != nil {
		c.tableVerifies.Add(1)
		return t.verify(digest, sig.R, sig.S)
	}
	c.coldVerifies.Add(1)
	if !ecdsa.Verify(&p.ec, digest, sig.R, sig.S) {
		return false
	}
	c.mu.Lock()
	if _, seen := c.keys[k]; !seen {
		c.insert(k, nil)
	}
	c.mu.Unlock()
	return true
}

// table returns the table of p, whose X‖Y is k, building it outside the
// lock if p is recorded but not yet tabled; it returns nil if p is not
// recorded. Two concurrent builds of one key may both run, and the first
// stored wins.
func (c *keyCache) table(k [64]byte, p *PublicKey) *combTable {
	c.mu.Lock()
	t, seen := c.keys[k]
	c.mu.Unlock()
	if !seen || t != nil {
		return t
	}
	t = newCombTable(feFromInt(p.ec.X), feFromInt(p.ec.Y))
	c.builds.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if stored := c.keys[k]; stored != nil {
		return stored
	}
	c.insert(k, t)
	return t
}

// insert sets keys[k] = t. A new key at the bound first evicts an
// arbitrary entry (Go randomises map iteration order). Caller holds mu.
func (c *keyCache) insert(k [64]byte, t *combTable) {
	old, ok := c.keys[k]
	if !ok && len(c.keys) >= c.bound {
		for victim, vt := range c.keys {
			delete(c.keys, victim)
			if vt != nil {
				c.tables--
			}
			break
		}
	}
	if old == nil && t != nil {
		c.tables++
	}
	c.keys[k] = t
}

// VerifyStats describes the process-wide verification key cache.
type VerifyStats struct {
	KeyTables     int    // keys whose comb table is held
	TableBuilds   uint64 // comb tables built
	TableVerifies uint64 // verifications through a key's table
	ColdVerifies  uint64 // verifications by crypto/ecdsa, under keys not yet tabled
}

// ReadVerifyStats returns a snapshot of the verification key cache.
func ReadVerifyStats() VerifyStats { return keyTables.stats() }

func (c *keyCache) stats() VerifyStats {
	c.mu.Lock()
	n := c.tables
	c.mu.Unlock()
	return VerifyStats{
		KeyTables:     n,
		TableBuilds:   c.builds.Load(),
		TableVerifies: c.tableVerifies.Load(),
		ColdVerifies:  c.coldVerifies.Load(),
	}
}
