package bkey

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"math/big"
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
	bound    int
	mu       sync.Mutex
	keys     map[[64]byte]*combTable // X‖Y → table; nil: recorded, not tabled
	tables   int                     // non-nil entries of keys
	building map[[64]byte]bool       // keys whose table is being built

	builds, tableVerifies, coldVerifies atomic.Uint64

	onBuild func() // called before each build; tests hold a build with it
}

func newKeyCache(bound int) *keyCache {
	return &keyCache{bound: bound, keys: make(map[[64]byte]*combTable), building: make(map[[64]byte]bool)}
}

// verifySig is PublicKey.Verify through c.
func (c *keyCache) verifySig(p *PublicKey, digest []byte, sig *Signature) bool {
	if sig == nil || len(digest) != 32 {
		return false
	}
	return c.verify(&p.xy, true, digest, sig.r, sig.s)
}

// verifyBytes is VerifyBytes through c.
func (c *keyCache) verifyBytes(pubKey, digest, sig []byte) bool {
	if len(pubKey) != SerializedPubKeySize || pubKey[0] != 0x04 || len(digest) != 32 {
		return false
	}
	r, s, err := parseDER(sig)
	if err != nil {
		return false
	}
	return c.verify((*[64]byte)(pubKey[1:]), false, digest, r, s)
}

// verify reports whether (r, s), given as big-endian magnitudes, is a
// valid signature of the 32-byte digest under the key whose X‖Y is k.
// It looks k up before it parses it: a recorded key was accepted by
// ParsePubKey when it was recorded, so only an unknown key is checked
// to be on the curve, and only if checked is false (k comes from a
// PublicKey, which ParsePubKey or a private key made).
//
// A recorded key's table is built by the first verifier to meet it; one
// that meets the key while that build runs verifies cold instead of
// building the table a second time.
func (c *keyCache) verify(k *[64]byte, checked bool, digest, r, s []byte) bool {
	c.mu.Lock()
	t, seen := c.keys[*k]
	build := seen && t == nil && !c.building[*k]
	if build {
		c.building[*k] = true
	}
	c.mu.Unlock()
	if build {
		t = c.build(k)
	}
	if t != nil {
		c.tableVerifies.Add(1)
		return t.verify(digest, r, s)
	}
	if !seen && !checked && !onCurve(k) {
		return false
	}
	c.coldVerifies.Add(1)
	if !coldVerify(k, digest, r, s) {
		return false
	}
	if !seen {
		c.mu.Lock()
		if _, seen := c.keys[*k]; !seen {
			c.insert(*k, nil)
		}
		c.mu.Unlock()
	}
	return true
}

// coldVerify is crypto/ecdsa.Verify on the key X‖Y = k, which is on the
// curve, and the signature (r, s).
func coldVerify(k *[64]byte, digest, r, s []byte) bool {
	pub := ecdsa.PublicKey{
		Curve: elliptic.P256(),
		X:     new(big.Int).SetBytes(k[:32]),
		Y:     new(big.Int).SetBytes(k[32:]),
	}
	return ecdsa.Verify(&pub, digest, new(big.Int).SetBytes(r), new(big.Int).SetBytes(s))
}

// build returns the table of the recorded key k, building it outside
// the lock. The caller has marked k as building, so no other verifier
// builds it meanwhile.
func (c *keyCache) build(k *[64]byte) *combTable {
	if c.onBuild != nil {
		c.onBuild()
	}
	var x, y fe
	x.SetBytes(k[:32]) // k was on the curve when recorded, so x, y < p
	y.SetBytes(k[32:])
	t := newCombTable(&x, &y)
	c.builds.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.building, *k)
	c.insert(*k, t)
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
