// Package banscore tracks peer misbehavior: a decaying score per
// network address, a timed ban once the score crosses a threshold, and
// persistence of the ban table through the store seam so bans survive
// restarts.
//
// The paper's commitment guarantees assume the underlying Bitcoin
// network stays live against adversarial participants; scoring plus
// banning is the standard mechanism (cf. bitcoind's banman) by which an
// honest node stops spending resources on a peer that keeps sending
// invalid or unsolicited data. Scores decay exponentially so honest
// peers that occasionally trip a penalty (a corrupted frame on a lossy
// link, a block that lost a race) drift back to zero instead of
// accumulating toward a ban.
package banscore

import (
	"encoding/binary"
	"math"
	"sync"
	"time"

	"typecoin/internal/clock"
	"typecoin/internal/store"
)

// banKeyPrefix namespaces the persisted ban table in the node's store:
// "nb" + address -> little-endian uint64 UnixNano expiry. The prefix is
// disjoint from every chain/wallet/ledger/mempool prefix.
const banKeyPrefix = "nb"

// Config tunes the keeper. Zero values select the defaults.
type Config struct {
	// Threshold is the score at which an address is banned.
	Threshold int32
	// BanDuration is how long a triggered ban lasts.
	BanDuration time.Duration
}

// Defaults used for zero Config fields.
const (
	DefaultThreshold   = 100
	DefaultBanDuration = time.Hour
)

// halfLife is the score decay half-life.
const halfLife = 10 * time.Minute

func (c Config) withDefaults() Config {
	if c.Threshold <= 0 {
		c.Threshold = DefaultThreshold
	}
	if c.BanDuration <= 0 {
		c.BanDuration = DefaultBanDuration
	}
	return c
}

// decayScore is a score observed at a moment; the effective value at
// any later time is value * 0.5^(elapsed/halfLife).
type decayScore struct {
	value float64
	last  time.Time
}

// Keeper maintains misbehavior scores and the ban table. All methods
// are safe for concurrent use. Time comes from the injected clock, so
// under the simulator decay and ban expiry run on virtual time.
type Keeper struct {
	mu  sync.Mutex
	clk clock.Clock
	cfg Config

	scores map[string]*decayScore
	bans   map[string]time.Time // addr -> expiry
	st     store.Store          // optional ban persistence
}

// New creates a keeper on the given clock.
func New(clk clock.Clock, cfg Config) *Keeper {
	return &Keeper{
		clk:    clk,
		cfg:    cfg.withDefaults(),
		scores: make(map[string]*decayScore),
		bans:   make(map[string]time.Time),
	}
}

// AttachStore loads the persisted ban table from st (pruning entries
// that expired while the node was down) and persists subsequent ban
// changes to it.
func (k *Keeper) AttachStore(st store.Store) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	now := k.clk.Now()
	expired := store.NewBatch()
	err := st.Iterate([]byte(banKeyPrefix), func(key, value []byte) error {
		addr := string(key[len(banKeyPrefix):])
		if len(value) != 8 {
			expired.Delete(key)
			return nil
		}
		until := time.Unix(0, int64(binary.LittleEndian.Uint64(value)))
		if !until.After(now) {
			expired.Delete(key)
			return nil
		}
		k.bans[addr] = until
		return nil
	})
	if err != nil {
		return err
	}
	if expired.Len() > 0 {
		if err := st.Apply(expired); err != nil {
			return err
		}
	}
	k.st = st
	return nil
}

// persistBanLocked writes or clears one ban row; best-effort (a store
// error must not take down the network layer — the in-memory ban still
// holds for this process).
func (k *Keeper) persistBanLocked(addr string, until time.Time, delete bool) {
	if k.st == nil {
		return
	}
	b := store.NewBatch()
	key := append([]byte(banKeyPrefix), addr...)
	if delete {
		b.Delete(key)
	} else {
		var v [8]byte
		binary.LittleEndian.PutUint64(v[:], uint64(until.UnixNano()))
		b.Put(key, v[:])
	}
	_ = k.st.Apply(b)
}

// decayedLocked returns addr's current effective score.
func (k *Keeper) decayedLocked(addr string, now time.Time) float64 {
	s, ok := k.scores[addr]
	if !ok {
		return 0
	}
	elapsed := now.Sub(s.last)
	if elapsed <= 0 {
		return s.value
	}
	v := s.value * math.Pow(0.5, float64(elapsed)/float64(halfLife))
	if v < 0.5 {
		delete(k.scores, addr)
		return 0
	}
	s.value, s.last = v, now
	return v
}

// Penalize adds points to addr's decayed score. When the score reaches
// the threshold the address is banned for the configured duration, the
// score resets, and banned=true is returned alongside the score that
// triggered it.
func (k *Keeper) Penalize(addr string, points int32) (score int32, banned bool) {
	if points <= 0 {
		return k.Score(addr), false
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	now := k.clk.Now()
	v := k.decayedLocked(addr, now) + float64(points)
	if v >= float64(k.cfg.Threshold) {
		delete(k.scores, addr)
		until := now.Add(k.cfg.BanDuration)
		k.bans[addr] = until
		k.persistBanLocked(addr, until, false)
		return int32(v), true
	}
	k.scores[addr] = &decayScore{value: v, last: now}
	return int32(v), false
}

// Score returns addr's current effective score.
func (k *Keeper) Score(addr string) int32 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return int32(k.decayedLocked(addr, k.clk.Now()))
}

// Ban bans addr for d (the configured duration when d <= 0),
// independent of its score.
func (k *Keeper) Ban(addr string, d time.Duration) {
	if d <= 0 {
		d = k.cfg.BanDuration
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	until := k.clk.Now().Add(d)
	k.bans[addr] = until
	delete(k.scores, addr)
	k.persistBanLocked(addr, until, false)
}

// Unban lifts any ban on addr.
func (k *Keeper) Unban(addr string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, ok := k.bans[addr]; ok {
		delete(k.bans, addr)
		k.persistBanLocked(addr, time.Time{}, true)
	}
}

// IsBanned reports whether addr is currently banned. An expired ban is
// cleared (including its persisted row) as a side effect.
func (k *Keeper) IsBanned(addr string) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	until, ok := k.bans[addr]
	if !ok {
		return false
	}
	if !until.After(k.clk.Now()) {
		delete(k.bans, addr)
		k.persistBanLocked(addr, time.Time{}, true)
		return false
	}
	return true
}

// BannedUntil returns the ban expiry for addr, if banned.
func (k *Keeper) BannedUntil(addr string) (time.Time, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	until, ok := k.bans[addr]
	if !ok || !until.After(k.clk.Now()) {
		return time.Time{}, false
	}
	return until, true
}

// Banned returns the currently banned addresses.
func (k *Keeper) Banned() []string {
	k.mu.Lock()
	defer k.mu.Unlock()
	now := k.clk.Now()
	out := make([]string, 0, len(k.bans))
	for addr, until := range k.bans {
		if until.After(now) {
			out = append(out, addr)
		}
	}
	return out
}
