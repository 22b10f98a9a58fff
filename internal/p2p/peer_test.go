package p2p

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"typecoin/internal/wire"
)

// TestInflightCountMatchesTable drives one peer's request table through
// a seeded sequence of requests, deliveries, owed bodies, refreshes and
// sweeps, and holds the peer's count of pending requests equal to a
// scan of the table, and within maxInflight, after every step.
func TestInflightCountMatchesTable(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	p := newPeer(nil, nil, 0, now)
	rng := rand.New(rand.NewSource(1))
	types := []uint32{wire.InvTypeTx, wire.InvTypeBlock, wire.InvTypeOverlay}
	key := func() (uint32, [32]byte) {
		var h [32]byte
		binary.LittleEndian.PutUint16(h[:], uint16(rng.Intn(2*maxInflight)))
		return types[rng.Intn(len(types))], h
	}
	refused, expired := 0, 0
	for step := 0; step < 20_000; step++ {
		switch op := rng.Intn(20); {
		case op < 13:
			typ, h := key()
			if !p.noteRequested(typ, h, now) {
				refused++
			}
		case op < 18:
			typ, h := key()
			p.consumeRequest(typ, h, now, typ == wire.InvTypeBlock && rng.Intn(2) == 0)
		case op < 19:
			n, _, _, _ := p.sweep(now, time.Duration(rng.Intn(3))*time.Second)
			expired += n
		case rng.Intn(100) == 0:
			now = now.Add(time.Duration(rng.Int63n(int64(3 * StallTimeout))))
		default:
			now = now.Add(time.Duration(rng.Intn(100)) * time.Millisecond)
		}
		scan := 0
		for _, e := range p.requested {
			if e.state == reqPending {
				scan++
			}
		}
		if p.inflight != scan {
			t.Fatalf("step %d: count %d, scan %d pending", step, p.inflight, scan)
		}
		if scan > maxInflight {
			t.Fatalf("step %d: %d requests pending, cap %d", step, scan, maxInflight)
		}
	}
	if refused == 0 || expired == 0 {
		t.Errorf("%d requests met the cap and %d expired, want some of each", refused, expired)
	}
}
