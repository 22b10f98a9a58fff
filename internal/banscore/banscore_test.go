package banscore

import (
	"testing"
	"time"

	"typecoin/internal/clock"
	"typecoin/internal/store"
)

func newTestKeeper(cfg Config) (*Keeper, *clock.Simulated) {
	clk := clock.NewSimulated(time.Unix(1_700_000_000, 0))
	return New(clk, cfg), clk
}

func TestPenalizeAccumulatesAndBans(t *testing.T) {
	k, _ := newTestKeeper(Config{Threshold: 100, BanDuration: time.Hour})
	if score, banned := k.Penalize("peer", 40); banned || score != 40 {
		t.Fatalf("first penalty: score=%d banned=%v", score, banned)
	}
	if score, banned := k.Penalize("peer", 40); banned || score != 80 {
		t.Fatalf("second penalty: score=%d banned=%v", score, banned)
	}
	if _, banned := k.Penalize("peer", 40); !banned {
		t.Fatal("third penalty should cross threshold and ban")
	}
	if !k.IsBanned("peer") {
		t.Fatal("peer should be banned")
	}
	if k.Score("peer") != 0 {
		t.Fatalf("score should reset on ban, got %d", k.Score("peer"))
	}
	if k.IsBanned("other") {
		t.Fatal("unrelated address banned")
	}
}

func TestScoreDecay(t *testing.T) {
	k, clk := newTestKeeper(Config{Threshold: 100})
	k.Penalize("peer", 80)
	clk.Advance(halfLife)
	if got := k.Score("peer"); got != 40 {
		t.Fatalf("after one half-life: score = %d, want 40", got)
	}
	clk.Advance(halfLife)
	if got := k.Score("peer"); got != 20 {
		t.Fatalf("after two half-lives: score = %d, want 20", got)
	}
	// Decayed scores should not ban when fresh points stay below the
	// threshold.
	if _, banned := k.Penalize("peer", 50); banned {
		t.Fatal("decayed 20 + 50 should not ban at threshold 100")
	}
	// Tiny residues vanish entirely.
	clk.Advance(24 * time.Hour)
	if got := k.Score("peer"); got != 0 {
		t.Fatalf("score should fully decay, got %d", got)
	}
}

func TestBanExpiry(t *testing.T) {
	k, clk := newTestKeeper(Config{Threshold: 10, BanDuration: time.Hour})
	k.Penalize("peer", 10)
	if !k.IsBanned("peer") {
		t.Fatal("should be banned")
	}
	until, ok := k.BannedUntil("peer")
	if !ok || until.Sub(clk.Now()) != time.Hour {
		t.Fatalf("BannedUntil = %v, %v", until, ok)
	}
	clk.Advance(time.Hour + time.Second)
	if k.IsBanned("peer") {
		t.Fatal("ban should have expired")
	}
	if _, ok := k.BannedUntil("peer"); ok {
		t.Fatal("BannedUntil after expiry")
	}
}

func TestManualBanAndUnban(t *testing.T) {
	k, _ := newTestKeeper(Config{})
	k.Ban("peer", 30*time.Minute)
	if !k.IsBanned("peer") {
		t.Fatal("manual ban missing")
	}
	if got := k.Banned(); len(got) != 1 || got[0] != "peer" {
		t.Fatalf("Banned() = %v", got)
	}
	k.Unban("peer")
	if k.IsBanned("peer") {
		t.Fatal("unban did not lift ban")
	}
}

func TestBanPersistence(t *testing.T) {
	st := store.NewMem()
	clk := clock.NewSimulated(time.Unix(1_700_000_000, 0))

	k := New(clk, Config{Threshold: 10, BanDuration: time.Hour})
	if err := k.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	k.Penalize("evil", 10)
	k.Ban("worse", 2*time.Hour)
	k.Ban("brief", time.Minute)

	// A fresh keeper over the same store sees the surviving bans.
	clk.Advance(30 * time.Minute) // "brief" expires while "down"
	k2 := New(clk, Config{})
	if err := k2.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	if !k2.IsBanned("evil") || !k2.IsBanned("worse") {
		t.Fatal("persisted bans not reloaded")
	}
	if k2.IsBanned("brief") {
		t.Fatal("expired ban survived reload")
	}
	// Expired rows are pruned from the store during reload.
	if ok, _ := st.Has([]byte("nbbrief")); ok {
		t.Fatal("expired ban row not pruned")
	}

	// Unban clears the persisted row too.
	k2.Unban("evil")
	k3 := New(clk, Config{})
	if err := k3.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	if k3.IsBanned("evil") {
		t.Fatal("unban did not clear persisted row")
	}
	if !k3.IsBanned("worse") {
		t.Fatal("unrelated persisted ban lost")
	}
}

func TestBucket(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	b := NewBucket(10, 5) // 10 tokens/s, burst 5

	// Burst drains.
	for i := 0; i < 5; i++ {
		if !b.Take(now, 1) {
			t.Fatalf("take %d within burst failed", i)
		}
	}
	if b.Take(now, 1) {
		t.Fatal("take beyond burst succeeded")
	}

	// Refill at rate.
	now = now.Add(200 * time.Millisecond) // +2 tokens
	if !b.Take(now, 2) {
		t.Fatal("refilled tokens missing")
	}
	if b.Take(now, 1) {
		t.Fatal("over-refill")
	}

	// Level caps at burst.
	now = now.Add(time.Hour)
	if !b.Take(now, 5) {
		t.Fatal("full burst after long idle")
	}
	if b.Take(now, 1) {
		t.Fatal("burst cap exceeded")
	}

	// Disabled bucket always admits.
	d := NewBucket(0, 0)
	for i := 0; i < 1000; i++ {
		if !d.Take(now, 100) {
			t.Fatal("disabled bucket refused")
		}
	}
}
