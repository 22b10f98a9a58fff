package par

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"typecoin/internal/bkey"
)

// withProcs runs the test body at GOMAXPROCS = procs.
func withProcs(t *testing.T, procs int) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// waitHelpersGone waits until every helper has exited.
func waitHelpersGone(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for helpers.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d helpers still alive after 5 s", helpers.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDoLowestFailureWins runs batches whose failing indices are random
// and whose jobs take random times. Claims are in order and every claimed
// index completes, so each index below the lowest failure has run exactly
// once, and that failure is the one returned.
func TestDoLowestFailureWins(t *testing.T) {
	for _, procs := range []int{2, 4} {
		withProcs(t, procs)
		rng := rand.New(rand.NewSource(int64(procs)))
		for round := 0; round < 200; round++ {
			n := 1 + rng.Intn(40)
			fails := make([]bool, n)
			lowest := n
			for i := range fails {
				if rng.Intn(8) == 0 {
					fails[i] = true
					lowest = min(lowest, i)
				}
			}
			spin := make([]int, n)
			for i := range spin {
				spin[i] = rng.Intn(2000)
			}
			ran := make([]atomic.Int32, n)
			err := Do(n, func(i int) error {
				ran[i].Add(1)
				for k := 0; k < spin[i]; k++ {
					runtime.Gosched()
				}
				if fails[i] {
					return fmt.Errorf("index %d", i)
				}
				return nil
			})
			if lowest == n {
				if err != nil {
					t.Fatalf("procs %d round %d: no index fails, got %v", procs, round, err)
				}
			} else if err == nil || err.Error() != fmt.Sprintf("index %d", lowest) {
				t.Fatalf("procs %d round %d: got %v, want index %d's error", procs, round, err, lowest)
			}
			for i := 0; i < n; i++ {
				if c := ran[i].Load(); c > 1 || (i <= lowest && c != 1) {
					t.Fatalf("procs %d round %d: index %d ran %d times (lowest failure %d)", procs, round, i, c, lowest)
				}
			}
		}
	}
}

// TestDoFailureStopsClaims runs a batch whose index 3 fails at once
// while every other index takes 5 ms, so helpers have joined by the time
// index 3 is claimed. The failure stops further claims: indices 0–3 run,
// each other worker finishes at most the one index it holds, and every
// claimed index has finished when Do returns.
func TestDoFailureStopsClaims(t *testing.T) {
	const procs, n, bad = 4, 200, 3
	withProcs(t, procs)
	var started, finished atomic.Int32
	ran := make([]atomic.Bool, n)
	err := Do(n, func(i int) error {
		started.Add(1)
		defer finished.Add(1)
		ran[i].Store(true)
		if i == bad {
			return errors.New("bad")
		}
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	if err == nil {
		t.Fatal("failure not returned")
	}
	if s, f := started.Load(), finished.Load(); s > bad+procs || s != f {
		t.Errorf("%d indices started and %d finished by Do's return, want at most %d and all finished", s, f, bad+procs)
	}
	for i := 0; i <= bad; i++ {
		if !ran[i].Load() {
			t.Errorf("index %d, below the failure, did not run", i)
		}
	}
}

// TestDoFailureStopsClaimsExactly holds index 0 until every other
// worker (the caller and GOMAXPROCS−1 fresh helpers) has claimed one
// index, then fails it; the others finish their index only once the
// failure is recorded. A failure stops claims before it is recorded, so
// exactly GOMAXPROCS indices run, however the workers are scheduled.
func TestDoFailureStopsClaimsExactly(t *testing.T) {
	const n = 64
	for _, procs := range []int{2, 4} {
		withProcs(t, procs)
		waitHelpersGone(t)
		claimed := make(chan struct{}, n) // one send per index at most
		var ran atomic.Int32
		// The batch is posted while any of its indices is first called.
		var posting atomic.Pointer[batch]
		err := Do(n, func(i int) error {
			ran.Add(1)
			posting.CompareAndSwap(nil, posted.Load())
			b := posting.Load()
			if i == 0 {
				for k := 0; k < procs-1; k++ {
					<-claimed
				}
				return errors.New("index 0")
			}
			claimed <- struct{}{}
			for {
				b.mu.Lock()
				recorded := b.errIdx == 0
				b.mu.Unlock()
				if recorded {
					return nil
				}
				runtime.Gosched()
			}
		})
		if err == nil || err.Error() != "index 0" {
			t.Fatalf("GOMAXPROCS=%d: got %v, want index 0's error", procs, err)
		}
		if got := ran.Load(); got != int32(procs) {
			t.Errorf("GOMAXPROCS=%d: %d indices ran, want exactly %d", procs, got, procs)
		}
	}
}

// TestDoInline checks that a batch of 0 or 1 index, or any batch at
// GOMAXPROCS = 1, is the plain loop: in order, and posted to no helper.
func TestDoInline(t *testing.T) {
	check := func(n int) {
		t.Helper()
		var order []int
		err := Do(n, func(i int) error {
			if posted.Load() != nil {
				t.Errorf("n=%d: a batch was posted", n)
			}
			order = append(order, i)
			return nil
		})
		if err != nil || len(order) != n {
			t.Fatalf("n=%d: err %v, ran %v", n, err, order)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("n=%d: ran %v, want 0…%d in order", n, order, n-1)
			}
		}
	}
	withProcs(t, 2)
	waitHelpersGone(t)
	check(0)
	check(1)
	withProcs(t, 1)
	check(5)
	if err := Do(3, func(i int) error {
		if i == 1 {
			return errors.New("stop")
		}
		if i == 2 {
			t.Error("index 2 ran after index 1 failed")
		}
		return nil
	}); err == nil {
		t.Error("failure not returned")
	}
}

// TestDoConcurrentCallers has many goroutines call Do at once. Helpers
// serve whichever batch is posted; each caller must still see every one
// of its own indices run exactly once.
func TestDoConcurrentCallers(t *testing.T) {
	const callers, rounds, n = 16, 50, 24
	withProcs(t, 4)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ran := make([]atomic.Int32, n)
				if err := Do(n, func(i int) error {
					ran[i].Add(1)
					return nil
				}); err != nil {
					t.Errorf("caller %d round %d: %v", c, r, err)
					return
				}
				for i := range ran {
					if got := ran[i].Load(); got != 1 {
						t.Errorf("caller %d round %d: index %d ran %d times", c, r, i, got)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestHelpersExitWhenIdle checks that no helper outlives the idle window
// by more than a bounded wait: the goroutine count returns to what it
// was before the batch.
func TestHelpersExitWhenIdle(t *testing.T) {
	withProcs(t, 4)
	waitHelpersGone(t)
	base := runtime.NumGoroutine()
	if err := Do(16, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5 s after the batch, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
	if h := helpers.Load(); h != 0 {
		t.Errorf("%d helpers counted alive after they exited", h)
	}
}

// BenchmarkDoTwoVerifies measures the hand-off DESIGN.md quotes: two
// signature verifications under tabled keys, run one after the other,
// through Do with a helper still polling from the previous batch, and
// through Do with no helper alive (the caller runs both while the helper
// it started wakes up). Run it at -cpu 2.
func BenchmarkDoTwoVerifies(b *testing.B) {
	type signed struct {
		pub    *bkey.PublicKey
		digest [32]byte
		sig    *bkey.Signature
	}
	var two [2]signed
	for i := range two {
		k, err := bkey.NewPrivateKey(rand.New(rand.NewSource(int64(i + 1))))
		if err != nil {
			b.Fatal(err)
		}
		digest := sha256.Sum256([]byte{byte(i)})
		sig, err := k.Sign(digest[:])
		if err != nil {
			b.Fatal(err)
		}
		two[i] = signed{k.PubKey(), digest, sig}
		for j := 0; j < 2; j++ { // record the key, then table it
			if !k.PubKey().Verify(digest[:], sig) {
				b.Fatal("signature rejected")
			}
		}
	}
	verify := func(i int) error {
		if !two[i].pub.Verify(two[i].digest[:], two[i].sig) {
			return errors.New("signature rejected")
		}
		return nil
	}
	b.Run("serial", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			for i := range two {
				if err := verify(i); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		if runtime.GOMAXPROCS(0) < 2 {
			b.Skip("needs GOMAXPROCS ≥ 2")
		}
		for n := 0; n < b.N; n++ {
			if err := Do(len(two), verify); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		if runtime.GOMAXPROCS(0) < 2 {
			b.Skip("needs GOMAXPROCS ≥ 2")
		}
		// Timed by hand: StopTimer and StartTimer stop the world.
		var spent time.Duration
		for n := 0; n < b.N; n++ {
			for helpers.Load() != 0 {
				runtime.Gosched()
			}
			start := time.Now()
			if err := Do(len(two), verify); err != nil {
				b.Fatal(err)
			}
			spent += time.Since(start)
		}
		b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N), "ns/op")
	})
}
