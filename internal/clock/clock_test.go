package clock

import (
	"sync"
	"testing"
	"time"
)

func TestSimulatedAdvance(t *testing.T) {
	start := time.Unix(1000, 0)
	c := NewSimulated(start)
	if !c.Now().Equal(start) {
		t.Fatalf("Now() = %v, want %v", c.Now(), start)
	}
	got := c.Advance(10 * time.Minute)
	want := start.Add(10 * time.Minute)
	if !got.Equal(want) || !c.Now().Equal(want) {
		t.Errorf("after Advance: %v, want %v", c.Now(), want)
	}
	c.Set(time.Unix(99, 0))
	if c.Now().Unix() != 99 {
		t.Errorf("Set did not take: %v", c.Now())
	}
}

func TestSimulatedConcurrent(t *testing.T) {
	c := NewSimulated(time.Unix(0, 0))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Advance(time.Second)
				_ = c.Now()
			}
		}()
	}
	wg.Wait()
	if got := c.Now().Unix(); got != 800 {
		t.Errorf("after 800 concurrent advances: %d", got)
	}
}

func TestAfterFuncFiresInDueOrder(t *testing.T) {
	c := NewSimulated(time.Unix(0, 0))
	var order []int
	c.AfterFunc(3*time.Second, func() { order = append(order, 3) })
	c.AfterFunc(1*time.Second, func() { order = append(order, 1) })
	c.AfterFunc(2*time.Second, func() { order = append(order, 2) })
	c.AfterFunc(10*time.Second, func() { order = append(order, 10) })
	c.Advance(5 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fired order = %v, want [1 2 3]", order)
	}
	c.Advance(5 * time.Second)
	if len(order) != 4 || order[3] != 10 {
		t.Fatalf("fired order = %v, want trailing 10", order)
	}
}

func TestTimerStop(t *testing.T) {
	c := NewSimulated(time.Unix(0, 0))
	fired := false
	stop := c.AfterFunc(time.Second, func() { fired = true })
	if !stop() {
		t.Fatal("Stop before firing should return true")
	}
	c.Advance(2 * time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
	if stop() {
		t.Fatal("second Stop should return false")
	}

	stop2 := c.AfterFunc(time.Second, func() {})
	c.Advance(2 * time.Second)
	if stop2() {
		t.Fatal("Stop after firing should return false")
	}
}

func TestSubscribeSeesEveryChange(t *testing.T) {
	c := NewSimulated(time.Unix(0, 0))
	var seen []int64
	c.Subscribe(func(now time.Time) { seen = append(seen, now.Unix()) })
	c.Advance(time.Second)
	c.Set(time.Unix(50, 0))
	c.Advance(time.Second)
	want := []int64{1, 50, 51}
	if len(seen) != len(want) {
		t.Fatalf("subscriber saw %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("subscriber saw %v, want %v", seen, want)
		}
	}
}

// TestTimerCallbackMayUseClock guards against the callback deadlocking on
// the clock's own lock.
func TestTimerCallbackMayUseClock(t *testing.T) {
	c := NewSimulated(time.Unix(0, 0))
	var rescheduled bool
	c.AfterFunc(time.Second, func() {
		_ = c.Now()
		c.AfterFunc(time.Hour, func() {})
		rescheduled = true
	})
	c.Advance(2 * time.Second)
	if !rescheduled {
		t.Fatal("timer callback did not run")
	}
}

func TestDueUntilAdvance(t *testing.T) {
	c := NewSimulated(time.Unix(0, 0))
	c.AfterFunc(time.Second, func() {})
	if c.Due() {
		t.Fatal("a timer one second out reads as due")
	}
	fired := false
	c.AfterFunc(0, func() { fired = true })
	if !c.Due() || fired {
		t.Fatalf("a zero-delay timer: due %v, fired %v; want due and not fired", c.Due(), fired)
	}
	c.Advance(0)
	if c.Due() || !fired {
		t.Fatalf("after Advance(0): due %v, fired %v; want fired and nothing due", c.Due(), fired)
	}
}

// TestSystemAfterFunc: the wall clock's AfterFunc runs its callback, and
// Stop before the deadline cancels it.
func TestSystemAfterFunc(t *testing.T) {
	var clk Clock = System{}
	fired := make(chan struct{})
	clk.AfterFunc(time.Millisecond, func() { close(fired) })
	<-fired

	stop := clk.AfterFunc(time.Hour, func() { t.Error("stopped timer fired") })
	if !stop() {
		t.Fatal("Stop before the deadline should return true")
	}
	if stop() {
		t.Fatal("second Stop should return false")
	}
}

func TestSystemClock(t *testing.T) {
	before := time.Now().Add(-time.Second)
	got := System{}.Now()
	after := time.Now().Add(time.Second)
	if got.Before(before) || got.After(after) {
		t.Errorf("System.Now() = %v outside [%v, %v]", got, before, after)
	}
}
