package index

// Many-client load test: N query clients and K subscription streams
// hammer the HTTP API while the node connects blocks. Assertions:
//
//  1. No query ever returns an error or malformed JSON under load.
//  2. No stale reads: every response's indexHeight is >= the chain's
//     BestHeight captured before the request was issued. The index rows
//     and the chain tip commit in one batch before the tip moves, so the
//     index may be AHEAD of a height read earlier but never behind it.
//  3. Every subscriber sees the stream; disconnecting all clients
//     leaves zero active subscriptions and no leaked goroutines.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"typecoin/internal/chain"
	"typecoin/internal/clock"
	"typecoin/internal/mempool"
	"typecoin/internal/miner"
	"typecoin/internal/script"
	"typecoin/internal/store"
	"typecoin/internal/testutil"
	"typecoin/internal/wallet"
)

func TestIndexManyClientLoad(t *testing.T) {
	const (
		queryClients = 16
		subscribers  = 8
		blocks       = 30
	)

	params := chain.RegTestParams()
	clk := clock.NewSimulated(params.GenesisBlock.Header.Timestamp.Add(time.Minute))
	st := store.NewMem()
	defer st.Close()
	c, err := chain.Open(chain.Config{Params: params, Clock: clk, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Open(c)
	if err != nil {
		t.Fatal(err)
	}
	pool := mempool.New(c, -1)
	w, err := wallet.Open(c, testutil.NewEntropy("index/load"))
	if err != nil {
		t.Fatal(err)
	}
	payout, err := w.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	m := miner.New(c, pool, clk)
	for i := 0; i < params.CoinbaseMaturity+1; i++ {
		clk.Advance(time.Minute)
		if _, _, err := m.Mine(payout); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(ix.Handler())
	defer srv.Close()

	baseGoroutines := runtime.NumGoroutine()

	// Subscription clients: each streams block events until canceled.
	subCtx, cancelSubs := context.WithCancel(context.Background())
	var subWG sync.WaitGroup
	subBlockEvents := make([]int64, subscribers)
	for i := 0; i < subscribers; i++ {
		i := i
		subWG.Add(1)
		go func() {
			defer subWG.Done()
			req, err := http.NewRequestWithContext(subCtx, "GET",
				srv.URL+"/subscribe?blocks=1&addrs="+payout.String(), nil)
			if err != nil {
				t.Errorf("subscriber %d: %v", i, err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Errorf("subscriber %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				var ev struct {
					Type string `json:"type"`
				}
				if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
					t.Errorf("subscriber %d: bad event line %q", i, sc.Text())
					return
				}
				if ev.Type == "block" {
					atomic.AddInt64(&subBlockEvents[i], 1)
				}
			}
		}()
	}
	// All streams registered before traffic starts.
	waitFor(t, time.Second, func() bool { return ix.hub.active() == subscribers })

	// Query clients: loop /address and /status until mining finishes,
	// checking the staleness invariant on every response.
	var (
		done      atomic.Bool
		queries   atomic.Int64
		staleness atomic.Int64 // failures observed (reported once)
	)
	var qWG sync.WaitGroup
	queryErr := make(chan error, queryClients)
	for i := 0; i < queryClients; i++ {
		i := i
		qWG.Add(1)
		go func() {
			defer qWG.Done()
			paths := []string{
				"/address/" + payout.String() + "?limit=25",
				"/status",
				"/sync?limit=10",
			}
			for n := 0; !done.Load(); n++ {
				seen := c.BestHeight()
				resp, err := http.Get(srv.URL + paths[n%len(paths)])
				if err != nil {
					queryErr <- fmt.Errorf("client %d: %v", i, err)
					return
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					queryErr <- fmt.Errorf("client %d: status %d err %v body %.200s", i, resp.StatusCode, err, raw)
					return
				}
				var out struct {
					IndexHeight int `json:"indexHeight"`
				}
				if err := json.Unmarshal(raw, &out); err != nil {
					queryErr <- fmt.Errorf("client %d: bad JSON %.200s", i, raw)
					return
				}
				if out.IndexHeight < seen {
					staleness.Add(1)
					queryErr <- fmt.Errorf("client %d: stale read: indexHeight %d < chain height %d seen before the request",
						i, out.IndexHeight, seen)
					return
				}
				queries.Add(1)
			}
		}()
	}

	// Drive blocks with wallet traffic while the clients run.
	for i := 0; i < blocks; i++ {
		dest, err := w.NewKey()
		if err != nil {
			t.Fatal(err)
		}
		tx, err := w.Build([]wallet.Output{
			{Value: 200_000 + int64(i), PkScript: script.PayToPubKeyHash(dest)},
		}, wallet.BuildOptions{})
		if err == nil {
			_, _ = pool.Accept(tx)
		}
		clk.Advance(time.Minute)
		if _, _, err := m.Mine(payout); err != nil {
			t.Fatal(err)
		}
		// Yield so clients interleave with connects.
		time.Sleep(time.Millisecond)
	}
	done.Store(true)
	qWG.Wait()
	close(queryErr)
	for err := range queryErr {
		t.Error(err)
	}
	if got := queries.Load(); got < int64(queryClients) {
		t.Fatalf("only %d queries completed under load", got)
	}
	t.Logf("load: %d queries across %d clients, %d blocks", queries.Load(), queryClients, blocks)

	// Subscribers: every stream must have seen block events (buffered
	// channels absorb the burst; drops are allowed by contract but with
	// 30 blocks and depth 256 none should occur here).
	cancelSubs()
	subWG.Wait()
	for i, n := range subBlockEvents {
		if atomic.LoadInt64(&subBlockEvents[i]) == 0 {
			t.Errorf("subscriber %d saw no block events (got %d)", i, n)
		}
	}

	// Disconnect accounting: the hub empties and the handler goroutines
	// exit (no leak).
	waitFor(t, 2*time.Second, func() bool { return ix.hub.active() == 0 })
	http.DefaultClient.CloseIdleConnections()
	srv.CloseClientConnections()
	waitFor(t, 3*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseGoroutines+2
	})

	// Final consistency.
	if err := ix.AuditRebuild(); err != nil {
		t.Fatal(err)
	}
	if got, want := ix.TipHeight(), c.BestHeight(); got != want {
		t.Fatalf("index tip %d, chain tip %d", got, want)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !cond() {
		t.Fatalf("condition not reached within %v (goroutines=%d)", d, runtime.NumGoroutine())
	}
}
