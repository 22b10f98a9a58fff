package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"typecoin/internal/node"
	"typecoin/internal/testutil"
)

func newTestServer(t *testing.T) *server {
	t.Helper()
	nd, err := node.Open(node.Config{Clock: node.SimClock(), Entropy: testutil.NewEntropy(t.Name())})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nd.Close() })
	payout, err := nd.Wallet.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	return &server{Node: nd, payout: payout}
}

func doJSON(t *testing.T, handler http.HandlerFunc, method, target string, body interface{}) (int, map[string]interface{}) {
	t.Helper()
	var reader *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reader = bytes.NewReader(raw)
	} else {
		reader = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, target, reader)
	rec := httptest.NewRecorder()
	handler(rec, req)
	var out map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("response %q is not JSON: %v", rec.Body.String(), err)
	}
	return rec.Code, out
}

func TestStatusAndMine(t *testing.T) {
	s := newTestServer(t)
	code, out := doJSON(t, s.handleStatus, "GET", "/status", nil)
	if code != 200 || out["height"].(float64) != 0 {
		t.Fatalf("status: code=%d out=%v", code, out)
	}
	code, out = doJSON(t, s.handleMine, "POST", "/mine", map[string]int{"blocks": 3})
	if code != 200 || out["height"].(float64) != 3 {
		t.Fatalf("mine: code=%d out=%v", code, out)
	}
	_, out = doJSON(t, s.handleStatus, "GET", "/status", nil)
	if out["height"].(float64) != 3 {
		t.Errorf("height after mine = %v", out["height"])
	}
	if out["headerHeight"].(float64) != 3 {
		t.Errorf("headerHeight after mine = %v, want 3", out["headerHeight"])
	}
	if out["syncing"].(bool) {
		t.Errorf("node reports syncing with no body backlog: %v", out)
	}
}

func TestBalanceNewKeySend(t *testing.T) {
	s := newTestServer(t)
	// Mature some coinbases.
	if _, out := doJSON(t, s.handleMine, "POST", "/mine",
		map[string]int{"blocks": s.Chain.Params().CoinbaseMaturity + 1}); out["error"] != nil {
		t.Fatalf("mine: %v", out)
	}
	_, out := doJSON(t, s.handleBalance, "GET", "/balance", nil)
	if out["satoshi"].(float64) <= 0 {
		t.Fatalf("balance: %v", out)
	}
	_, out = doJSON(t, s.handleNewKey, "POST", "/newkey", nil)
	principal, _ := out["principal"].(string)
	if len(principal) != 40 {
		t.Fatalf("newkey: %v", out)
	}
	code, out := doJSON(t, s.handleSend, "POST", "/send",
		map[string]interface{}{"to": principal, "amount": 1_000_000})
	if code != 200 || out["txid"] == nil {
		t.Fatalf("send: code=%d out=%v", code, out)
	}
	if s.Pool.Size() != 1 {
		t.Errorf("mempool size = %d after send", s.Pool.Size())
	}
	// Bad principal is a 400.
	code, _ = doJSON(t, s.handleSend, "POST", "/send",
		map[string]interface{}{"to": "zz", "amount": 5})
	if code != http.StatusBadRequest {
		t.Errorf("bad principal: code=%d", code)
	}
}

func TestBlockAndTypecoinEndpoints(t *testing.T) {
	s := newTestServer(t)
	doJSON(t, s.handleMine, "POST", "/mine", map[string]int{"blocks": 1})
	code, out := doJSON(t, s.handleBlock, "GET", "/block/1", nil)
	if code != 200 || out["numTxs"].(float64) != 1 {
		t.Fatalf("block: code=%d out=%v", code, out)
	}
	code, _ = doJSON(t, s.handleBlock, "GET", "/block/99", nil)
	if code != http.StatusNotFound {
		t.Errorf("missing block: code=%d", code)
	}
	code, _ = doJSON(t, s.handleTypecoin, "GET", "/typecoin/nonsense", nil)
	if code != http.StatusBadRequest {
		t.Errorf("bad outpoint: code=%d", code)
	}
}

// TestBanThresholdOutsideInt32Refused starts the daemon with ban
// thresholds that do not fit the score's int32. Each must stop it at
// flag parsing (exit status 2, naming the flag), not wrap into another
// value and run.
func TestBanThresholdOutsideInt32Refused(t *testing.T) {
	for _, v := range []string{"3000000000", "-2147483649"} {
		cmd := exec.Command(os.Args[0], "-test.run=TestDaemonHelper", "--",
			"-banthreshold", v, "-listen", "", "-http", "127.0.0.1:0")
		cmd.Env = append(os.Environ(), "TYPECOIND_HELPER=1")
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()
		select {
		case err := <-exited:
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(out.String(), "-banthreshold") {
				t.Errorf("-banthreshold %s: %v, want exit status 2 naming the flag; output:\n%s", v, err, out.String())
			}
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-exited
			t.Errorf("-banthreshold %s: the daemon started; output:\n%s", v, out.String())
		}
	}
}
