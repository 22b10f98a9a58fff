package main

// Crash-recovery tests, in three escalating layers:
//
//  1. TestCrashMidCommitRecoversConsistent drives a full persistent
//     stack (chain, wallet, ledger) into a fault-injected store that
//     tears a frame mid-commit, reopens the directory, and demands the
//     recovered node — after resyncing the missed blocks — be
//     indistinguishable from a control node that never crashed.
//  2. TestMempoolPersistAcrossRestart checks the graceful-shutdown
//     snapshot: pooled transactions survive a clean restart and re-lock
//     their wallet inputs.
//  3. TestDaemonKillRecovery runs the real daemon as a child process,
//     SIGKILLs it, restarts it on the same -datadir and asserts identical
//     chain state over the HTTP API — then exercises SIGTERM graceful
//     shutdown and the mempool snapshot it writes.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"typecoin/internal/chain"
	"typecoin/internal/clock"
	"typecoin/internal/lf"
	"typecoin/internal/logic"
	"typecoin/internal/mempool"
	"typecoin/internal/miner"
	"typecoin/internal/proof"
	"typecoin/internal/script"
	"typecoin/internal/store"
	"typecoin/internal/testutil"
	"typecoin/internal/typecoin"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

func TestCrashMidCommitRecoversConsistent(t *testing.T) {
	params := chain.RegTestParams()
	clk := clock.NewSimulated(params.GenesisBlock.Header.Timestamp.Add(time.Minute))

	// Control node: in-memory, never crashes. Shares the entropy seed
	// with the crash node so both wallets derive the same keys.
	const entropySeed = "recovery/shared"
	chC := chain.New(params, clk)
	poolC := mempool.New(chC, -1)
	wC := wallet.New(chC, testutil.NewEntropy(entropySeed))
	payout, err := wC.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	ledgerC := typecoin.NewLedger(chC, 1)
	minerC := miner.New(chC, poolC, clk)

	// Crash node: file store wrapped in a fault that tears a frame on
	// the 17th Apply — mid-script, after the typecoin carrier commits.
	dir := t.TempDir()
	fileSt, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	fault := store.NewFaultEngine(fileSt, 0)
	fault.Inject(store.FaultRule{Op: store.OpApply, Kind: store.KindKill,
		Mode: store.ModeOneShot, After: 16, TearBytes: 10})
	chF, err := chain.Open(chain.Config{Params: params, Clock: clk, Store: fault})
	if err != nil {
		t.Fatal(err)
	}
	wF, err := wallet.Open(chF, testutil.NewEntropy(entropySeed))
	if err != nil {
		t.Fatal(err)
	}
	// Derive the same two keys on the crash node (shared entropy stream):
	// in production the builder and the crash survivor are one wallet.
	if _, err := wF.NewKey(); err != nil {
		t.Fatal(err)
	}
	if _, err := wF.NewKey(); err != nil {
		t.Fatal(err)
	}
	dest, err := wC.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	ledgerF, err := typecoin.OpenLedger(chF, 1)
	if err != nil {
		t.Fatal(err)
	}

	var blks []*wire.MsgBlock
	crashed := false
	mine := func() {
		t.Helper()
		clk.Advance(time.Minute)
		blk, _, err := minerC.Mine(payout)
		if err != nil {
			t.Fatalf("mine: %v", err)
		}
		blks = append(blks, blk)
		if crashed {
			return
		}
		if _, err := chF.ProcessBlock(blk); err != nil {
			if !errors.Is(err, store.ErrClosed) {
				t.Fatalf("crash node rejected block for the wrong reason: %v", err)
			}
			crashed = true
		}
	}

	// Mature a coinbase on both nodes.
	for i := 0; i < params.CoinbaseMaturity+1; i++ {
		mine()
	}

	// Grant a typed token and confirm its carrier; the announcement and
	// the applied marker land in the crash node's store before the fault.
	ownerKey, err := wC.Key(payout)
	if err != nil {
		t.Fatal(err)
	}
	grant := typecoin.NewTx()
	if err := grant.Basis.DeclareFam(lf.This("tok"), lf.KProp{}); err != nil {
		t.Fatal(err)
	}
	tok := logic.Atom(lf.This("tok"))
	grant.Grant = tok
	grant.Outputs = []typecoin.Output{{Type: tok, Amount: 5_000, Owner: ownerKey.PubKey()}}
	grant.Proof = proof.Lam{Name: "d", Ty: grant.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("c")}}}
	outs, err := typecoin.CarrierOutputs(grant)
	if err != nil {
		t.Fatal(err)
	}
	wOuts := make([]wallet.Output, len(outs))
	for i, o := range outs {
		wOuts[i] = wallet.Output{Value: o.Value, PkScript: o.PkScript}
	}
	carrier, err := wC.Build(wOuts, wallet.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ledgerC.Announce(grant)
	ledgerF.Announce(grant)
	if _, err := poolC.Accept(carrier); err != nil {
		t.Fatalf("accept carrier: %v", err)
	}
	mine() // confirms the carrier

	// A plain wallet spend, then padding blocks; the fault fires in here.
	spend, err := wC.Build([]wallet.Output{
		{Value: 1_000_000, PkScript: script.PayToPubKeyHash(dest)},
	}, wallet.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := poolC.Accept(spend); err != nil {
		t.Fatalf("accept spend: %v", err)
	}
	mine()
	mine()
	mine()
	if !crashed {
		t.Fatalf("fault never fired: %d applies", fault.OpCalls(store.OpApply))
	}
	_ = fault.Close()

	// Reopen the directory: journal replay must find and truncate the
	// torn frame, and the stack must come back internally consistent.
	st2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer st2.Close()
	if st2.TruncatedBytes() == 0 {
		t.Error("reopen found no torn frame to truncate")
	}
	ch2, err := chain.Open(chain.Config{Params: params, Clock: clk, Store: st2})
	if err != nil {
		t.Fatalf("reopen chain: %v", err)
	}
	if got := ch2.BestHeight(); got >= chC.BestHeight() {
		t.Fatalf("recovered height %d, want < control %d", got, chC.BestHeight())
	}
	if err := ch2.AuditFromGenesis(); err != nil {
		t.Fatalf("recovered chain audit: %v", err)
	}
	w2, err := wallet.Open(ch2, testutil.NewEntropy("recovery/unused"))
	if err != nil {
		t.Fatalf("reopen wallet: %v", err)
	}
	ledger2, err := typecoin.OpenLedger(ch2, 1)
	if err != nil {
		t.Fatalf("reopen ledger: %v", err)
	}
	// The announcement was persisted when it arrived, so the recovered
	// ledger knows the grant without a re-announcement.
	listHash := (&typecoin.FallbackList{Txs: []*typecoin.Tx{grant}}).Hash()
	if _, ok := ledger2.KnownObject(listHash); !ok {
		t.Error("recovered ledger lost the persisted announcement")
	}
	pool2 := mempool.New(ch2, -1)
	if _, _, err := pool2.Restore(w2.ObserveUnconfirmed); err != nil {
		t.Fatalf("restore mempool: %v", err)
	}

	// Resync: replay the control node's blocks (duplicates are no-ops).
	for _, blk := range blks {
		if _, err := ch2.ProcessBlock(blk); err != nil {
			t.Fatalf("resync block: %v", err)
		}
	}

	// The recovered node must now match the control node on every layer.
	if ch2.BestHash() != chC.BestHash() || ch2.BestHeight() != chC.BestHeight() {
		t.Fatalf("chain mismatch: recovered %s@%d, control %s@%d",
			ch2.BestHash(), ch2.BestHeight(), chC.BestHash(), chC.BestHeight())
	}
	if got, want := ch2.UtxoSize(), chC.UtxoSize(); got != want {
		t.Fatalf("utxo set size %d, control %d", got, want)
	}
	if err := ch2.AuditFromGenesis(); err != nil {
		t.Fatalf("resynced chain audit: %v", err)
	}
	if err := ledger2.AuditAffine(); err != nil {
		t.Fatalf("recovered ledger audit: %v", err)
	}
	if !ledger2.Applied(carrier.TxHash()) {
		t.Fatal("recovered ledger did not apply the grant carrier")
	}
	if got, want := ledger2.AppliedCount(), ledgerC.AppliedCount(); got != want {
		t.Fatalf("ledger applied %d carriers, control %d", got, want)
	}
	if got, want := w2.Balance(), wC.Balance(); got != want {
		t.Fatalf("wallet balance %d, control %d", got, want)
	}
}

// TestCrashInGroupCommitWindowRecovers is the group-commit variant of
// TestCrashMidCommitRecoversConsistent: the same full stack runs over
// the async pipeline with a window that never expires, so every write
// of the run coalesces into one giant group. The fault store under the
// pipeline tears a frame on the 17th batch of that group when it
// finally drains — a crash inside the commit window. Recovery must
// yield a clean prefix of whole batches and, after resync, match a
// never-crashed control node on every layer.
func TestCrashInGroupCommitWindowRecovers(t *testing.T) {
	params := chain.RegTestParams()
	clk := clock.NewSimulated(params.GenesisBlock.Header.Timestamp.Add(time.Minute))

	const entropySeed = "recovery/group"
	chC := chain.New(params, clk)
	poolC := mempool.New(chC, -1)
	wC := wallet.New(chC, testutil.NewEntropy(entropySeed))
	payout, err := wC.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	ledgerC := typecoin.NewLedger(chC, 1)
	minerC := miner.New(chC, poolC, clk)

	// Crash node: File under FaultEngine under Group. The engine does not
	// implement ApplyGroup, so the committer applies batch by batch and the
	// tear lands mid-coalesced-group rather than before or after it.
	dir := t.TempDir()
	fileSt, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	fault := store.NewFaultEngine(fileSt, 0)
	fault.Inject(store.FaultRule{Op: store.OpApply, Kind: store.KindKill,
		Mode: store.ModeOneShot, After: 16, TearBytes: 10})
	g := store.NewGroup(fault, store.GroupConfig{Interval: time.Hour, MaxBatches: 1 << 30})
	chF, err := chain.Open(chain.Config{Params: params, Clock: clk, Store: g})
	if err != nil {
		t.Fatal(err)
	}
	wF, err := wallet.Open(chF, testutil.NewEntropy(entropySeed))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wF.NewKey(); err != nil {
		t.Fatal(err)
	}
	if _, err := wF.NewKey(); err != nil {
		t.Fatal(err)
	}
	dest, err := wC.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	ledgerF, err := typecoin.OpenLedger(chF, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Inside the window every connect succeeds instantly against the
	// overlay — unlike the synchronous test, no mine can fail here.
	var blks []*wire.MsgBlock
	mine := func() {
		t.Helper()
		clk.Advance(time.Minute)
		blk, _, err := minerC.Mine(payout)
		if err != nil {
			t.Fatalf("mine: %v", err)
		}
		blks = append(blks, blk)
		if _, err := chF.ProcessBlock(blk); err != nil {
			t.Fatalf("crash node rejected block inside the window: %v", err)
		}
	}

	for i := 0; i < params.CoinbaseMaturity+1; i++ {
		mine()
	}
	// The whole chain is pending: the tip has advanced but nothing is
	// durable yet, and the watermark says so.
	if got := chF.FlushedHeight(); got != 0 {
		t.Fatalf("FlushedHeight = %d with the whole chain pending, want 0", got)
	}

	// Grant a typed token and confirm its carrier, all inside the window.
	ownerKey, err := wC.Key(payout)
	if err != nil {
		t.Fatal(err)
	}
	grant := typecoin.NewTx()
	if err := grant.Basis.DeclareFam(lf.This("tok"), lf.KProp{}); err != nil {
		t.Fatal(err)
	}
	tok := logic.Atom(lf.This("tok"))
	grant.Grant = tok
	grant.Outputs = []typecoin.Output{{Type: tok, Amount: 5_000, Owner: ownerKey.PubKey()}}
	grant.Proof = proof.Lam{Name: "d", Ty: grant.Domain(),
		Body: proof.LetPair{LName: "ca", RName: "r", Of: proof.V("d"),
			Body: proof.LetPair{LName: "c", RName: "a", Of: proof.V("ca"),
				Body: proof.V("c")}}}
	outs, err := typecoin.CarrierOutputs(grant)
	if err != nil {
		t.Fatal(err)
	}
	wOuts := make([]wallet.Output, len(outs))
	for i, o := range outs {
		wOuts[i] = wallet.Output{Value: o.Value, PkScript: o.PkScript}
	}
	carrier, err := wC.Build(wOuts, wallet.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ledgerC.Announce(grant)
	ledgerF.Announce(grant)
	if _, err := poolC.Accept(carrier); err != nil {
		t.Fatalf("accept carrier: %v", err)
	}
	mine() // confirms the carrier

	spend, err := wC.Build([]wallet.Output{
		{Value: 1_000_000, PkScript: script.PayToPubKeyHash(dest)},
	}, wallet.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := poolC.Accept(spend); err != nil {
		t.Fatalf("accept spend: %v", err)
	}
	mine()
	mine()
	mine()

	// Crash: draining the pipeline replays the coalesced group into the
	// fault, which tears batch 17 mid-frame and poisons everything after.
	if got := g.PendingBatches(); got < 17 {
		t.Fatalf("only %d batches pending; the fault would not fire mid-group", got)
	}
	if err := g.Flush(); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("flush over dying store: err = %v, want ErrClosed", err)
	}
	if err := g.Apply(store.NewBatch()); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("Apply after poison: %v, want ErrClosed", err)
	}
	g.Close()
	_ = fault.Close()

	// Reopen: replay must truncate the torn frame and recover exactly the
	// durable prefix of whole batches.
	st2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer st2.Close()
	if st2.TruncatedBytes() == 0 {
		t.Error("reopen found no torn frame to truncate")
	}
	ch2, err := chain.Open(chain.Config{Params: params, Clock: clk, Store: st2})
	if err != nil {
		t.Fatalf("reopen chain: %v", err)
	}
	if got := ch2.BestHeight(); got >= chC.BestHeight() {
		t.Fatalf("recovered height %d, want < control %d", got, chC.BestHeight())
	}
	// Synchronous store after reopen: watermark and tip coincide.
	if got, want := ch2.FlushedHeight(), ch2.BestHeight(); got != want {
		t.Fatalf("recovered FlushedHeight = %d, tip = %d", got, want)
	}
	if err := ch2.AuditFromGenesis(); err != nil {
		t.Fatalf("recovered chain audit: %v", err)
	}
	w2, err := wallet.Open(ch2, testutil.NewEntropy("recovery/unused"))
	if err != nil {
		t.Fatalf("reopen wallet: %v", err)
	}
	ledger2, err := typecoin.OpenLedger(ch2, 1)
	if err != nil {
		t.Fatalf("reopen ledger: %v", err)
	}
	listHash := (&typecoin.FallbackList{Txs: []*typecoin.Tx{grant}}).Hash()
	if _, ok := ledger2.KnownObject(listHash); !ok {
		t.Error("recovered ledger lost the persisted announcement")
	}
	pool2 := mempool.New(ch2, -1)
	if _, _, err := pool2.Restore(w2.ObserveUnconfirmed); err != nil {
		t.Fatalf("restore mempool: %v", err)
	}

	for _, blk := range blks {
		if _, err := ch2.ProcessBlock(blk); err != nil {
			t.Fatalf("resync block: %v", err)
		}
	}

	if ch2.BestHash() != chC.BestHash() || ch2.BestHeight() != chC.BestHeight() {
		t.Fatalf("chain mismatch: recovered %s@%d, control %s@%d",
			ch2.BestHash(), ch2.BestHeight(), chC.BestHash(), chC.BestHeight())
	}
	if got, want := ch2.UtxoSize(), chC.UtxoSize(); got != want {
		t.Fatalf("utxo set size %d, control %d", got, want)
	}
	if err := ch2.AuditFromGenesis(); err != nil {
		t.Fatalf("resynced chain audit: %v", err)
	}
	if err := ledger2.AuditAffine(); err != nil {
		t.Fatalf("recovered ledger audit: %v", err)
	}
	if !ledger2.Applied(carrier.TxHash()) {
		t.Fatal("recovered ledger did not apply the grant carrier")
	}
	if got, want := ledger2.AppliedCount(), ledgerC.AppliedCount(); got != want {
		t.Fatalf("ledger applied %d carriers, control %d", got, want)
	}
	if got, want := w2.Balance(), wC.Balance(); got != want {
		t.Fatalf("wallet balance %d, control %d", got, want)
	}
}

func TestMempoolPersistAcrossRestart(t *testing.T) {
	params := chain.RegTestParams()
	clk := clock.NewSimulated(params.GenesisBlock.Header.Timestamp.Add(time.Minute))
	dir := t.TempDir()

	st, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := chain.Open(chain.Config{Params: params, Clock: clk, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	pool := mempool.New(ch, -1)
	w, err := wallet.Open(ch, testutil.NewEntropy("mempool/restart"))
	if err != nil {
		t.Fatal(err)
	}
	payout, err := w.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	m := miner.New(ch, pool, clk)
	for i := 0; i < params.CoinbaseMaturity+1; i++ {
		clk.Advance(time.Minute)
		if _, _, err := m.Mine(payout); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := w.Build([]wallet.Output{
		{Value: 2_000_000, PkScript: script.PayToPubKeyHash(payout)},
	}, wallet.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Accept(tx); err != nil {
		t.Fatal(err)
	}

	// Graceful shutdown: snapshot, flush, close.
	if err := pool.Persist(); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ch2, err := chain.Open(chain.Config{Params: params, Clock: clk, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := wallet.Open(ch2, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool2 := mempool.New(ch2, -1)
	kept, dropped, err := pool2.Restore(w2.ObserveUnconfirmed)
	if err != nil {
		t.Fatal(err)
	}
	if kept != 1 || dropped != 0 {
		t.Fatalf("restore kept %d dropped %d, want 1/0", kept, dropped)
	}
	txid := tx.TxHash()
	if !pool2.Have(txid) {
		t.Fatal("restored pool is missing the snapshotted transaction")
	}

	// The restored transaction's inputs are locked again: it must make it
	// into the next block, and mining must not double-spend them.
	m2 := miner.New(ch2, pool2, clk)
	clk.Advance(time.Minute)
	if _, _, err := m2.Mine(payout); err != nil {
		t.Fatal(err)
	}
	if _, onChain := ch2.TxByID(txid); !onChain {
		t.Fatal("restored transaction was not mined")
	}
	if err := ch2.AuditFromGenesis(); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonHelper is not a test: it is the body of the child process
// spawned by TestDaemonKillRecovery, running the real daemon main loop.
func TestDaemonHelper(t *testing.T) {
	if os.Getenv("TYPECOIND_HELPER") != "1" {
		t.Skip("helper process for TestDaemonKillRecovery")
	}
	var args []string
	for i, a := range os.Args {
		if a == "--" {
			args = os.Args[i+1:]
			break
		}
	}
	os.Exit(run(args))
}

// daemon is a child typecoind under test control.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	logs *bytes.Buffer
}

func startDaemon(t *testing.T, dir string, extra ...string) *daemon {
	t.Helper()
	addrFile := filepath.Join(dir, "http.addr")
	_ = os.Remove(addrFile)
	args := []string{"-test.run=TestDaemonHelper", "--",
		"-datadir", dir, "-http", "127.0.0.1:0", "-listen", ""}
	args = append(args, extra...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TYPECOIND_HELPER=1")
	logs := &bytes.Buffer{}
	cmd.Stdout = logs
	cmd.Stderr = logs
	if err := cmd.Start(); err != nil {
		t.Fatalf("start daemon: %v", err)
	}
	d := &daemon{cmd: cmd, logs: logs}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			_ = d.cmd.Process.Kill()
			_, _ = d.cmd.Process.Wait()
		}
	})
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			d.addr = string(raw)
			if _, _, err := d.get(t, "/status"); err == nil {
				return d
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("daemon never came up; logs:\n%s", logs.String())
	return nil
}

func (d *daemon) get(t *testing.T, path string) (int, map[string]interface{}, error) {
	t.Helper()
	resp, err := http.Get("http://" + d.addr + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	raw, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(raw, &out); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("bad JSON %q: %w", raw, err)
	}
	return resp.StatusCode, out, nil
}

func (d *daemon) post(t *testing.T, path string, body interface{}) map[string]interface{} {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+d.addr+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: bad JSON: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d %v\nlogs:\n%s", path, resp.StatusCode, out, d.logs.String())
	}
	return out
}

func (d *daemon) status(t *testing.T) map[string]interface{} {
	t.Helper()
	code, out, err := d.get(t, "/status")
	if err != nil || code != http.StatusOK {
		t.Fatalf("GET /status: code=%d err=%v", code, err)
	}
	return out
}

func TestDaemonKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	dir := t.TempDir()

	// Phase 1: run a real daemon, build up state, SIGKILL it.
	d := startDaemon(t, dir)
	maturity := chain.RegTestParams().CoinbaseMaturity
	d.post(t, "/mine", map[string]int{"blocks": maturity + 2})
	principal := d.post(t, "/newkey", nil)["principal"].(string)
	d.post(t, "/send", map[string]interface{}{"to": principal, "amount": 1_500_000})
	d.post(t, "/mine", map[string]int{"blocks": 1}) // confirm the send

	before := d.status(t)
	_, beforeBal, err := d.get(t, "/balance")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = d.cmd.Wait()

	// Phase 2: restart on the same datadir. The startup audit (-audit
	// defaults to true) must pass or the daemon exits and startDaemon
	// times out.
	d2 := startDaemon(t, dir)
	after := d2.status(t)
	for _, field := range []string{"height", "tip", "utxoSize"} {
		if before[field] != after[field] {
			t.Errorf("%s: before kill %v, after restart %v\nlogs:\n%s",
				field, before[field], after[field], d2.logs.String())
		}
	}
	_, afterBal, err := d2.get(t, "/balance")
	if err != nil {
		t.Fatal(err)
	}
	if beforeBal["satoshi"] != afterBal["satoshi"] {
		t.Errorf("balance: before kill %v, after restart %v", beforeBal["satoshi"], afterBal["satoshi"])
	}
	if code, out, err := d2.get(t, "/audit"); err != nil || code != http.StatusOK {
		t.Fatalf("GET /audit: code=%d out=%v err=%v", code, out, err)
	}

	// The recovered node is live: it can mine on top of the restored tip
	// and accept new wallet spends.
	d2.post(t, "/mine", map[string]int{"blocks": 1})
	if got := d2.status(t)["height"].(float64); got != before["height"].(float64)+1 {
		t.Fatalf("mine after recovery: height %v", got)
	}
	d2.post(t, "/send", map[string]interface{}{"to": principal, "amount": 1_000_000})
	if got := d2.status(t)["mempool"].(float64); got != 1 {
		t.Fatalf("mempool size %v after send", got)
	}

	// Phase 3: SIGTERM → graceful shutdown (exit 0) that snapshots the
	// mempool; the next start restores the unconfirmed transaction.
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d2.cmd.Wait(); err != nil {
		t.Fatalf("graceful shutdown exit: %v\nlogs:\n%s", err, d2.logs.String())
	}

	// The last incarnation runs with the async group-commit pipeline on:
	// same datadir, same state, different durability schedule.
	d3 := startDaemon(t, dir, "-commit-interval", "25ms")
	st3 := d3.status(t)
	if got := st3["mempool"].(float64); got != 1 {
		t.Fatalf("restored mempool size %v, want 1\nlogs:\n%s", got, d3.logs.String())
	}
	if st3["height"].(float64) != before["height"].(float64)+1 {
		t.Fatalf("height after graceful restart: %v", st3["height"])
	}
	// Mine through the pipeline so the watermark has a marked flush to
	// advance past, then shut down gracefully: Flush drains the pipeline
	// before the final metrics snapshot, so the snapshot must show the
	// durability watermark caught up with the tip.
	d3.post(t, "/mine", map[string]int{"blocks": 1})
	if err := d3.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d3.cmd.Wait(); err != nil {
		t.Fatalf("final shutdown exit: %v\nlogs:\n%s", err, d3.logs.String())
	}
	snap, err := os.ReadFile(filepath.Join(dir, "metrics.last"))
	if err != nil {
		t.Fatalf("metrics.last after graceful group-commit shutdown: %v", err)
	}
	tip := snapshotMetric(t, snap, "chain_height")
	if want := before["height"].(float64) + 2; tip != want {
		t.Fatalf("final chain_height = %v, want %v", tip, want)
	}
	if got := snapshotMetric(t, snap, "store_flushed_height"); got != tip {
		t.Fatalf("store_flushed_height = %v after graceful shutdown, want tip %v\nlogs:\n%s",
			got, tip, d3.logs.String())
	}
}

// snapshotMetric extracts one bare-name sample from a metrics.last
// snapshot written at graceful shutdown.
func snapshotMetric(t *testing.T, snap []byte, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(snap), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metrics.last %s: bad value %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("metric %q missing from metrics.last:\n%.500s", name, snap)
	return 0
}
