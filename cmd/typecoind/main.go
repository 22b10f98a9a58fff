// Command typecoind runs a Typecoin node: a Bitcoin-compatible regtest
// chain with mempool, miner, wallet, TCP peer-to-peer networking and a
// Typecoin ledger, controlled over a small JSON/HTTP API.
//
//	typecoind -listen :18444 -http :18332 [-connect host:port] [-datadir dir]
//
// With -datadir the node is persistent: chain, wallet, ledger and
// mempool state live in a crash-safe store under the directory, and a
// restart (clean or not) resumes from the recorded tip — peers then
// supply only the blocks mined since. Without -datadir everything is
// held in memory and dies with the process.
//
// On SIGINT/SIGTERM the node shuts down gracefully: the HTTP API and
// p2p layer stop, the mempool is snapshotted, and the store is flushed
// and closed. A crash (SIGKILL, power loss) skips all of that and is
// recovered on the next start by journal replay, a tip integrity check
// and (unless -audit=false) a from-genesis UTXO and ledger audit.
//
// Endpoints (all JSON):
//
//	GET  /status             chain height, tip, sync progress, peers, mempool
//	POST /mine               {"blocks": n} mine n blocks to the wallet
//	GET  /balance            wallet balance in satoshi
//	POST /newkey             generate a key; returns the principal
//	POST /send               {"to": principal, "amount": satoshi}
//	GET  /block/{height}     block summary
//	GET  /typecoin/{outpoint} resolve a typed output ("txid:n")
//	GET  /audit              run the full consistency audit now
//	GET  /index/...          chain index: address history, outpoint
//	                         spends, principal activity, bulk sync and
//	                         streaming subscriptions (see internal/index)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"typecoin/internal/bkey"
	"typecoin/internal/chain"
	"typecoin/internal/chainhash"
	"typecoin/internal/clock"
	"typecoin/internal/index"
	"typecoin/internal/mempool"
	"typecoin/internal/miner"
	"typecoin/internal/p2p"
	"typecoin/internal/script"
	"typecoin/internal/sigcache"
	"typecoin/internal/store"
	"typecoin/internal/surface"
	"typecoin/internal/telemetry"
	"typecoin/internal/typecoin"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

type server struct {
	chain  *chain.Chain
	pool   *mempool.Pool
	miner  *miner.Miner
	wallet *wallet.Wallet
	node   *p2p.Node
	ledger *typecoin.Ledger
	payout bkey.Principal
	start  time.Time
	// health is the store's retry/degradation wrapper; nil when the
	// store runs unwrapped (-store-retries=0). Mining and /status
	// consult it so a degraded node refuses new write obligations.
	health *store.Retry
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is main minus os.Exit, so the recovery tests can drive a real
// daemon as a helper process.
func run(args []string) int {
	fs := flag.NewFlagSet("typecoind", flag.ExitOnError)
	listen := fs.String("listen", ":18444", "p2p TCP listen address (empty disables)")
	httpAddr := fs.String("http", ":18332", "HTTP control address")
	connect := fs.String("connect", "", "comma-separated peers to dial")
	minConf := fs.Int("minconf", 1, "typecoin confirmation depth")
	datadir := fs.String("datadir", "", "data directory for persistent state (empty = in-memory)")
	syncEvery := fs.Int("sync-every", 0, "≥ 1: fsync the journal on every commit; 0: only on flush/shutdown")
	storeRetries := fs.Int("store-retries", 5, "write attempts (with capped backoff) before the store degrades to read-only; 0 runs the store unwrapped")
	degradedOK := fs.Bool("degraded-ok", true, "keep serving reads when the store degrades; with =false the daemon shuts down instead")
	audit := fs.Bool("audit", true, "run the from-genesis consistency audit on startup")
	maxPeers := fs.Int("maxpeers", 0, "max inbound connections (0 = default)")
	syncWindow := fs.Int("syncwindow", 0, "in-flight body downloads per peer during headers-first sync (0 = default)")
	banThreshold := fs.Int("banthreshold", 0, "misbehavior score that bans a peer (0 = default)")
	banDuration := fs.Duration("banduration", 0, "how long a triggered ban lasts (0 = default)")
	traceSpans := fs.Int("trace-spans", telemetry.DefaultSpanCapacity, "commitment-latency spans kept in memory, served at /debug/spans (0 disables span tracing)")
	loglevel := fs.String("loglevel", "info", "log verbosity: debug, info, warn, error")
	logjson := fs.Bool("logjson", false, "emit logs as JSON lines instead of text")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	level, err := telemetry.ParseLevel(*loglevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "typecoind: %v\n", err)
		return 2
	}
	base := telemetry.NewLogger(os.Stderr, level, *logjson)
	logMain := telemetry.Component(base, "daemon")
	logStore := telemetry.Component(base, "store")
	logChain := telemetry.Component(base, "chain")
	logPool := telemetry.Component(base, "mempool")

	// Storage: file-backed under -datadir, in-memory otherwise.
	var st store.Store
	var fileStore *store.File
	if *datadir != "" {
		fileStore, err = store.OpenFile(*datadir)
		if err != nil {
			logStore.Error("open store failed", "dir", *datadir, "err", err)
			return 1
		}
		st = fileStore
		if n := fileStore.TruncatedBytes(); n > 0 {
			logStore.Warn("recovery truncated torn journal tail", "bytes", n)
		}
		if *syncEvery > 0 {
			fileStore.SetSyncEvery(true)
		}
	} else {
		st = store.NewMem()
	}

	// Health wrapper: transparent retries for transient write errors,
	// degraded-readonly instead of a dead process for persistent ones.
	var retryStore *store.Retry
	if *storeRetries > 0 {
		retryStore = store.NewRetry(st, store.RetryConfig{Attempts: *storeRetries})
		st = retryStore
	}

	params := chain.RegTestParams()
	ch, err := chain.Open(chain.Config{
		Params:   params,
		Clock:    clock.System{},
		SigCache: sigcache.New(sigcache.DefaultCapacity),
		Store:    st,
	})
	if err != nil {
		logChain.Error("open chain failed", "err", err)
		return 1
	}
	logChain.Info("chain opened", "height", ch.BestHeight(), "tip", ch.BestHash().String())

	// Chain index: subscribes to the chain's persist hook so its rows
	// ride every connect/disconnect batch, and catches up (or rebuilds)
	// here if the store predates the index. Must open before any block
	// is processed.
	ix, err := index.Open(ch)
	if err != nil {
		logChain.Error("open index failed", "err", err)
		return 1
	}

	pool := mempool.New(ch, -1)
	pool.SetOnAccept(ix.PublishTx)

	// Wallet and ledger: persistent variants share the chain's store and
	// ride its commit batches.
	var w *wallet.Wallet
	var ledger *typecoin.Ledger
	if *datadir != "" {
		w, err = wallet.Open(ch, nil)
		if err != nil {
			logMain.Error("open wallet failed", "err", err)
			return 1
		}
		ledger, err = typecoin.OpenLedger(ch, *minConf)
		if err != nil {
			logMain.Error("open ledger failed", "err", err)
			return 1
		}
	} else {
		w = wallet.New(ch, nil)
		ledger = typecoin.NewLedger(ch, *minConf)
	}

	// Reuse the recovered payout key when there is one.
	var payout bkey.Principal
	if ps := w.Principals(); len(ps) > 0 {
		payout = ps[0]
	} else if payout, err = w.NewKey(); err != nil {
		logMain.Error("create key failed", "err", err)
		return 1
	}

	// Reload the mempool snapshot, revalidating against the recovered
	// tip; surviving transactions re-lock their wallet inputs.
	if *datadir != "" {
		kept, dropped, err := pool.Restore(w.ObserveUnconfirmed)
		if err != nil {
			logPool.Error("mempool restore failed", "err", err)
			return 1
		}
		if kept > 0 || dropped > 0 {
			logPool.Info("mempool restored", "kept", kept, "dropped", dropped)
		}
	}

	if *audit {
		if err := ch.AuditFromGenesis(); err != nil {
			logChain.Error("startup audit failed", "err", err)
			return 1
		}
		if err := ledger.AuditAffine(); err != nil {
			logMain.Error("startup ledger audit failed", "err", err)
			return 1
		}
		logMain.Info("startup audit passed: chain and ledger consistent")
	}

	m := miner.New(ch, pool, clock.System{})
	node := p2p.NewNode(ch, pool, telemetry.Component(base, "p2p"))
	node.SetLedger(ledger)
	if *maxPeers > 0 || *banThreshold > 0 || *banDuration > 0 || *syncWindow > 0 {
		pol := p2p.DefaultPolicy()
		if *maxPeers > 0 {
			pol.MaxInbound = *maxPeers
		}
		if *banThreshold > 0 {
			pol.BanThreshold = int32(*banThreshold)
		}
		if *banDuration > 0 {
			pol.BanDuration = *banDuration
		}
		if *syncWindow > 0 {
			pol.SyncWindow = *syncWindow
		}
		node.SetPolicy(pol)
	}

	// Telemetry: one registry and one block-lifecycle tracer shared by
	// every subsystem, exposed at /metrics and /debug/events below.
	// Registered before Listen/Dial so no peer event is missed.
	startTime := time.Now()
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(telemetry.DefaultTraceCapacity, clock.System{})
	ch.SetTelemetry(reg, tracer)
	pool.SetTelemetry(reg, tracer)
	m.SetTelemetry(reg)
	node.SetTelemetry(reg, tracer)
	ix.SetTelemetry(reg, tracer)
	// Commitment-latency spans: a bounded store beside the tracer,
	// wired through every stage of the commitment pipeline and exported
	// as per-stage histograms plus the /debug/spans API.
	var spans *telemetry.SpanStore
	if *traceSpans > 0 {
		spans = telemetry.NewSpanStore(*traceSpans, clock.System{})
		spans.SetOrigin(originID(*listen, *httpAddr))
		telemetry.RegisterSpanMetrics(reg, spans)
		ch.SetSpans(spans)
		pool.SetSpans(spans)
		m.SetSpans(spans)
		node.SetSpans(spans)
		ix.SetSpans(spans)
	}
	if fileStore != nil {
		f := fileStore
		reg.GaugeFunc("store_journal_bytes", "Size of the write-ahead journal on disk.", func() float64 {
			return float64(f.JournalBytes())
		})
		reg.GaugeFunc("store_blocklog_bytes", "Size of the block log on disk.", func() float64 {
			return float64(f.BlockLogBytes())
		})
		reg.CounterFunc("store_compactions_total", "Journal compactions performed.", func() float64 {
			return float64(f.Compactions())
		})
	}
	// storeDead delivers the degradation cause when -degraded-ok=false
	// turns a degraded store into a shutdown.
	storeDead := make(chan error, 1)
	if retryStore != nil {
		rs := retryStore
		reg.GaugeFunc("store_health",
			"Store health state (0 healthy, 1 recovering, 2 degraded-readonly).",
			func() float64 {
				h, _ := rs.Health()
				return float64(h)
			})
		reg.CounterFunc("store_retries_total", "Write attempts beyond each first try.", func() float64 {
			return float64(rs.Retries())
		})
		reg.CounterFunc("store_degrades_total", "Transitions into degraded-readonly.", func() float64 {
			return float64(rs.Degrades())
		})
		faults := reg.CounterVec("store_faults_total",
			"Storage faults observed, by operation and kind.", "op", "kind")
		rs.SetOnFault(func(op string, err error) {
			faults.With(op, faultKind(err)).Inc()
			tracer.Record(telemetry.EvStoreFault, op, err.Error())
		})
		rs.SetOnState(func(h store.Health, cause error) {
			switch h {
			case store.HealthDegraded:
				msg := "persistent write failure"
				if cause != nil {
					msg = cause.Error()
				}
				logStore.Error("store degraded to read-only", "cause", msg)
				tracer.Record(telemetry.EvStoreDegraded, "store", msg)
				if !*degradedOK {
					select {
					case storeDead <- cause:
					default:
					}
				}
			case store.HealthRecovering:
				logStore.Warn("store recovering: probe succeeded, awaiting first write")
				tracer.Record(telemetry.EvStoreRecovered, "store", "recovering")
			case store.HealthHealthy:
				logStore.Info("store healthy again")
				tracer.Record(telemetry.EvStoreRecovered, "store", "healthy")
			}
		})
		// A degraded node stops taking on mempool obligations while it
		// keeps answering queries.
		pool.SetGate(func() bool {
			h, _ := rs.Health()
			return h != store.HealthDegraded
		})
	}
	reg.GaugeFunc("process_uptime_seconds", "Seconds since the daemon started.", func() float64 {
		return time.Since(startTime).Seconds()
	})
	reg.GaugeFunc("process_goroutines", "Live goroutines.", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	reg.GaugeFunc("process_heap_bytes", "Bytes of allocated heap objects.", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	})

	if *listen != "" {
		addr, err := node.Listen(*listen)
		if err != nil {
			logMain.Error("p2p listen failed", "err", err)
			return 1
		}
		logMain.Info("p2p listening", "addr", addr)
		if *datadir != "" {
			// Like http.addr: record the resolved p2p address so tooling
			// can point -connect at a daemon with a kernel-assigned port.
			p2pFile := filepath.Join(*datadir, "p2p.addr")
			if err := os.WriteFile(p2pFile, []byte(addr), 0o644); err != nil {
				logMain.Warn("address file write failed", "path", p2pFile, "err", err)
			}
		}
	}
	for _, peer := range strings.Split(*connect, ",") {
		if peer == "" {
			continue
		}
		if err := node.Dial(peer); err != nil {
			logMain.Warn("dial failed", "peer", peer, "err", err)
		} else {
			logMain.Info("connected", "peer", peer)
		}
	}

	s := &server{chain: ch, pool: pool, miner: m, wallet: w, node: node,
		ledger: ledger, payout: payout, start: startTime, health: retryStore}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /status", s.handleStatus)
	mux.HandleFunc("POST /mine", s.handleMine)
	mux.HandleFunc("GET /balance", s.handleBalance)
	mux.HandleFunc("POST /newkey", s.handleNewKey)
	mux.HandleFunc("POST /send", s.handleSend)
	mux.HandleFunc("GET /block/", s.handleBlock)
	mux.HandleFunc("GET /typecoin/", s.handleTypecoin)
	mux.HandleFunc("GET /audit", s.handleAudit)
	mux.Handle("/index/", http.StripPrefix("/index", ix.Handler()))
	mux.Handle("GET /metrics", reg.Handler())
	mux.Handle("GET /debug/events", tracer.Handler())
	mux.Handle("GET /debug/spans", spans.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		logMain.Error("http listen failed", "err", err)
		return 1
	}
	logMain.Info("http listening", "addr", ln.Addr().String(), "principal", payout.String())
	if *datadir != "" {
		// Record the resolved address (ports may be kernel-assigned) so
		// tooling and tests can find a daemon by its data directory.
		addrFile := filepath.Join(*datadir, "http.addr")
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			logMain.Warn("address file write failed", "path", addrFile, "err", err)
		}
	}

	httpSrv := &http.Server{Handler: mux}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	failed := false
	select {
	case <-ctx.Done():
		logMain.Info("shutting down")
	case err := <-httpErr:
		logMain.Error("http server failed", "err", err)
		return 1
	case cause := <-storeDead:
		logMain.Error("store degraded with -degraded-ok=false, shutting down", "cause", cause)
		failed = true
	}

	// Graceful shutdown: stop taking work (HTTP, then p2p), snapshot the
	// mempool, then flush and close the store. Flush errors are real data
	// loss and fail the exit status.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logMain.Warn("http shutdown failed", "err", err)
	}
	node.Stop()
	if err := pool.Persist(); err != nil {
		logPool.Error("persist mempool failed", "err", err)
		failed = true
	}
	if err := st.Flush(); err != nil {
		logStore.Error("flush store failed", "err", err)
		failed = true
	}
	if *datadir != "" {
		// Final metrics snapshot: the last observed state of every series,
		// for post-mortem diffing against the next run's /metrics.
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err == nil {
			snapPath := filepath.Join(*datadir, "metrics.last")
			if err := os.WriteFile(snapPath, buf.Bytes(), 0o644); err != nil {
				logMain.Warn("metrics snapshot write failed", "path", snapPath, "err", err)
			}
		}
	}
	if err := st.Close(); err != nil {
		logStore.Error("close store failed", "err", err)
		failed = true
	}
	if failed {
		return 1
	}
	logMain.Info("shutdown complete")
	return 0
}

// faultKind maps a storage error onto its store_faults_total kind label.
func faultKind(err error) string {
	switch {
	case errors.Is(err, store.ErrNoSpace), errors.Is(err, syscall.ENOSPC):
		return "enospc"
	case errors.Is(err, store.ErrCorrupt):
		return "corrupt"
	case errors.Is(err, store.ErrDegraded):
		return "degraded"
	case errors.Is(err, store.ErrClosed):
		return "closed"
	case errors.Is(err, store.ErrIO), errors.Is(err, syscall.EIO):
		return "eio"
	default:
		return "other"
	}
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	// An encode error here means the client went away mid-response;
	// there is nothing useful to do about it.
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	w.WriteHeader(code)
	writeJSON(w, map[string]string{"error": err.Error()})
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	sync := s.node.SyncStatus()
	status := map[string]interface{}{
		"height":       s.chain.BestHeight(),
		"tip":          s.chain.BestHash().String(),
		"peers":        s.node.PeerCount(),
		"mempool":      s.pool.Size(),
		"mempoolBytes": s.pool.Bytes(),
		"utxoSize":     s.chain.UtxoSize(),
		// Headers-first sync progress: the skeleton tip runs ahead of
		// the connected tip while bodies download in parallel windows.
		"headerHeight":   sync.HeaderHeight,
		"inflightBodies": sync.InflightBodies,
		"downloadPeers":  sync.DownloadPeers,
		"parkedBodies":   sync.ParkedBodies,
		"syncing":        sync.HeaderHeight > sync.Height,
	}
	if s.health != nil {
		h, cause := s.health.Health()
		status["storeHealth"] = h.String()
		if cause != nil {
			status["storeHealthCause"] = cause.Error()
		}
		status["storeRetriesTotal"] = s.health.Retries()
		status["storeDegradesTotal"] = s.health.Degrades()
	} else {
		status["storeHealth"] = store.HealthHealthy.String()
	}
	if !s.start.IsZero() {
		status["uptimeSeconds"] = time.Since(s.start).Seconds()
	}
	if blk, ok := s.chain.BlockAtHeight(s.chain.BestHeight()); ok {
		status["tipAgeSeconds"] = time.Since(blk.Header.Timestamp).Seconds()
	}
	writeJSON(w, status)
}

func (s *server) handleMine(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Blocks int `json:"blocks"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Blocks <= 0 {
		req.Blocks = 1
	}
	// A degraded store cannot persist a connect; refuse to mine rather
	// than fail partway through the batch.
	if s.health != nil {
		if h, cause := s.health.Health(); h == store.HealthDegraded {
			writeErr(w, http.StatusServiceUnavailable,
				fmt.Errorf("store degraded-readonly, mining disabled: %v", cause))
			return
		}
	}
	var hashes []string
	for i := 0; i < req.Blocks; i++ {
		blk, _, err := s.miner.Mine(s.payout)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		s.node.BroadcastBlock(blk)
		hashes = append(hashes, blk.BlockHash().String())
	}
	writeJSON(w, map[string]interface{}{"blocks": hashes, "height": s.chain.BestHeight()})
}

func (s *server) handleBalance(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]int64{"satoshi": s.wallet.Balance()})
}

func (s *server) handleNewKey(w http.ResponseWriter, r *http.Request) {
	p, err := s.wallet.NewKey()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, map[string]string{"principal": p.String()})
}

func (s *server) handleSend(w http.ResponseWriter, r *http.Request) {
	var req struct {
		To     string `json:"to"`
		Amount int64  `json:"amount"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	to, err := bkey.ParsePrincipal(req.To)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	tx, err := s.wallet.Build([]wallet.Output{
		{Value: req.Amount, PkScript: script.PayToPubKeyHash(to)},
	}, wallet.BuildOptions{})
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := s.node.BroadcastTx(tx); err != nil {
		s.wallet.Unlock(tx)
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, map[string]string{"txid": tx.TxHash().String()})
}

func (s *server) handleBlock(w http.ResponseWriter, r *http.Request) {
	hStr := strings.TrimPrefix(r.URL.Path, "/block/")
	height, err := strconv.Atoi(hStr)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad height %q", hStr))
		return
	}
	blk, ok := s.chain.BlockAtHeight(height)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no block at height %d", height))
		return
	}
	txids := make([]string, len(blk.Transactions))
	for i, tx := range blk.Transactions {
		txids[i] = tx.TxHash().String()
	}
	writeJSON(w, map[string]interface{}{
		"hash":      blk.BlockHash().String(),
		"time":      blk.Header.Timestamp,
		"txids":     txids,
		"numTxs":    len(blk.Transactions),
		"prevBlock": blk.Header.PrevBlock.String(),
	})
}

func (s *server) handleTypecoin(w http.ResponseWriter, r *http.Request) {
	opStr := strings.TrimPrefix(r.URL.Path, "/typecoin/")
	parts := strings.Split(opStr, ":")
	if len(parts) != 2 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("want txid:n, got %q", opStr))
		return
	}
	h, err := chainhash.NewHashFromStr(parts[0])
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	idx, err := strconv.ParseUint(parts[1], 10, 32)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	op := wire.OutPoint{Hash: h, Index: uint32(idx)}
	prop, ok := s.ledger.ResolveOutput(op)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no typed output at %s", op))
		return
	}
	writeJSON(w, map[string]string{
		"outpoint": op.String(),
		"type":     surface.PrintProp(prop),
	})
}

// handleAudit runs the full consistency audit on demand: the chain's
// from-genesis UTXO/spend-journal replay plus the ledger's affine audit.
func (s *server) handleAudit(w http.ResponseWriter, r *http.Request) {
	if err := s.chain.AuditFromGenesis(); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if err := s.ledger.AuditAffine(); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, map[string]bool{"ok": true})
}

// originID derives the opaque node identity stamped on locally created
// latency spans and propagated in wire trace contexts. Any value that
// distinguishes nodes of one deployment will do; the listen addresses
// are what an operator configures distinctly per node.
func originID(listen, httpAddr string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(listen))
	h.Write([]byte{0})
	h.Write([]byte(httpAddr))
	id := h.Sum64()
	if id == 0 {
		id = 1 // 0 means "unset" in hop adoption
	}
	return id
}
