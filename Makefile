GO ?= go

# Packages whose correctness depends on concurrency (the parallel block
# validation pipeline, the p2p node and its fault simulator, the ledger
# whose mutex chain subscribers, p2p and RPC all take, the global basis
# whose immutable layers the ledger, batch servers and verifiers read
# without a lock, the script engine and the signer the connect worker
# pool and the wallet call) get a dedicated -race pass.
RACE_PKGS = ./internal/chain/... ./internal/mempool/... ./internal/sigcache/... ./internal/wire/... ./internal/miner/... ./internal/p2p/... ./internal/netsim/... ./internal/clock/... ./internal/store/... ./internal/banscore/... ./internal/telemetry/... ./internal/index/... ./internal/crashpoint/... ./internal/typecoin/... ./internal/logic/... ./internal/lf/... ./internal/batch/... ./internal/script/... ./internal/wallet/... ./internal/bkey/...

# Native fuzz targets over the three attacker-facing decoders. Each runs
# for a short smoke budget; override FUZZTIME for longer campaigns.
FUZZTIME ?= 10s

.PHONY: build test race vet check bench-module chaos bench bench-json bench-diff metrics-smoke fuzz-smoke sim recovery byzantine index-load latency-report

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

check: vet build test race bench-module chaos

# benchmark/ is its own module, so the root ./... patterns never compile
# it: vet and test it explicitly, or an internal-API change breaks the
# repo's benchmark unseen.
bench-module:
	$(GO) vet -C benchmark ./... && $(GO) test -C benchmark -count=1 ./...

# Hostile-disk suite: the crash-point explorer (every physical
# write/fsync boundary of the sync and compaction paths must recover)
# plus the netsim chaos scenario (sticky write EIOs under a partition:
# degrade to read-only, keep serving, reconverge) across five seeds.
# FAULT_SEED=<n> replays a single chaos seed.
chaos:
	$(GO) test ./internal/crashpoint/ -count=1 -v
	$(GO) test ./internal/chain/ -run TestCrashPoints -count=1 -v
	$(GO) test ./internal/netsim/ -race -run TestChaosStoreFaults -count=1 -v

bench:
	$(GO) test -run xxx -bench . -benchmem .

# Micro-benchmark snapshot, a local probe (benchmark/ is where claims
# are made): run the root benchmark suite in three separate passes and
# record each benchmark's fastest (ns/op, B/op, allocs/op) as JSON.
# Separate passes space a benchmark's samples minutes apart, which
# suppresses scheduler-noise bursts that -count=N's back-to-back runs
# share. The snapshot lands in the git-ignored .bench_build/.
BENCH_JSON ?= .bench_build/bench.json
bench-json:
	mkdir -p $(dir $(BENCH_JSON))
	{ $(GO) test -run xxx -bench . -benchmem .; \
	  $(GO) test -run xxx -bench . -benchmem .; \
	  $(GO) test -run xxx -bench . -benchmem .; } | $(GO) run ./cmd/benchjson -out $(BENCH_JSON)

# Diff the snapshot against an untracked baseline (say, bench-json run
# on the parent commit and copied aside): per-series ns/op and allocs/op
# deltas, failing on >20% ns/op regressions in any series present on
# both sides (after normalizing out host drift, the median shift across
# shared series). BENCH_BASELINE has no default.
bench-diff:
	@test -n "$(BENCH_BASELINE)" || { echo "bench-diff: set BENCH_BASELINE=<snapshot.json>"; exit 2; }
	$(GO) run ./cmd/benchjson -baseline $(BENCH_BASELINE) -current $(BENCH_JSON)

# Observability smoke test: boots a real daemon, scrapes /metrics, and
# fails on malformed exposition output or missing metric families.
metrics-smoke:
	$(GO) test ./cmd/typecoind/ -run TestMetricsSmoke -count=1 -v

fuzz-smoke:
	$(GO) test ./internal/wire/ -fuzz FuzzMsgTxDeserialize -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire/ -fuzz FuzzReadMessage -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire/ -fuzz FuzzMsgHeadersDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire/ -fuzz FuzzLocatorDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire/ -fuzz FuzzTraceContextDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/proof/ -fuzz FuzzProofDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/logic/ -fuzz FuzzLogicDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store/ -fuzz FuzzKVRecordDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/index/ -fuzz FuzzIndexQuery -fuzztime $(FUZZTIME)

# Crash-recovery suite: store-level torn-write tests, the fault-injected
# full-stack recovery test, the SIGKILL daemon end-to-end tests (chain
# state and the chain index), and the ledger's reopen-time marker rule.
recovery:
	$(GO) test ./internal/store/ -count=1 -v
	$(GO) test ./internal/chain/ -run 'TestReopen|TestReorgAfterReopen|TestIntraBlockSpendDisconnect|TestStoreFailure|TestOpenRejectsTampered' -count=1 -v
	$(GO) test ./cmd/typecoind/ -run 'TestCrash|TestMempoolPersist|TestDaemonKillRecovery|TestDaemonKillIndexRecovery' -count=1 -v
	$(GO) test ./internal/index/ -run TestIndexCrashMidCommitRecovers -count=1 -v
	$(GO) test ./internal/typecoin/ -run 'TestLedgerMarkers|TestLedgerReopen' -count=1 -v
	$(GO) test ./internal/p2p/ -run TestSimRestartResync -count=1 -v

# The adversarial network-simulation suite. SIM_SEED=<n> replays a
# single seed; otherwise the built-in seed set runs.
sim:
	$(GO) test ./internal/p2p/ -race -run TestSim -count=1 -v

# Chain-index proof suite under the race detector: the seeded
# reorg-consistency property (INDEX_SEED=<n> replays one seed) and the
# many-client query/subscription load test.
index-load:
	$(GO) test ./internal/index/ -race -run 'TestReorgConsistencyProperty|TestIndexManyClientLoad' -count=1 -v

# Cluster-wide commitment-latency budget: a 10-node netsim mesh under
# sustained wallet load, every span merged into cluster timelines and
# reduced to per-stage p50/p99 (printed with -v), plus the Byzantine
# slow-relay variant showing which stage an attacker inflates. The
# report is deterministic: SIM_SEED=<n> replays one seed bit-for-bit.
latency-report:
	$(GO) test ./internal/netsim/ -run 'TestLatencyBudget' -count=1 -v

# Byzantine-actor scenarios: seven hostile peer classes (flooder,
# garbage-sender, inv-spammer, block-withholder, equivocator, and the
# headers-first skeleton withholder/corrupter) attack an honest ring
# across five seeds. SIM_SEED=<n> replays a single seed.
byzantine:
	$(GO) test ./internal/netsim/ -race -run TestByzantineScenarios -count=1 -v
