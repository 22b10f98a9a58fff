GO ?= go

# Packages whose correctness depends on concurrency (the parallel block
# validation pipeline, the p2p node and its fault simulator, the ledger
# whose mutex chain subscribers, p2p and RPC all take, the global basis
# whose immutable layers the ledger, batch servers and verifiers read
# without a lock, the script engine and the signer that par's helpers
# run for block connect, mempool admission and the wallet, and par
# itself, and the node assembly whose Close must stop every goroutine it
# started) get a dedicated -race pass.
RACE_PKGS = ./internal/chain/... ./internal/mempool/... ./internal/sigcache/... ./internal/wire/... ./internal/miner/... ./internal/p2p/... ./internal/netsim/... ./internal/clock/... ./internal/store/... ./internal/banscore/... ./internal/telemetry/... ./internal/index/... ./internal/crashpoint/... ./internal/typecoin/... ./internal/logic/... ./internal/lf/... ./internal/batch/... ./internal/script/... ./internal/wallet/... ./internal/bkey/... ./internal/par/... ./internal/node/...

# Native fuzz targets over the attacker-facing decoders (the overlay
# object codec among them), plus the table signature verifier against
# crypto/ecdsa and the signature DER codec against encoding/asn1. Each
# runs for a short smoke budget; override FUZZTIME for longer campaigns.
FUZZTIME ?= 10s

.PHONY: build test race vet check portable bench-module chaos examples bench verify-probe metrics-smoke fuzz-smoke sim sim-sweep sim-loaded recovery byzantine index-load latency-report lines

build:
	$(GO) build ./...

# vet also fails on any Go file gofmt would change, the benchmark
# module's included.
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

check: vet build test race portable bench-module chaos examples

# On amd64 internal/bkey multiplies field elements in Go's assembly; on
# every other GOARCH, and under the purego tag, in fiat's Go alone. Test
# the fiat build here, and vet an arm64 build (cross-compiled from
# GOROOT) so that nothing only the amd64 files define goes missing.
portable:
	$(GO) test -tags purego ./internal/bkey/...
	GOARCH=arm64 $(GO) vet ./internal/bkey/...

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

# The runnable programs. Each must exit 0 and end on the line it has
# always ended on: their wallets draw seeded entropy and their clocks are
# simulated, so that line is fixed. Wall-time figures are masked before
# the comparison, since tcbench ends on one.
EXPECT_LAST = expect() { \
	out="$$($(GO) run $$1)" || { echo "$$1: exit status $$?"; return 1; }; \
	last="$$(printf '%s\n' "$$out" | tail -n 1 | sed -E 's/[0-9.]+(µs|ms|s)\b/…/g')"; \
	if [ "$$last" != "$$2" ]; then printf '%s ends on\n  %s\nnot on\n  %s\n' "$$1" "$$last" "$$2"; return 1; fi; \
	echo "ok   $$1"; }; expect

examples:
	@$(EXPECT_LAST) ./examples/quickstart '    typecoin: claimed output e3947707db0a9fda4b6e198c56ea9e9e99f789b16092b15cd9687e1aa9425e12:0 already spent by ddd5ad2437ca4646759985427789a19c15dbe961a2378cfe4c111be6c4daf936'
	@$(EXPECT_LAST) ./examples/newcoin '    typecoin: claimed output type does not match: output has type b85785a07836c3709efbaa99194b8f233eb607599f4645b9a775566ec1583180.coin 42, claimed b85785a07836c3709efbaa99194b8f233eb607599f4645b9a775566ec1583180.coin 1000000'
	@$(EXPECT_LAST) ./examples/options 'Without the fallback, the option token would have been spoiled (Section 5).'
	@$(EXPECT_LAST) ./examples/escrowprize '    typecoin: input does not name a known typecoin output: c4cd9a8864f1cb0ed7807055ebbc62ba7f6296628ef2f19e55d257d87a931715:0'
	@$(EXPECT_LAST) ./cmd/tcregtest 'Ledger state is consistent across the network. Done.'
	@$(EXPECT_LAST) './cmd/tcbench -exp all' '(e6 in …)'

bench:
	$(GO) test -run xxx -bench . -benchmem .

# The signature probes DESIGN.md ("Signature verification") quotes:
# warm, many-keys and cold verifications, a key's table build, a
# signature with its serialization, and a signature parse, on one core,
# five runs each; then the hand-off of two verifications to a par
# helper ("Validation pipeline"), on two cores.
verify-probe:
	$(GO) test -run xxx -bench 'Verify|Build|Sign|Parse' -cpu 1 -count 5 ./internal/bkey/
	$(GO) test -run xxx -bench DoTwoVerifies -cpu 2 -count 5 ./internal/par/

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
	$(GO) test ./internal/typecoin/ -fuzz FuzzOverlayObject -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store/ -fuzz FuzzKVRecordDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/index/ -fuzz FuzzIndexQuery -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bkey/ -fuzz FuzzVerifyMatchesStdlib -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bkey/ -fuzz FuzzParseSignatureMatchesASN1 -fuzztime $(FUZZTIME)

# Crash-recovery suite: store-level torn-write tests, the fault-injected
# full-stack recovery test, the SIGKILL daemon end-to-end tests (chain
# state and the chain index), derived state (UTXO table, spend journal,
# wallet coins, index answers) refolded from blocks across restarts and
# datadir upgrades (RESTART_SEED=<n> replays one schedule), and the
# ledger's reopen from its announcement rows alone.
recovery:
	$(GO) test ./internal/store/ -count=1 -v
	$(GO) test ./internal/chain/ -run 'TestReopen|TestReorgAfterReopen|TestIntraBlockSpendDisconnect|TestStoreFailure|TestOpenRejectsTampered|TestReincludedTxRollsBackOnlyWhatItApplied|TestDuplicateCoinbaseRejected' -count=1 -v
	$(GO) test ./cmd/typecoind/ -run 'TestCrash|TestMempoolPersist|TestDaemonKillRecovery|TestDaemonKillIndexRecovery' -count=1 -v
	$(GO) test ./internal/index/ -run 'TestIndexCrashMidCommitRecovers|TestDerivedStateSurvivesRestart|TestOpenDropsRetiredFamilies' -count=1 -v
	$(GO) test ./internal/typecoin/ -run 'TestLedgerWritesOnlyAnnouncements|TestLedgerMarkersLateAnnounceSameBlock|TestLedgerReopen' -count=1 -v
	$(GO) test ./internal/p2p/ -run TestSimRestartResync -count=1 -v

# The adversarial network-simulation suite. SIM_SEED=<n> replays a
# single seed; otherwise the built-in seed set runs.
sim:
	$(GO) test ./internal/p2p/ -race -run TestSim -count=1 -v

# A seed sweep of the partition-heal scenario, not part of tier-1: each
# seed of the range SIM_SEEDS runs once. It prints the failing seeds,
# then p50/p90/max of the ticks best-hash convergence took after the
# heal, over the seeds that passed; it fails if any seed failed.
SIM_SEEDS ?= 1-200
sim-sweep:
	@out="$$(SIM_SEEDS=$(SIM_SEEDS) $(GO) test ./internal/p2p/ -run 'TestSimPartitionHealDoubleSpend$$' -count=1 -v -timeout 60m 2>&1)"; \
	status=$$?; printf '%s\n' "$$out" | grep -E -- '--- FAIL: .*seed=|heal convergence'; exit $$status

# The simulator-driven suites on a busy host: the netsim and p2p tests
# LOADED_RUNS times over, beside two `yes` processes that keep two cores
# busy. The hogs are killed however the loop ends; the first failing
# run fails the target. Their scenarios wait on virtual time only, so
# the load may slow them but must not change a result.
LOADED_RUNS ?= 20
sim-loaded:
	@yes > /dev/null & y1=$$!; yes > /dev/null & y2=$$!; \
	trap 'kill $$y1 $$y2 2>/dev/null; wait' EXIT; trap 'exit 130' INT TERM; \
	for i in $$(seq $(LOADED_RUNS)); do \
		echo "run $$i of $(LOADED_RUNS)"; \
		$(GO) test -count=1 ./internal/netsim/ ./internal/p2p/ || exit 1; \
	done

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

# Byzantine-actor scenarios: eight hostile peer classes (flooder,
# garbage-sender, inv-spammer, block-withholder, equivocator, overlay
# flooder, and the headers-first skeleton withholder/corrupter) attack
# an honest ring across five seeds. SIM_SEED=<n> replays a single seed.
# Beside them, the request-table tests: hand-spoken TCP peers that push
# unsolicited data or overlay objects, stall, owe an orphan's ancestry,
# fill MaxInflight or go silent mid-frame, the redial of a dropped
# outbound peer, notfound answers, and the overlay's fetch by getdata.
byzantine:
	$(GO) test ./internal/netsim/ -race -run TestByzantineScenarios -count=1 -v
	$(GO) test ./internal/p2p/ -race -run 'Unsolicited|Stall|Orphan|Inflight|Silent|Redial|NotFound|Overlay' -count=1 -v

# Non-test, comment-free Go lines per package directory and in total,
# the benchmark module's included: every .go file but *_test.go, less
# blank lines and lines whose first non-blank characters are //.
lines:
	@find . -name '*.go' ! -name '*_test.go' | LC_ALL=C sort | xargs awk ' \
		FNR == 1 { d = FILENAME; sub(/^\.\//, "", d); if (!sub(/\/[^\/]*$$/, "", d)) d = "." } \
		/^[ \t]*$$/ || /^[ \t]*\/\// { next } \
		{ n[d]++; t++ } \
		END { for (d in n) printf "%6d  %s\n", n[d], d | "LC_ALL=C sort -k2"; \
			close("LC_ALL=C sort -k2"); printf "%6d  total\n", t }'
