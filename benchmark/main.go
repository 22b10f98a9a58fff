// Command benchmark is the repository's end-to-end commitment benchmark.
// It composes the stack cmd/typecoind composes, in one process, drives
// one of four workloads from a seed, checks that what was committed is
// correct, and prints every metric by name and unit; the last line of
// standard output is one JSON object for the driver. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// Frozen sizes. A run is fixed work, not fixed time: nine epochs of a
// fixed number of rounds each (per workload, in workloads below), sized so
// that the measured phase takes defaultSeconds on the reference machine;
// -seconds scales the rounds per epoch. Every end-to-end metric is
// computed inside each epoch and combined by perEpoch.
const (
	defaultSeconds = 20
	defaultSeed    = 1
	// A run builds its world from nothing `worlds` times and measures
	// epochsPerWorld epochs of equal work on each: nine epochs in all.
	worlds         = 3
	epochsPerWorld = 3
	// workloadDeadline bounds one workload run; watchdogSlack is added
	// for the whole-process watchdog. Both sit well inside the driver's
	// 180 s cap.
	workloadDeadline = 120 * time.Second
	watchdogSlack    = 20 * time.Second
)

// epoch collects what one epoch of fixed work produced.
type epoch struct {
	wall      time.Duration
	attempted int // client operations attempted
	failed    int // refused or failed; these get no latency sample
	committed int // transactions connected on every node
	blocks    int
	expected  int                  // refusals the negative controls provoked on purpose
	lat       map[string][]float64 // series -> samples, milliseconds
	traced    bool
	age       int // position among the epochs of its world, from 0

	hashAttempts float64 // nonces tried by the blocks of this epoch
	journalBytes float64 // bytes the blocks of this epoch appended to the store's logs
}

func newEpoch() *epoch { return &epoch{lat: make(map[string][]float64)} }

func (e *epoch) add(series string, d time.Duration) {
	e.lat[series] = append(e.lat[series], float64(d)/1e6)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// samples is the per-epoch sample count behind an epoch-median
	// metric and epochs its per-epoch values; printed, not part of the
	// JSON.
	samples int
	epochs  []float64
}

// report is the outcome of one workload run.
type report struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	expected  int
	epochs    int
	endToEnd  map[string]metric // includes the workload's own metrics
	perLayer  map[string]metric // traced run only
	layerSelf map[string]float64
	spanFile  string
	notes     []string
	// series are samples a world hands to the per-layer report that are
	// not spans: relay latencies, bundles per claim, catch-up bytes.
	series map[string][]float64
}

// world is a set-up workload: the composed nodes plus the generator
// state. Every world is closed by the function that built it.
type world interface {
	// round does one round of fixed work, adding samples to ep.
	round(ctx context.Context, ep *epoch) error
	// beginEpoch and endEpoch bracket the rounds of one epoch; the
	// epoch's wall time ends before endEpoch.
	beginEpoch(ctx context.Context, ep *epoch) error
	endEpoch(ctx context.Context, ep *epoch) error
	// finish runs after the world's last epoch, outside every epoch's
	// wall time: work measured on its own (a catch-up), then the
	// correctness gate, which clears r.correct on a miss.
	finish(ctx context.Context, r *report) error
	// nodes lists the composed stacks, for counters.
	nodes() []*node
	close() error
}

// baseWorld supplies the no-op hooks.
type baseWorld struct{}

func (baseWorld) beginEpoch(context.Context, *epoch) error { return nil }
func (baseWorld) endEpoch(context.Context, *epoch) error   { return nil }

// workload describes one workload: how to set it up and its frozen size.
type workload struct {
	name string
	why  string
	// rounds per epoch and warm-up rounds, frozen so that an epoch takes
	// about a ninth of defaultSeconds on the reference machine.
	rounds int
	warmup int
	setup  func(ctx context.Context, cfg runConfig) (world, error)
}

var workloads = []workload{
	{
		name:   "plain_pay",
		why:    "script, sigcache, chain UTXO work and the file store do nearly all the work and the typed layer none: the Bitcoin-substrate baseline",
		rounds: plainRounds, warmup: plainWarmup, setup: setupPlain,
	},
	{
		name:   "typed_commit",
		why:    "proof, logic, lf and the typecoin ledger dominate and signatures are a minority; lineage depth is bounded at 16, so the generated work per round is constant",
		rounds: typedRounds, warmup: typedWarmup, setup: setupTyped,
	},
	{
		name:   "relay_mesh",
		why:    "three in-process nodes: p2p, wire and relay-side mempool validation dominate and the store does almost nothing, so a single-node speed-up should not show here",
		rounds: relayRounds, warmup: relayWarmup, setup: setupRelay,
	},
	{
		name:   "query_mix",
		why:    "index API reads beside an open-loop writer at a fixed rate: a write-path gain that costs readers, or the reverse, shows here",
		rounds: queryRounds, warmup: queryWarmup, setup: setupQuery,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig is what one workload run is parameterised by.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// rounds and epochs (per world) override the frozen sizes; the smoke
	// test's only.
	rounds, epochs int
	traceOut       string
	// tr is the run's tracer, shared by its worlds; nil when untraced.
	tr *tracer
}

// runWorkload builds the workload's world `worlds` times and measures a
// third of the run's epochs on each, so the set-up time is a median of
// three, no epoch runs on a store more than three epochs old, and every
// world goes through the correctness gate. The returned error is a
// harness failure; a correctness failure is report.correct == false.
func runWorkload(parent context.Context, w workload, cfg runConfig) (*report, error) {
	ctx, cancel := context.WithTimeout(parent, workloadDeadline)
	defer cancel()
	// When one process runs several workloads, each starts from the heap
	// a fresh process would have.
	debug.FreeOSMemory()
	// Fixed work: the frozen rounds per epoch take -seconds on the
	// reference machine at defaultSeconds, and scale with -seconds.
	rounds := int(math.Round(float64(w.rounds) * cfg.seconds / defaultSeconds))
	if rounds < 1 {
		rounds = 1
	}
	perWorld, warmup := epochsPerWorld, w.warmup
	if cfg.rounds > 0 {
		rounds = cfg.rounds
		if warmup > rounds {
			warmup = rounds
		}
	}
	if cfg.epochs > 0 {
		perWorld = cfg.epochs
	}
	if cfg.trace {
		cfg.tr = newTracer()
	}
	rep := &report{workload: w.name, correct: true, endToEnd: map[string]metric{}, perLayer: map[string]metric{},
		series: map[string][]float64{}}
	acc := &measured{counters: map[string]float64{}}
	var setupSeconds []float64
	for i := 0; i < worlds; i++ {
		err := func() (err error) {
			start := time.Now()
			wd, err := w.setup(ctx, cfg)
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			defer func() {
				if cerr := wd.close(); err == nil && cerr != nil {
					err = fmt.Errorf("close: %w", cerr)
				}
			}()
			for r := 0; r < warmup; r++ {
				if err := wd.round(ctx, newEpoch()); err != nil {
					return fmt.Errorf("warm-up: %w", err)
				}
			}
			setupSeconds = append(setupSeconds, time.Since(start).Seconds())
			if err := measure(ctx, wd, rounds, perWorld, cfg.tr, acc); err != nil {
				return err
			}
			return wd.finish(ctx, rep)
		}()
		if err != nil {
			return nil, fmt.Errorf("%s: world %d: %w", w.name, i, err)
		}
		// Each world draws its inputs from its own seed.
		cfg.seed++
	}
	rep.endToEnd["setup_s"] = metric{Value: median(setupSeconds), Unit: "s", samples: len(setupSeconds), epochs: setupSeconds}
	rep.epochs = len(acc.epochs)
	summarize(rep, acc.epochs)
	if cfg.tr != nil {
		layerMetrics(rep, cfg.tr, acc)
		rep.layerSelf = cfg.tr.layerSelfSeconds()
		if err := cfg.tr.writeFile(cfg.traceOut); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		rep.spanFile = cfg.traceOut
	}
	return rep, nil
}

// measured accumulates what the worlds of one run measured.
type measured struct {
	epochs   []*epoch
	counters map[string]float64 // registry counter deltas over the measured phases
	alloc    uint64             // bytes allocated
	gcPause  uint64             // nanoseconds
	heapMax  uint64             // bytes in use, highest seen at an epoch boundary
}

// measure runs n epochs on a warmed-up world.
func measure(ctx context.Context, wd world, rounds, n int, tr *tracer, acc *measured) error {
	runtime.GC()
	var before, ms runtime.MemStats
	runtime.ReadMemStats(&before)
	counters := scrapeAll(wd.nodes())
	for i := 0; i < n; i++ {
		ep := newEpoch()
		ep.age = i
		// The traced run alternates traced and untraced epochs; the
		// difference in throughput is the tracing overhead.
		ep.traced = tr != nil && len(acc.epochs)%2 == 0
		if tr != nil {
			tr.on.Store(ep.traced)
		}
		start := time.Now()
		if err := wd.beginEpoch(ctx, ep); err != nil {
			return err
		}
		for r := 0; r < rounds; r++ {
			if tr != nil {
				tr.round.Add(1)
			}
			if err := wd.round(ctx, ep); err != nil {
				return fmt.Errorf("epoch %d round %d: %w", len(acc.epochs), r, err)
			}
		}
		ep.wall = time.Since(start)
		if err := wd.endEpoch(ctx, ep); err != nil {
			return err
		}
		acc.epochs = append(acc.epochs, ep)
		runtime.ReadMemStats(&ms)
		if ms.HeapInuse > acc.heapMax {
			acc.heapMax = ms.HeapInuse
		}
	}
	if tr != nil {
		tr.on.Store(false)
	}
	acc.alloc += ms.TotalAlloc - before.TotalAlloc
	acc.gcPause += ms.PauseTotalNs - before.PauseTotalNs
	for name, v := range scrapeAll(wd.nodes()) {
		acc.counters[name] += v - counters[name]
	}
	return nil
}

// perEpoch computes one value per epoch and combines them. Epochs are
// comparable only at the same age of their world (the system slows as its
// store fills), so the median is taken across the worlds at each age, and
// the ages are averaged.
func perEpoch(epochs []*epoch, unit string, f func(*epoch) (value float64, samples int)) metric {
	byAge := map[int][]float64{}
	var vals []float64
	samples := 0
	for _, ep := range epochs {
		v, n := f(ep)
		if n == 0 {
			continue
		}
		byAge[ep.age] = append(byAge[ep.age], v)
		vals = append(vals, v)
		samples = n
	}
	var total float64
	for _, vs := range byAge {
		total += median(vs)
	}
	return metric{Value: ratio(total, float64(len(byAge))), Unit: unit, samples: samples, epochs: vals}
}

func latency(series string, p float64) func(*epoch) (float64, int) {
	return func(ep *epoch) (float64, int) {
		return percentile(ep.lat[series], p), len(ep.lat[series])
	}
}

// summarize derives the end-to-end metrics, each computed within every
// epoch and combined by perEpoch.
func summarize(rep *report, epochs []*epoch) {
	for _, ep := range epochs {
		rep.attempted += ep.attempted
		rep.failed += ep.failed
		rep.expected += ep.expected
	}
	e2e := rep.endToEnd
	e2e["commit_tx_per_s"] = perEpoch(epochs, "tx/s", func(ep *epoch) (float64, int) {
		return float64(ep.committed) / ep.wall.Seconds(), ep.committed
	})
	e2e["submit_p50_ms"] = perEpoch(epochs, "ms", latency("submit", 50))
	e2e["submit_p95_ms"] = perEpoch(epochs, "ms", latency("submit", 95))
	e2e["block_commit_p50_ms"] = perEpoch(epochs, "ms", latency("block_commit", 50))
	if hasSeries(epochs, "verify") {
		e2e["verify_p50_ms"] = perEpoch(epochs, "ms", latency("verify", 50))
	}
	if hasSeries(epochs, "query") {
		e2e["query_per_s"] = perEpoch(epochs, "1/s", func(ep *epoch) (float64, int) {
			n := len(ep.lat["query"])
			return float64(n) / ep.wall.Seconds(), n
		})
		e2e["query_p50_ms"] = perEpoch(epochs, "ms", latency("query", 50))
		e2e["query_p95_ms"] = perEpoch(epochs, "ms", latency("query", 95))
	}
}

func hasSeries(epochs []*epoch, series string) bool {
	for _, ep := range epochs {
		if len(ep.lat[series]) > 0 {
			return true
		}
	}
	return false
}

// The driver's contract: these are the metrics every workload reports
// with -trace 0, as BENCHMARK.json lists them.
var endToEndNames = []string{"setup_s", "commit_tx_per_s", "submit_p50_ms"}

// driverLine renders the last line of standard output.
func driverLine(rep *report, trace bool) string {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, map[string]metric{}}
	if trace {
		for _, lm := range perLayer {
			out.Metrics[lm.name] = rep.perLayer[lm.name]
		}
	} else {
		for _, name := range endToEndNames {
			out.Metrics[name] = rep.endToEnd[name]
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// printReport writes the human-readable report.
func printReport(rep *report) {
	fmt.Printf("workload %s: %d epochs, ops_attempted=%d ops_failed=%d expected_refusals=%d correct=%v\n",
		rep.workload, rep.epochs, rep.attempted, rep.failed, rep.expected, rep.correct)
	if w, ok := findWorkload(rep.workload); ok {
		fmt.Printf("  why: %s\n", w.why)
	}
	for _, note := range rep.notes {
		fmt.Printf("  note: %s\n", note)
	}
	printMetrics("end-to-end (per-epoch values, median across worlds at each age, mean over ages; n = samples per epoch)", rep.endToEnd)
	if len(rep.perLayer) > 0 {
		printMetrics("per-layer (traced epochs)", rep.perLayer)
		fmt.Println("  layer self time over the traced epochs:")
		layers := make([]string, 0, len(rep.layerSelf))
		for l := range rep.layerSelf {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Printf("    %-10s %10.4f s\n", l, rep.layerSelf[l])
		}
		fmt.Printf("  spans written to %s\n", rep.spanFile)
	}
}

func printMetrics(title string, ms map[string]metric) {
	fmt.Printf("  %s:\n", title)
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := ms[name]
		if m.samples > 0 {
			fmt.Printf("    %-34s %14.4f %-9s n=%d\n", name, m.Value, m.Unit, m.samples)
			if len(m.epochs) > 0 {
				fmt.Printf("      per epoch:")
				for _, v := range m.epochs {
					fmt.Printf(" %.4g", v)
				}
				fmt.Println()
			}
		} else {
			fmt.Printf("    %-34s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
}

// tempDirs tracks every scratch directory so the watchdog can remove
// them when it has to exit without unwinding the deferred removals.
var tempDirs struct {
	sync.Mutex
	dirs map[string]bool
}

func trackTempDir(dir string) {
	tempDirs.Lock()
	if tempDirs.dirs == nil {
		tempDirs.dirs = make(map[string]bool)
	}
	tempDirs.dirs[dir] = true
	tempDirs.Unlock()
}

func removeTempDir(dir string) {
	os.RemoveAll(dir)
	tempDirs.Lock()
	delete(tempDirs.dirs, dir)
	tempDirs.Unlock()
}

func removeAllTempDirs() {
	tempDirs.Lock()
	defer tempDirs.Unlock()
	for dir := range tempDirs.dirs {
		os.RemoveAll(dir)
	}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: plain_pay, typed_commit, relay_mesh, query_mix or all")
	seed := fs.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", defaultSeconds, "size of the measured phase: rounds per epoch scale with it, and 20 takes about 20 s on the reference machine")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics instead of the end-to-end ones")
	traceOut := fs.String("trace-out", "", "file the spans are written to (default: under the temp directory)")
	selfcheck := fs.Bool("selfcheck", false, "run every workload twice and fail if a metric differs by more than its bound")
	rounds := fs.Int("rounds", 0, "override rounds per epoch (smoke test only)")
	epochs := fs.Int("epochs", 0, "override the number of epochs per world (smoke test only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*name); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if *selfcheck && (*rounds > 0 || *epochs > 0 || *trace == 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -selfcheck measures the frozen sizes untraced; it takes no -rounds, -epochs or -trace")
		return 2
	}

	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	fmt.Printf("benchmark: GOMAXPROCS=%d seed=%d seconds=%g trace=%d\n", procs, *seed, *seconds, *trace)

	runs := len(selected)
	if *selfcheck {
		runs *= 2
	}
	watchdog := time.AfterFunc(time.Duration(runs)*workloadDeadline+watchdogSlack, func() {
		fmt.Fprintln(os.Stderr, "benchmark: watchdog expired; goroutines:")
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		removeAllTempDirs()
		os.Exit(2)
	})
	defer watchdog.Stop()

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, rounds: *rounds, epochs: *epochs}
	baseline := runtime.NumGoroutine()
	var code int
	if *selfcheck {
		code = runSelfcheck(selected, cfg)
	} else {
		code = runSelected(selected, cfg, *traceOut)
	}
	if code != 0 {
		return code
	}
	// Every goroutine the workloads started belongs to a value whose stop
	// method waits for it, so none may be left.
	if leaked := runtime.NumGoroutine() - baseline; leaked > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d goroutines outlived the run:\n", leaked)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		return 3
	}
	return 0
}

// runSelected runs each workload once and prints its report; with one
// workload selected the driver's JSON line is the last line.
func runSelected(selected []workload, cfg runConfig, traceOut string) int {
	for _, w := range selected {
		cfg.traceOut = traceOut
		if cfg.trace && traceOut == "" {
			cfg.traceOut = filepath.Join(os.TempDir(), "typecoin-benchmark-"+w.name+".spans.json")
		}
		rep, err := runWorkload(context.Background(), w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		printReport(rep)
		if !rep.correct {
			fmt.Fprintf(os.Stderr, "benchmark: %s failed its correctness gate; its metrics are not valid\n", w.name)
			return 1
		}
		fmt.Println(driverLine(rep, cfg.trace))
	}
	return 0
}

// bound is the share by which an end-to-end metric may worsen, as
// BENCHMARK.json fixes it.
var bounds = map[string]float64{
	"setup_s": 0.25, "commit_tx_per_s": 0.25, "submit_p50_ms": 0.25,
}

// runSelfcheck runs the set twice, the second time in reverse order, and
// compares every bounded metric.
func runSelfcheck(selected []workload, cfg runConfig) int {
	var sets [2]map[string]*report
	for pass := range sets {
		sets[pass] = make(map[string]*report)
		order := append([]workload(nil), selected...)
		if pass == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			rep, err := runWorkload(context.Background(), w, cfg)
			if err == nil && !rep.correct {
				err = errors.New(w.name + " failed its correctness gate")
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
			sets[pass][w.name] = rep
		}
	}
	fmt.Printf("%-13s %-22s %12s %12s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	code := 0
	for _, w := range selected {
		for _, name := range endToEndNames {
			a, b := sets[0][w.name].endToEnd[name].Value, sets[1][w.name].endToEnd[name].Value
			diff := math.Abs(a-b) / math.Min(a, b)
			verdict := ""
			if diff > bounds[name] {
				verdict = "  EXCEEDS"
				code = 1
			}
			fmt.Printf("%-13s %-22s %12.4f %12.4f %7.2f%% %5.0f%%%s\n",
				w.name, name, a, b, 100*diff, 100*bounds[name], verdict)
		}
	}
	return code
}

// gate records the failed checks of one world's correctness gate.
func (r *report) gate(errs []error) {
	if len(errs) == 0 {
		return
	}
	parts := make([]string, len(errs))
	for i, err := range errs {
		parts[i] = err.Error()
	}
	r.correct = false
	r.notes = append(r.notes, "correctness: "+strings.Join(parts, "; "))
}
