// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON perf trajectory, and diffs two such snapshots.
//
// Record mode reads the benchmark output on stdin and writes one JSON
// document describing every benchmark (series label, iterations, ns/op,
// B/op, allocs/op) plus the platform it ran on:
//
//	go test -run xxx -bench . -benchmem . | go run ./cmd/benchjson -out new.json
//
// Diff mode compares a current snapshot against a baseline snapshot,
// printing per-series ns/op and allocs/op deltas and exiting nonzero
// when any series present in both snapshots regressed its ns/op by more
// than -threshold percent:
//
//	go run ./cmd/benchjson -baseline old.json -current new.json
//
// Series only present on one side are listed but never gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchResult is one benchmark line.
type benchResult struct {
	// Name is the full benchmark name including sub-benchmark path and
	// the -P GOMAXPROCS suffix, e.g. "BenchmarkConnectBlock/parallel-8".
	Name string `json:"name"`
	// Series is the stable label for cross-run comparison: the name
	// without the GOMAXPROCS suffix.
	Series     string  `json:"series"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp/AllocsPerOp are -1 when the run lacked -benchmem.
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

type document struct {
	Go         string        `json:"go"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// benchLine matches one result row of `go test -bench` output:
//
//	BenchmarkFoo/sub-8  123  456.7 ns/op  89 B/op  10 allocs/op
var benchLine = regexp.MustCompile(
	`^(Benchmark\S*)\s+(\d+)\s+([0-9.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// procSuffix is the trailing -GOMAXPROCS marker on benchmark names.
var procSuffix = regexp.MustCompile(`-\d+$`)

// parseBench reads `go test -bench` text output into benchmark results.
func parseBench(r io.Reader) ([]benchResult, error) {
	var out []benchResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		r := benchResult{
			Name:        m[1],
			Series:      procSuffix.ReplaceAllString(m[1], ""),
			Iterations:  iters,
			NsPerOp:     ns,
			BytesPerOp:  -1,
			AllocsPerOp: -1,
		}
		if m[4] != "" {
			r.BytesPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if m[5] != "" {
			r.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// collapseFastest reduces repeated runs of the same benchmark (from
// `go test -count=N`) to the fastest one. Minimum-of-N is the usual
// noise suppressor for wall-clock benchmarks: scheduler interference
// only ever adds time.
func collapseFastest(results []benchResult) []benchResult {
	best := make(map[string]int)
	var out []benchResult
	for _, r := range results {
		i, ok := best[r.Name]
		if !ok {
			best[r.Name] = len(out)
			out = append(out, r)
			continue
		}
		if r.NsPerOp < out[i].NsPerOp {
			out[i] = r
		}
	}
	return out
}

// loadDoc reads one recorded JSON snapshot.
func loadDoc(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// bySeries indexes a snapshot's benchmarks by series label. A series
// recorded twice keeps its first result.
func bySeries(doc *document) map[string]benchResult {
	m := make(map[string]benchResult, len(doc.Benchmarks))
	for _, r := range doc.Benchmarks {
		if _, ok := m[r.Series]; !ok {
			m[r.Series] = r
		}
	}
	return m
}

// pct is the relative change new vs old in percent; +10 means new is
// 10% slower (or bigger).
func pct(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}

// diff compares current against baseline, writes the report to w, and
// reports whether any shared series regressed ns/op beyond the gate.
// Snapshots recorded in different sessions run on differently-loaded
// (or differently-clocked) hosts, so two corrections are applied
// before a delta counts as a regression:
//
//   - Host drift: the median Δns% across shared series estimates the
//     uniform shift between the two recording environments; each
//     series gates on its delta relative to that median.
//   - Dispersion: the gate is max(threshold, 3 robust standard
//     deviations) where the robust σ is 1.4826×MAD of the deltas. On a
//     quiet host the spread is a few percent and the threshold rules;
//     when the spread itself is tens of percent, a swing of that size
//     is indistinguishable from noise and must clear 3σ to flag.
//
// Either way a genuine per-series outlier — the thing a perf PR can
// actually cause — still fires.
func diff(w io.Writer, baseline, current *document, threshold float64) bool {
	base := bySeries(baseline)
	cur := bySeries(current)

	var shared, added, removed []string
	for s := range cur {
		if _, ok := base[s]; ok {
			shared = append(shared, s)
		} else {
			added = append(added, s)
		}
	}
	for s := range base {
		if _, ok := cur[s]; !ok {
			removed = append(removed, s)
		}
	}
	sort.Strings(shared)
	sort.Strings(added)
	sort.Strings(removed)

	deltas := make(map[string]float64, len(shared))
	all := make([]float64, 0, len(shared))
	for _, s := range shared {
		d := pct(base[s].NsPerOp, cur[s].NsPerOp)
		deltas[s] = d
		all = append(all, d)
	}
	drift := median(all)
	absDev := make([]float64, len(all))
	for i, d := range all {
		absDev[i] = abs(d - drift)
	}
	robustSigma := 1.4826 * median(absDev)
	gate := threshold
	if g := 3 * robustSigma; g > gate {
		gate = g
	}

	regressed := false
	tw := tabWriter{w: w}
	tw.row("series", "ns/op old", "ns/op new", "Δns%", "Δadj%", "allocs old", "allocs new", "Δallocs%", "")
	for _, s := range shared {
		o, n := base[s], cur[s]
		dNs := deltas[s]
		adj := dNs - drift
		verdict := ""
		if adj > gate {
			verdict = "REGRESSION"
			regressed = true
		}
		dAllocs := "-"
		if o.AllocsPerOp >= 0 && n.AllocsPerOp >= 0 {
			dAllocs = fmt.Sprintf("%+.1f%%", pct(float64(o.AllocsPerOp), float64(n.AllocsPerOp)))
		}
		tw.row(s,
			fmt.Sprintf("%.0f", o.NsPerOp), fmt.Sprintf("%.0f", n.NsPerOp),
			fmt.Sprintf("%+.1f%%", dNs), fmt.Sprintf("%+.1f%%", adj),
			allocStr(o.AllocsPerOp), allocStr(n.AllocsPerOp), dAllocs, verdict)
	}
	tw.flush()
	for _, s := range added {
		fmt.Fprintf(w, "new:     %s  (%.0f ns/op, %s allocs/op)\n",
			s, cur[s].NsPerOp, allocStr(cur[s].AllocsPerOp))
	}
	for _, s := range removed {
		fmt.Fprintf(w, "removed: %s\n", s)
	}
	fmt.Fprintf(w, "%d shared series, %d new, %d removed; host drift (median Δns%%): %+.1f%%, robust σ: %.1f%%; gate: drift-adjusted regression > %.1f%%\n",
		len(shared), len(added), len(removed), drift, robustSigma, gate)
	return regressed
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// median of vs; 0 when empty.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	if n := len(sorted); n%2 == 1 {
		return sorted[n/2]
	} else {
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
}

func allocStr(n int64) string {
	if n < 0 {
		return "-"
	}
	return strconv.FormatInt(n, 10)
}

// tabWriter right-pads a small table without importing text/tabwriter's
// buffering semantics into the error paths.
type tabWriter struct {
	w    io.Writer
	rows [][]string
}

func (t *tabWriter) row(cols ...string) { t.rows = append(t.rows, cols) }

func (t *tabWriter) flush() {
	if len(t.rows) == 0 {
		return
	}
	width := make([]int, len(t.rows[0]))
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	for _, r := range t.rows {
		var sb strings.Builder
		for i, c := range r {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(r)-1 {
				sb.WriteString(strings.Repeat(" ", width[i]-len(c)))
			}
		}
		fmt.Fprintln(t.w, strings.TrimRight(sb.String(), " "))
	}
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	baseline := flag.String("baseline", "", "diff mode: baseline snapshot JSON to compare against")
	current := flag.String("current", "", "diff mode: current snapshot JSON (default: parse bench text on stdin)")
	threshold := flag.Float64("threshold", 20, "diff mode: fail on ns/op regressions beyond this percent")
	flag.Parse()

	if *baseline != "" {
		baseDoc, err := loadDoc(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		var curDoc *document
		if *current != "" {
			curDoc, err = loadDoc(*current)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
				os.Exit(1)
			}
		} else {
			results, err := parseBench(os.Stdin)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: read stdin: %v\n", err)
				os.Exit(1)
			}
			if len(results) == 0 {
				fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
				os.Exit(1)
			}
			results = collapseFastest(results)
			curDoc = &document{Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Benchmarks: results}
		}
		if diff(os.Stdout, baseDoc, curDoc, *threshold) {
			os.Exit(1)
		}
		return
	}

	results, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read stdin: %v\n", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	results = collapseFastest(results)
	doc := document{Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Benchmarks: results}

	raw, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	raw = append(raw, '\n')
	if *out == "" {
		os.Stdout.Write(raw)
		return
	}
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(doc.Benchmarks), *out)
}
