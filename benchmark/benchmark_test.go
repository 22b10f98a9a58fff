package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks the
// program against.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload traced at a tiny size and checks that
// each metric BENCHMARK.json names comes out with its declared unit and a
// usable value, that nothing failed, and that no goroutine outlives a run.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	if len(bf.PerLayer) != len(perLayer) || len(bf.EndToEnd) != len(endToEndNames) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program has %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEndNames), len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	t.Setenv("TMPDIR", t.TempDir())

	for _, listed := range bf.Workloads {
		w, ok := findWorkload(listed.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the program does not have", listed.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			cfg := runConfig{seed: 7, seconds: 1, trace: true, rounds: 2, epochs: 1,
				traceOut: t.TempDir() + "/spans.json"}
			rep, err := runWorkload(context.Background(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d notes=%v", rep.correct, rep.attempted, rep.failed, rep.notes)
			}
			for _, m := range bf.EndToEnd {
				got, ok := rep.endToEnd[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
					t.Errorf("end-to-end %s: got %+v, want a finite positive value in %s", m.Name, got, m.Unit)
				}
				if !name.MatchString(m.Name) || bounds[m.Name] != m.Bound {
					t.Errorf("end-to-end %s: bad name, or bound %v differs from the program's %v", m.Name, m.Bound, bounds[m.Name])
				}
			}
			for _, m := range bf.PerLayer {
				got, ok := rep.perLayer[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("per-layer %s: got %+v, want a finite value in %s", m.Name, got, m.Unit)
				}
				if !name.MatchString(m.Name) {
					t.Errorf("per-layer name %q is not a valid metric name", m.Name)
				}
			}
			for _, trace := range []bool{false, true} {
				var line struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]metric
				}
				if err := json.Unmarshal([]byte(driverLine(rep, trace)), &line); err != nil {
					t.Fatal(err)
				}
				want := len(bf.EndToEnd)
				if trace {
					want = len(bf.PerLayer)
				}
				if len(line.Metrics) != want || !line.Correct || line.Attempted < 1 {
					t.Errorf("driver line with trace=%v: %d metrics, want %d (correct=%v attempted=%d)",
						trace, len(line.Metrics), want, line.Correct, line.Attempted)
				}
			}
			if st, err := os.Stat(cfg.traceOut); err != nil || st.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%d goroutines before the run, %d after", before, after)
			}
		})
	}
}

// TestFlags checks the command line the driver uses, and that the size
// overrides are refused where they would make a comparison meaningless.
func TestFlags(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, args := range [][]string{
		{"-selfcheck", "-rounds", "1"},
		{"-selfcheck", "-epochs", "1"},
		{"-selfcheck", "-trace", "1"},
		{"-workload", "nope"},
		{"-seconds", "0"},
		{"stray"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
	if code := run([]string{"--workload", "plain_pay", "--seed", "3", "--seconds", "1", "--trace", "0", "-rounds", "1", "-epochs", "1"}); code != 0 {
		t.Errorf("driver-style command line: exit %d", code)
	}
}
