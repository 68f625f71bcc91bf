package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/fuzz"
	"repro/internal/subjects"
	"repro/internal/vm"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestEveryMetricPrinted runs every workload at a tiny budget, untraced
// and traced, and checks that the run passes its output checks and
// prints exactly the metrics BENCHMARK.json names, with their units.
func TestEveryMetricPrinted(t *testing.T) {
	var s spec
	readJSON(t, "../BENCHMARK.json", &s)
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(s.Workloads), len(workloads))
	}
	for _, wl := range s.Workloads {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			cfg := config{workload: wl.Name, seed: 1, trace: trace, work: t.TempDir(), scale: 20, replays: 200}
			res, problems, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || len(problems) > 0 {
				t.Errorf("%s trace=%v: output checks failed: %v", wl.Name, trace, problems)
			}
			if res.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d", wl.Name, trace, res.Attempted)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", wl.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %s, BENCHMARK.json says %s", wl.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			if !trace {
				for _, m := range want {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", wl.Name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestPredictionTableCoversMetrics checks that PREDICTIONS.json gives a
// reason for every workload and a prediction for every per-layer
// metric, naming an end-to-end metric and workloads that exist.
func TestPredictionTableCoversMetrics(t *testing.T) {
	var s spec
	readJSON(t, "../BENCHMARK.json", &s)
	var p struct {
		Workloads map[string]string `json:"workloads"`
		PerLayer  map[string]struct {
			Moves string   `json:"moves"`
			On    []string `json:"on"`
		} `json:"per_layer"`
	}
	readJSON(t, "PREDICTIONS.json", &p)
	e2e := make(map[string]bool)
	for _, m := range s.EndToEnd {
		e2e[m.Name] = true
	}
	for _, wl := range s.Workloads {
		if p.Workloads[wl.Name] == "" {
			t.Errorf("no reason recorded for workload %s", wl.Name)
		}
	}
	for _, m := range s.PerLayer {
		row, ok := p.PerLayer[m.Name]
		if !ok {
			t.Errorf("no prediction for per-layer metric %s", m.Name)
			continue
		}
		if !e2e[row.Moves] {
			t.Errorf("%s: moves %q, which is not an end-to-end metric", m.Name, row.Moves)
		}
		for _, w := range row.On {
			if workloads[w] == nil {
				t.Errorf("%s: unknown workload %q", m.Name, w)
			}
		}
	}
	if len(p.PerLayer) != len(s.PerLayer) {
		t.Errorf("PREDICTIONS.json has %d rows, BENCHMARK.json %d per-layer metrics", len(p.PerLayer), len(s.PerLayer))
	}
}

// witnessBug returns a planted bug's witness input and the bug key it
// replays to.
func witnessBug(t *testing.T, subject, id string) (*subjects.Subject, []byte, string) {
	t.Helper()
	sub := subjects.Get(subject)
	for _, b := range sub.Bugs {
		if b.ID == id {
			res := vm.Run(sub.MustProgram(), "main", b.Witness, vm.NullTracer{}, vm.DefaultLimits())
			if res.Crash == nil {
				t.Fatalf("%s/%s: witness does not crash", subject, id)
			}
			return sub, b.Witness, res.Crash.BugKey()
		}
	}
	t.Fatalf("no bug %s/%s", subject, id)
	return nil, nil, ""
}

// TestCheckRejectsCorruptedBugKey feeds the output check a report
// whose bug key was corrupted — wrong line, wrong kind, wrong function
// — and requires each to be counted as a failure, while the genuine
// key passes.
func TestCheckRejectsCorruptedBugKey(t *testing.T) {
	sub, input, key := witnessBug(t, "tiffsplit", "tf-4-strip-oob")
	fn, rest, _ := strings.Cut(key, ":")
	line, kind, _ := strings.Cut(rest, ":")
	check := func(k string) int64 {
		b := &bench{}
		rep := &fuzz.Report{Bugs: map[string]*fuzz.CrashRec{k: {Input: input}}}
		b.checkReport(sub, sub.MustProgram(), rep)
		return b.failed
	}
	if n := check(key); n != 0 {
		t.Fatalf("genuine key %s rejected", key)
	}
	for _, bad := range []string{
		fn + ":" + line + "1:" + kind,
		fn + ":" + line + ":" + vm.KindDivByZero.String(),
		"main:" + line + ":" + kind,
	} {
		if n := check(bad); n != 1 {
			t.Errorf("corrupted key %s: %d failures counted, want 1", bad, n)
		}
	}
}

// TestCheckRejectsUnplantedCrash requires a crash that replays to its
// own key but matches no planted bug of the subject to fail the check.
func TestCheckRejectsUnplantedCrash(t *testing.T) {
	_, input, key := witnessBug(t, "tiffsplit", "tf-4-strip-oob")
	other := subjects.Get("cflow")
	if err := checkBug(other, subjects.Get("tiffsplit").MustProgram(), key, input); err == nil {
		t.Errorf("crash %s accepted against cflow's planted bugs", key)
	}
}

// TestCategory pins the CPU-profile attribution of representative
// symbols.
func TestCategory(t *testing.T) {
	for _, c := range []struct{ name, file, want string }{
		{"repro/internal/bytecode.(*Machine).exec", "/r/internal/bytecode/machine.go", "bytecode"},
		{"repro/internal/fuzz.(*countingSource).Uint64", "/r/internal/fuzz/snapshot.go", "rng"},
		{"math/rand.(*Rand).Intn", "/go/src/math/rand/rand.go", "rng"},
		{"repro/internal/fuzz.(*mutator).havoc", "/r/internal/fuzz/mutate.go", "mutate"},
		{"repro/internal/fuzz.insertAt", "/r/internal/fuzz/mutate.go", "mutate"},
		{"repro/internal/fuzz.(*Fuzzer).Fuzz.func1", "/r/internal/fuzz/fuzzer.go", "fuzz"},
		{"repro/internal/analysis/interproc.For", "/r/internal/analysis/interproc/facts.go", "frontend"},
		{"runtime.mallocgc", "/go/src/runtime/malloc.go", "runtime"},
		{"runtime.memmove", "/go/src/runtime/memmove_amd64.s", ""},
		{"encoding/gob.(*Encoder).Encode", "/go/src/encoding/gob/encoder.go", ""},
		{"slices.SortFunc[go.shape.[]uint32,go.shape.uint32]", "/go/src/slices/sort.go", ""},
	} {
		if got := category(c.name, c.file); got != c.want {
			t.Errorf("category(%s) = %q, want %q", c.name, got, c.want)
		}
	}
}
