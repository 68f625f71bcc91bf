// Command fuzzbench is the repository's end-to-end and per-layer
// fuzzing benchmark. One invocation runs one workload for a fixed wall
// time and prints, as the last line of its standard output, a JSON
// object with the keys correct, attempted, failed and metrics:
//
//	fuzzbench -workload exec-heavy -seed 1 -seconds 30 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones a user of the
// fuzzer sees (throughput, set-up and resume time, coverage, bugs,
// memory). With -trace 1 the run reports per-layer metrics instead:
// timings taken around calls into each package's public entry points,
// counts read from campaign state, and a CPU profile attributed to
// packages. Nothing is traced inside the fuzzer itself.
//
// Every run also checks the campaign outputs: each reported bug's
// input must replay on the reference interpreter to the same crash and
// match a planted bug, campaigns repeated with the same seeds must
// agree exactly, and no operation may fault.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// work is the directory run state (journals) is written under.
	work string
	// scale divides every campaign budget; 1 in the benchmark, larger
	// in the self-test so a run takes a moment.
	scale int64
	// replays is the number of queue replays the traced run times.
	replays int
	// verbose prints each campaign's outcome to standard error.
	verbose bool
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; campaign seeds are derived from it")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "wall time to measure for")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for run state")
	flag.BoolVar(&cfg.verbose, "v", false, "print each campaign's outcome to standard error")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.scale = 1
	cfg.replays = 10000
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "fuzzbench: -trace must be 0 or 1\n")
		os.Exit(2)
	}
	res, problems, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fuzzbench: %v\n", err)
		os.Exit(1)
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "fuzzbench: check failed: %s\n", p)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fuzzbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one invocation and returns its result plus the output
// checks that failed. A non-nil error means the benchmark could not
// run at all.
func run(cfg config) (*result, []string, error) {
	w := workloads[cfg.workload]
	if w == nil {
		return nil, nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, "fuzzbench-run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{cfg: cfg, w: w, dir: dir, first: make(map[int]*round)}
	var metrics map[string]metric
	if cfg.trace {
		metrics, err = b.traced()
	} else {
		metrics, err = b.untraced()
	}
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(b.problems)
	return &result{
		Correct:   len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}, b.problems, nil
}

// workDir returns a fresh directory under the run's state directory.
func (b *bench) workDir(name string) (string, error) {
	d := filepath.Join(b.dir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}
