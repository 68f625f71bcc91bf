// Command evalsuite reproduces the paper's evaluation: it runs
// multi-run campaigns for every ⟨subject, fuzzer⟩ pair and regenerates
// each table and figure. Budgets are execution counts, the
// deterministic analogue of the paper's 48-hour runs.
//
// Usage:
//
//	evalsuite                        # everything, default scale
//	evalsuite -table 2 -runs 10 -budget 400000
//	evalsuite -figure 3 -subjects flvmeta,jhead
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/evalharness"
	"repro/internal/fuzz"
	"repro/internal/instrument"
	"repro/internal/strategy"
)

func main() {
	var (
		table     = flag.Int("table", 0, "regenerate only this table (1-10); 0 = all")
		figure    = flag.Int("figure", 0, "regenerate only this figure (2 or 3); 0 = all")
		runs      = flag.Int("runs", 3, "runs per subject/fuzzer pair (paper: 10)")
		budget    = flag.Int64("budget", 120000, "execution budget per run (48-hour analogue)")
		round     = flag.Int64("round", 0, "culling round budget (default budget/8)")
		subjectsF = flag.String("subjects", "", "comma-separated subject subset (default all 18)")
		seed      = flag.Int64("seed", 1, "base seed")
		quiet     = flag.Bool("quiet", false, "suppress per-campaign progress")
		fig2Sub   = flag.String("fig2-subject", "lame", "subject for the Figure 2 series")
		stateDir  = flag.String("state", "", "persist finished runs here; a restarted suite reloads them instead of recomputing")
		engineF   = flag.String("engine", "auto", "execution engine: auto (bytecode, interpreter for feedbacks without a lowering), bytecode (fail without a lowering) or interp")
		analysisF = flag.String("analysis", "", "static-analysis strictness: strict verifies IR and bytecode on every compile")
	)
	flag.Parse()

	if *analysisF != "" && *analysisF != "strict" {
		fmt.Fprintf(os.Stderr, "evalsuite: unknown -analysis level %q (want strict or empty)\n", *analysisF)
		os.Exit(1)
	}

	engine, err := fuzz.ParseEngine(*engineF)
	if err != nil {
		fmt.Fprintf(os.Stderr, "evalsuite: %v\n", err)
		os.Exit(1)
	}

	cfg := evalharness.Config{
		Runs:        *runs,
		Budget:      *budget,
		RoundBudget: *round,
		BaseSeed:    *seed,
		StateDir:    *stateDir,
		Engine:      engine,
		Instr:       instrument.Config{Analysis: *analysisF},
	}
	if *subjectsF != "" {
		cfg.Subjects = strings.Split(*subjectsF, ",")
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}

	// Restrict fuzzers to what the requested outputs need.
	need := map[strategy.Name]bool{}
	addAll := func(fs ...strategy.Name) {
		for _, f := range fs {
			need[f] = true
		}
	}
	wantTable := func(n int) bool { return (*table == 0 && *figure == 0) || *table == n }
	wantFigure := func(n int) bool { return (*table == 0 && *figure == 0) || *figure == n }
	if wantTable(1) || wantTable(3) || wantTable(4) || wantTable(5) {
		addAll(strategy.Path, strategy.PCGuard, strategy.Cull, strategy.Opp)
	}
	if wantTable(2) || wantTable(6) || wantFigure(3) {
		addAll(strategy.Path, strategy.PCGuard, strategy.Cull, strategy.Opp)
	}
	if wantTable(7) {
		addAll(strategy.Path, strategy.Cull, strategy.Opp, strategy.PathAFL)
	}
	if wantTable(8) || wantTable(9) {
		addAll(strategy.PathAFL, strategy.AFL)
	}
	if wantTable(10) {
		addAll(strategy.Path, strategy.CullR, strategy.Cull)
	}
	if wantFigure(2) {
		addAll(strategy.Path, strategy.PCGuard, strategy.Cull, strategy.Opp)
	}
	for f := range need {
		cfg.Fuzzers = append(cfg.Fuzzers, f)
	}

	fmt.Fprintf(os.Stderr, "running suite: %d subjects x %d fuzzers x %d runs, budget %d\n",
		lenOrAll(cfg.Subjects), len(cfg.Fuzzers), cfg.Runs, cfg.Budget)
	sr, err := evalharness.RunSuite(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "evalsuite: %v\n", err)
		os.Exit(1)
	}

	// With -state the rendered tables also land in the state directory
	// (eval_output.txt) next to the curves, provenance, and coverage
	// reports, so a durable suite's artifacts are self-contained.
	var out io.Writer = os.Stdout
	if *stateDir != "" {
		path := filepath.Join(*stateDir, "eval_output.txt")
		if f, err := os.Create(path); err != nil {
			fmt.Fprintf(os.Stderr, "evalsuite: cannot tee output: %v\n", err)
		} else {
			defer f.Close()
			out = io.MultiWriter(os.Stdout, f)
		}
	}
	emit := func(n int, f func()) {
		if wantTable(n) {
			f()
			fmt.Fprintln(out)
		}
	}
	emit(1, func() { sr.Table1(out) })
	emit(2, func() { sr.Table2(out) })
	emit(3, func() { sr.Table3(out) })
	emit(4, func() { sr.Table4(out) })
	emit(5, func() { sr.Table5(out) })
	emit(6, func() { sr.Table6(out) })
	emit(7, func() { sr.Table7(out) })
	emit(8, func() { sr.Table8(out) })
	emit(9, func() { sr.Table9(out) })
	emit(10, func() { sr.Table10(out) })
	if wantFigure(2) {
		sub := *fig2Sub
		if len(cfg.Subjects) > 0 && !containsStr(cfg.Subjects, sub) {
			sub = cfg.Subjects[0]
		}
		sr.Figure2(out, sub)
		fmt.Fprintln(out)
	}
	if wantFigure(3) {
		sr.Figure3(out)
		fmt.Fprintln(out)
	}
	if *table == 0 && *figure == 0 {
		sr.Trajectory(out)
		fmt.Fprintln(out)
		sr.Summary(out)
	}
}

func lenOrAll(s []string) int {
	if len(s) == 0 {
		return 18
	}
	return len(s)
}

func containsStr(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
