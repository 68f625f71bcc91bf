package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/cfg"
	"repro/internal/fuzz"
	"repro/internal/instrument"
	"repro/internal/subjects"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// feedback is one campaign feedback configuration, named as the
// strategy package names it.
type feedback struct {
	name string
	fb   instrument.Feedback
}

var (
	pathFB    = feedback{"path", instrument.FeedbackPath}
	pcguardFB = feedback{"pcguard", instrument.FeedbackEdge}
)

// workload is one fixed set of campaigns. Every campaign runs on the
// default bytecode engine, the default 2^16 map and the default
// 512-byte input cap.
type workload struct {
	subjects  []string
	feedbacks []feedback
	// budget is the execution budget of each campaign (of each worker,
	// for a fleet).
	budget int64
	// sets is the number of distinct campaign-seed sets a run covers.
	// Round r runs set r mod sets, so every run completes each set at
	// least once (edges and bugs are totals over the sets) and any
	// further round repeats a set, whose outcome must match exactly.
	// Campaigns of different seeds differ in execution length, so the
	// more sets, the less the workload seed moves execs_per_s.
	sets int
	// fleet runs each subject as a durable 2-worker fleet instead of a
	// single campaign.
	fleet bool
}

var workloads = map[string]*workload{
	// tiffsplit and lame would fit exec-heavy too, but their cost per
	// execution varies several-fold with the campaign seed (multi-MB
	// allocations, a bimodal execution length), which swamps
	// execs_per_s across workload seeds.
	"exec-heavy": {
		subjects:  []string{"cflow", "infotocap"},
		feedbacks: []feedback{pathFB},
		budget:    150000,
		sets:      8,
	},
	"loop-heavy": {
		subjects:  []string{"flvmeta", "nm-new", "jhead", "exiv2", "imginfo", "sqlite3"},
		feedbacks: []feedback{pathFB, pcguardFB},
		budget:    150000,
		sets:      4,
	},
	"durable-fleet": {
		subjects:  []string{"jq", "sqlite3"},
		feedbacks: []feedback{pathFB},
		budget:    300000,
		sets:      4,
		fleet:     true,
	},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// campaignSeed derives the RNG seed of campaign idx in seed set set
// from the workload seed (splitmix64).
func campaignSeed(seed int64, set, idx int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(set)<<20 + uint64(idx)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z &^ (1 << 63))
}

// bench is one benchmark run's state.
type bench struct {
	cfg config
	w   *workload
	dir string

	attempted int64
	failed    int64
	problems  []string

	// first holds each seed set's first round, which later rounds of
	// the set must match.
	first map[int]*round
}

// round is the outcome of running one seed set's campaigns once.
type round struct {
	set                 int
	setup, fuzz, resume time.Duration
	execs               int64
	edges, bugs         int
	// sig summarises every campaign's deterministic outcome.
	sig string
	// peaks holds the process's peak resident set during each of the
	// round's campaigns, in MB.
	peaks []float64
	// done lists the finished campaigns, for the traced run's replay.
	done []finished
}

// finished is one completed campaign's final queue.
type finished struct {
	prog  *cfg.Program
	fb    instrument.Feedback
	queue [][]byte
}

func (b *bench) problem(format string, args ...any) {
	b.failed++
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// logf writes a progress line to standard error under -v.
func (b *bench) logf(format string, args ...any) {
	if b.cfg.verbose {
		fmt.Fprintf(os.Stderr, "fuzzbench: "+format+"\n", args...)
	}
}

func (b *bench) budget() int64 { return b.w.budget / b.cfg.scale }

// runRound runs seed set set once; ls, when non-nil, collects the
// traced run's per-layer measurements.
func (b *bench) runRound(set int, ls *layers) (*round, error) {
	var rd *round
	var err error
	if b.w.fleet {
		rd, err = b.fleetRound(set, ls)
	} else {
		rd, err = b.singleRound(set, ls)
	}
	if err != nil {
		return nil, err
	}
	rd.set = set
	b.logf("round on seed set %d: %.0f execs/s, setup %.4fs, resume %.4fs, peak %.1f MB, %d edges, %d bugs",
		set, float64(rd.execs)/rd.fuzz.Seconds(), rd.setup.Seconds(), rd.resume.Seconds(), median(rd.peaks), rd.edges, rd.bugs)
	b.attempted += rd.execs
	if first, ok := b.first[set]; !ok {
		b.first[set] = rd
	} else if first.sig != rd.sig {
		b.problem("seed set %d is not deterministic: %s then %s", set, first.sig, rd.sig)
	}
	return rd, nil
}

// single is one single-fuzzer campaign of a round.
type single struct {
	sub  *subjects.Subject
	prog *cfg.Program
	fb   feedback
	opts fuzz.Options
	f    *fuzz.Fuzzer
}

// reps is how many times a round sets up its campaigns and restores
// each snapshot. Both take tens of milliseconds, so the round reports
// the median of several tries and keeps the last.
const reps = 5

// singleRound sets up every campaign of the set, then fuzzes each to
// half its budget, snapshots it, restores the snapshot into a new
// fuzzer and fuzzes that to the full budget. Setup runs from the
// start of the set-up to the first Fuzz call; resume is the time spent
// in fuzz.Restore.
func (b *bench) singleRound(set int, ls *layers) (*round, error) {
	rd := &round{}
	var camps []*single
	var setups []float64
	for rep := 0; rep < reps; rep++ {
		lr := ls.last(rep)
		start := time.Now()
		var err error
		if camps, err = b.setUp(set, lr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rd.setup = seconds(median(setups))

	budget := b.budget()
	half := budget / 2
	var sigs []string
	for _, c := range camps {
		if err := freshPeak(); err != nil {
			return nil, err
		}
		fuzzed := rd.fuzz
		c.f.SetCheckpointHook(func(f *fuzz.Fuzzer) bool { return f.Execs() < half })
		t := time.Now()
		c.f.Fuzz(budget)
		rd.fuzz += ls.add("fuzz.fuzz", t)
		snap := c.f.Snapshot()
		c.f = nil // let the collector have it before the resumed half

		var f *fuzz.Fuzzer
		var restores []float64
		for rep := 0; rep < reps; rep++ {
			var err error
			t = time.Now()
			f, err = fuzz.Restore(c.prog, c.opts, snap)
			restores = append(restores, ls.last(rep).add("fuzz.restore", t).Seconds())
			if err != nil {
				return nil, fmt.Errorf("%s/%s: restore: %w", c.sub.Name, c.fb.name, err)
			}
		}
		rd.resume += seconds(median(restores))
		ls.count("fuzz.restore_draws", float64(snap.RNGDraws))
		t = time.Now()
		f.Fuzz(budget)
		rd.fuzz += ls.add("fuzz.fuzz", t)

		rep := f.Report()
		if err := rd.notePeak(); err != nil {
			return nil, err
		}
		b.logf("%s/%s seed %d: %.0f execs/s, %.0f steps/exec, %d bugs",
			c.sub.Name, c.fb.name, c.opts.Seed, float64(rep.Stats.Execs)/(rd.fuzz-fuzzed).Seconds(),
			float64(rep.Stats.TotalSteps)/float64(rep.Stats.Execs), len(rep.Bugs))
		ls.noteCampaign(f)
		edges := len(fuzz.ShowMap(c.prog, rep.Queue, "", vm.Limits{}))
		b.checkReport(c.sub, c.prog, rep)
		rd.execs += rep.Stats.Execs
		rd.edges += edges
		rd.bugs += len(rep.Bugs)
		rd.done = append(rd.done, finished{prog: c.prog, fb: c.fb.fb, queue: rep.Queue})
		sigs = append(sigs, fmt.Sprintf("%s/%s:%d:%d:%s", c.sub.Name, c.fb.name, rep.Stats.Execs, edges, strings.Join(rep.BugKeys(), ",")))
	}
	ls.endRound()
	rd.sig = strings.Join(sigs, " ")
	return rd, nil
}

// setUp compiles the workload's subjects and creates and seeds every
// campaign of the set.
func (b *bench) setUp(set int, ls *layers) ([]*single, error) {
	var camps []*single
	for _, name := range b.w.subjects {
		sub := subjects.Get(name)
		prog, err := cfg.Compile(sub.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		for _, fb := range b.w.feedbacks {
			opts := fuzz.Options{
				Feedback:        fb.fb,
				Seed:            campaignSeed(b.cfg.seed, set, len(camps)),
				KeepCrashInputs: true,
				Telemetry:       ls.recorder(),
			}
			t := time.Now()
			f, err := fuzz.New(prog, opts)
			ls.add("fuzz.new", t)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, fb.name, err)
			}
			t = time.Now()
			for _, s := range sub.Seeds {
				f.AddSeed(s)
			}
			ls.add("fuzz.addseed", t)
			camps = append(camps, &single{sub: sub, prog: prog, fb: fb, opts: opts, f: f})
		}
	}
	return camps, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// freshPeak collects the heap, returns free memory to the system and
// resets the kernel's peak-RSS mark (VmHWM), so that the next reading
// is the peak of what runs in between.
func freshPeak() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// notePeak records the process's peak RSS since the last freshPeak.
func (rd *round) notePeak() error {
	mb, err := peakRSSMB()
	rd.peaks = append(rd.peaks, mb)
	return err
}

// checkReport applies the output checks every campaign must pass: no
// internal faults, and every reported bug replays to its key at a
// planted bug.
func (b *bench) checkReport(sub *subjects.Subject, prog *cfg.Program, rep *fuzz.Report) {
	if n := rep.Stats.InternalFaults; n > 0 {
		b.failed += n - 1
		b.problem("%s: %d internal faults", sub.Name, n)
	}
	for _, key := range rep.BugKeys() {
		if err := checkBug(sub, prog, key, rep.Bugs[key].Input); err != nil {
			b.problem("%s: %v", sub.Name, err)
		}
	}
}

// checkBug replays a reported bug's representative input on the
// reference interpreter. It must crash with the reported bug key —
// the same kind in the same function at the same line — and match one
// of the subject's planted bugs: the same function, and either the
// planted fault kind or the line the bug's witness input faults at.
func checkBug(sub *subjects.Subject, prog *cfg.Program, key string, input []byte) error {
	if input == nil {
		return fmt.Errorf("bug %s: no input kept", key)
	}
	res := vm.Run(prog, "main", input, vm.NullTracer{}, vm.DefaultLimits())
	if res.Status != vm.StatusCrash {
		return fmt.Errorf("bug %s: input replays as %s, not a crash", key, res.Status)
	}
	c := res.Crash
	if got := c.BugKey(); got != key {
		return fmt.Errorf("bug %s: input replays as %s", key, got)
	}
	for _, bug := range sub.Bugs {
		if bug.WantFunc != c.Func {
			continue
		}
		if bug.WantKind == c.Kind {
			return nil
		}
		w := vm.Run(prog, "main", bug.Witness, vm.NullTracer{}, vm.DefaultLimits())
		if w.Crash != nil && w.Crash.Func == c.Func && w.Crash.Pos.Line == c.Pos.Line {
			return nil
		}
	}
	return fmt.Errorf("bug %s matches no planted bug", key)
}

// roomFor reports whether another round fits in the run's time, going
// by the mean duration of the rounds so far.
func (b *bench) roomFor(start time.Time, rounds int) bool {
	el := time.Since(start).Seconds()
	return el+el/float64(rounds) <= b.cfg.seconds
}

// untraced runs rounds until the time is used, every seed set at
// least once, and reports the end-to-end metrics. Set-up and resume
// times are medians over rounds, peak memory the median over the
// campaigns of the first pass over the sets. Throughput is one pass
// over the seed sets, each set's fuzzing time being the median of its
// rounds, so that every set weighs the same in every run. Edges and
// bugs are totals over the sets.
func (b *bench) untraced() (map[string]metric, error) {
	start := time.Now()
	var setup, resume, rss []float64
	fuzzSecs := make([][]float64, b.w.sets)
	for r := 0; r < b.w.sets || b.roomFor(start, r); r++ {
		rd, err := b.runRound(r%b.w.sets, nil)
		if err != nil {
			return nil, err
		}
		fuzzSecs[rd.set] = append(fuzzSecs[rd.set], rd.fuzz.Seconds())
		setup = append(setup, rd.setup.Seconds())
		resume = append(resume, rd.resume.Seconds())
		if r < b.w.sets {
			// Every set-up compiles fresh programs, which the
			// process-wide compile cache keeps, so later rounds start
			// from a larger heap; only the first pass, the same in
			// every run, counts for peak memory.
			rss = append(rss, rd.peaks...)
		}
	}
	var execs int64
	var secs float64
	var edges, bugs int
	for set, rd := range b.first {
		execs += rd.execs
		secs += median(fuzzSecs[set])
		edges += rd.edges
		bugs += rd.bugs
	}
	return map[string]metric{
		"execs_per_s": {float64(execs) / secs, "1/s"},
		"setup_s":     {median(setup), "s"},
		"resume_s":    {median(resume), "s"},
		"edges":       {float64(edges), "count"},
		"bugs":        {float64(bugs), "count"},
		"peak_rss_mb": {median(rss), "MB"},
	}, nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// newRecorder returns a telemetry recorder whose spans the traced run
// reads back.
func newRecorder() *telemetry.Recorder { return telemetry.New(telemetry.Config{}) }
