package repro

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"

	"repro/internal/fuzz"
	"repro/internal/instrument"
	"repro/internal/subjects"
	"repro/internal/vm"
)

// Analysis-guided fuzzing benchmarks: guided campaigns (interprocedural
// input-dependency facts focusing havoc bytes, boosting frontier
// energy, and vetoing input-independent cmplog sites) vs the identical
// campaign with the guide off. Both arms use edge feedback (pcguard),
// where every guidance channel engages — under pure path feedback there
// is no per-branch projection, so guidance reduces to the cmplog veto.
//
// The coverage metric is the DEFICIT AREA: sum over the campaign of
// (target − covered cells) per exec, where the per-seed target is the
// weakest arm's final coverage — a level every arm reached. The deficit
// integrates execs-to-coverage over every coverage level at once (it
// equals the sum, over cells up to the target, of the exec count at
// which that cell fell), so one straggler cell cannot dominate the way
// it dominates a plain time-to-last-cell race. Discovery of the final
// few cells is still a heavy-tailed stochastic event, so alongside the
// guided-vs-base ratio the bench reports the SAME statistic between two
// independently-seeded base arms (the null ratio): only a speedup
// outside the null band is evidence, in either direction.
// TestWriteBenchPR8 freezes the numbers into BENCH_PR8.json.

const (
	// benchPR8Budget is the per-arm campaign budget. Long enough that
	// every arm leaves the seed-dominated opening and the guided arm's
	// frontier weighting has many queue cycles to act; short enough that
	// the nontrivial subjects have not all saturated.
	benchPR8Budget = 150000
	// benchPR8Samples sets the history sampling grid: budget/samples =
	// 250-exec resolution on the deficit integral.
	benchPR8Samples = 600
	// benchPR8Seeds is the per-arm trial count. Straggler-cell discovery
	// is heavy-tailed (a single seed can contribute half a subject's
	// total deficit), so the totals need this many trials before the
	// ratio stabilises; the null ratio reports how far two equal-size
	// base samples still sit apart at this count.
	benchPR8Seeds = 50
)

func benchPR8Opts(guided bool, seed int64) fuzz.Options {
	return fuzz.Options{
		Feedback:       instrument.FeedbackEdge,
		Seed:           seed,
		MapSize:        1 << 12,
		Entry:          "main",
		Limits:         vm.DefaultLimits(),
		AnalysisGuide:  guided,
		HistorySamples: benchPR8Samples,
	}
}

// benchPR8Arm runs one campaign arm to the shared budget and returns
// its report (history sampled every budget/benchPR8Samples execs).
func benchPR8Arm(tb testing.TB, subject string, guided bool, seed int64) *fuzz.Report {
	tb.Helper()
	sub := subjects.Get(subject)
	prog, err := sub.Program()
	if err != nil {
		tb.Fatal(err)
	}
	f, err := fuzz.New(prog, benchPR8Opts(guided, seed))
	if err != nil {
		tb.Fatal(err)
	}
	for _, s := range sub.Seeds {
		f.AddSeed(s)
	}
	f.Fuzz(benchPR8Budget)
	return f.Report()
}

// covDeficit integrates the covered-cell shortfall against target over
// the sampled history: Σ max(0, target − cov(t)) · Δexecs.
func covDeficit(r *fuzz.Report, target int) float64 {
	var d, prev float64
	for _, h := range r.History {
		miss := target - h.CovCount
		if miss < 0 {
			miss = 0
		}
		d += float64(miss) * (float64(h.Execs) - prev)
		prev = float64(h.Execs)
	}
	return d
}

// execsToBug is the exec count of the first ground-truth bug find, or
// -1 when the arm found none inside the budget.
func execsToBug(r *fuzz.Report) int64 {
	first := int64(-1)
	for _, rec := range r.Bugs {
		if first < 0 || rec.FoundAt < first {
			first = rec.FoundAt
		}
	}
	return first
}

func finalCov(r *fuzz.Report) int {
	if n := len(r.History); n > 0 {
		return r.History[n-1].CovCount
	}
	return 0
}

// benchPR8 is the persisted schema of BENCH_PR8.json.
type benchPR8 struct {
	Note     string                 `json:"note"`
	Budget   int64                  `json:"budget_execs"`
	Seeds    int                    `json:"seeds"`
	Subjects map[string]benchPR8Sub `json:"subjects"`
}

type benchPR8Sub struct {
	// Total coverage-deficit area per arm over all seeds (lower =
	// faster to coverage). Alt is the null arm: the base configuration
	// on an independent seed set.
	BaseDeficit   float64 `json:"base_deficit"`
	GuidedDeficit float64 `json:"guided_deficit"`
	AltDeficit    float64 `json:"alt_deficit"`
	// CovSpeedup = base/guided deficit; > 1 means the guided arm
	// carried less shortfall (reached coverage levels sooner).
	// NullRatio = base/alt is the identical statistic between two
	// base-configuration samples: its distance from 1.0 is the seed
	// noise floor, and only a CovSpeedup outside that band is evidence.
	// CovSpeedupVsAlt = alt/guided cross-checks against the other base
	// sample: a genuine effect clears the band on both ratios, while a
	// lucky or unlucky base draw shows up on only one of them.
	CovSpeedup      float64 `json:"cov_speedup"`
	NullRatio       float64 `json:"null_ratio"`
	CovSpeedupVsAlt float64 `json:"cov_speedup_vs_alt"`
	// Median final covered cells per arm at the full budget, and the
	// seeds where one arm ended strictly ahead of the other.
	BaseFinalCov    float64 `json:"base_final_cov"`
	GuidedFinalCov  float64 `json:"guided_final_cov"`
	GuidedCovWins   int     `json:"guided_final_cov_wins"`
	GuidedCovLosses int     `json:"guided_final_cov_losses"`
	// Median execs to the first ground-truth bug; -1 when the median
	// seed found none inside the budget. BugSpeedup is the median
	// paired first-bug ratio over seeds where both arms found one
	// (0 = no such seed).
	BaseExecsToBug   float64 `json:"base_execs_to_bug"`
	GuidedExecsToBug float64 `json:"guided_execs_to_bug"`
	BugSpeedup       float64 `json:"bug_speedup"`
}

func medianI64(xs []int64) float64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return float64(s[n/2])
	}
	return float64(s[n/2-1]+s[n/2]) / 2
}

func medianF64(xs []float64) float64 {
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

func benchPR8Subject(tb testing.TB, subject string) benchPR8Sub {
	tb.Helper()
	var covB, covG, toBugB, toBugG []int64
	var bugRatios []float64
	s := benchPR8Sub{}
	for seed := int64(1); seed <= benchPR8Seeds; seed++ {
		base := benchPR8Arm(tb, subject, false, seed)
		guided := benchPR8Arm(tb, subject, true, seed)
		// The null arm re-runs the base configuration on a disjoint
		// seed set; base-vs-alt measures pure seed noise.
		alt := benchPR8Arm(tb, subject, false, seed+1000)
		bc, gc, ac := finalCov(base), finalCov(guided), finalCov(alt)
		target := bc
		if gc < target {
			target = gc
		}
		if ac < target {
			target = ac
		}
		s.BaseDeficit += covDeficit(base, target)
		s.GuidedDeficit += covDeficit(guided, target)
		s.AltDeficit += covDeficit(alt, target)
		covB = append(covB, int64(bc))
		covG = append(covG, int64(gc))
		bb, gb := execsToBug(base), execsToBug(guided)
		toBugB = append(toBugB, bb)
		toBugG = append(toBugG, gb)
		if bb > 0 && gb > 0 {
			bugRatios = append(bugRatios, float64(bb)/float64(gb))
		}
		if gc > bc {
			s.GuidedCovWins++
		} else if gc < bc {
			s.GuidedCovLosses++
		}
	}
	if s.GuidedDeficit > 0 {
		s.CovSpeedup = s.BaseDeficit / s.GuidedDeficit
	}
	if s.AltDeficit > 0 {
		s.NullRatio = s.BaseDeficit / s.AltDeficit
	}
	if s.GuidedDeficit > 0 {
		s.CovSpeedupVsAlt = s.AltDeficit / s.GuidedDeficit
	}
	s.BaseFinalCov = medianI64(covB)
	s.GuidedFinalCov = medianI64(covG)
	s.BaseExecsToBug = medianI64(toBugB)
	s.GuidedExecsToBug = medianI64(toBugG)
	s.BugSpeedup = medianF64(bugRatios)
	return s
}

// benchPR8Subjects are the subjects whose campaigns have a nontrivial
// coverage race at this budget (the base arm still carries deficit past
// the first history sample in most seeds). The instant saturators
// (jhead, nm-new, gdk, ffmpeg, pdftotext, mujs, lame, infotocap) reach
// final coverage before the first sample on nearly every seed: both
// arms' deficits are ~0 there and any ratio would be noise over noise.
var benchPR8Subjects = []string{
	"cflow", "exiv2", "mp42aac", "tiffsplit", "flvmeta",
	"jq", "objdump", "sqlite3", "imginfo", "mp3gain",
}

// TestWriteBenchPR8 regenerates BENCH_PR8.json: guided-vs-base campaign
// pairs plus an independently-seeded base null arm per subject,
// reporting total coverage-deficit area, the guided speedup against the
// base-vs-base null band, final-coverage win counts, and first-bug
// medians. Gated because it runs 3×seeds full campaigns per subject:
//
//	WRITE_BENCH_PR8=1 go test -run TestWriteBenchPR8 -timeout 60m .
func TestWriteBenchPR8(t *testing.T) {
	if os.Getenv("WRITE_BENCH_PR8") == "" {
		t.Skip("set WRITE_BENCH_PR8=1 to regenerate BENCH_PR8.json")
	}
	out := benchPR8{
		Note:     "three arms per (subject, seed): base (default-off), guided (-analysis-guide), and alt (base on a disjoint seed set), all under edge feedback where every guidance channel engages. The coverage metric is total deficit area against the weakest arm's per-seed final coverage — the integral of execs-to-coverage over every coverage level, so a single straggler cell cannot dominate. cov_speedup (base/guided) is read against null_ratio (base/alt): the null's distance from 1.0 is the seed-noise floor of the statistic at this trial count, and only speedups outside that band are evidence in either direction. cov_speedup_vs_alt (alt/guided) cross-checks every effect against the independent base sample: a genuine speedup or slowdown clears the band on both ratios, while a lucky or unlucky base seed draw shows up on only one. Subjects are those with a nontrivial coverage race at this budget; the instant saturators carry ~0 deficit in every arm. Regenerate with: WRITE_BENCH_PR8=1 go test -run TestWriteBenchPR8 -timeout 60m .",
		Budget:   benchPR8Budget,
		Seeds:    benchPR8Seeds,
		Subjects: map[string]benchPR8Sub{},
	}
	for _, subject := range benchPR8Subjects {
		s := benchPR8Subject(t, subject)
		out.Subjects[subject] = s
		t.Logf("%-10s deficit base %12.0f guided %12.0f alt %12.0f  speedup %.3f null %.3f vsalt %.3f  final %v/%v (wins %d losses %d)  bug %.0f/%.0f (%.2fx)",
			subject, s.BaseDeficit, s.GuidedDeficit, s.AltDeficit, s.CovSpeedup, s.NullRatio, s.CovSpeedupVsAlt,
			s.BaseFinalCov, s.GuidedFinalCov, s.GuidedCovWins, s.GuidedCovLosses,
			s.BaseExecsToBug, s.GuidedExecsToBug, s.BugSpeedup)
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_PR8.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Println("wrote BENCH_PR8.json")
}
