package fuzz

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/analysis/interproc"
	"repro/internal/cfg"
	"repro/internal/instrument"
	"repro/internal/lang"
	"repro/internal/subjects"
	"repro/internal/vm"
)

// branchTracer records, per (function, block), the set of directions a
// conditional branch took during one execution.
type branchTracer struct {
	// dirs[fnName][block] -> 2-bit set: 1 = then taken, 2 = else taken.
	dirs map[string]map[int]int
	// decide[fnName][edge] -> (block, isThen) for branch edges.
	decide map[string]map[int]branchEdge
}

type branchEdge struct {
	block int
	then  bool
}

func newBranchTracer(prog *cfg.Program) *branchTracer {
	bt := &branchTracer{
		dirs:   make(map[string]map[int]int),
		decide: make(map[string]map[int]branchEdge),
	}
	for _, f := range prog.Funcs {
		m := make(map[int]branchEdge)
		for b := range f.Blocks {
			blk := &f.Blocks[b]
			if blk.Term.Kind != cfg.TermBr || blk.Term.Then == blk.Term.Else {
				continue
			}
			if blk.EdgeThen >= 0 {
				m[blk.EdgeThen] = branchEdge{block: b, then: true}
			}
			if blk.EdgeElse >= 0 {
				m[blk.EdgeElse] = branchEdge{block: b, then: false}
			}
		}
		bt.decide[f.Name] = m
	}
	return bt
}

func (bt *branchTracer) Begin()                 { bt.dirs = make(map[string]map[int]int) }
func (bt *branchTracer) EnterFunc(f *cfg.Func)  {}
func (bt *branchTracer) Ret(f *cfg.Func, b int) {}
func (bt *branchTracer) Edge(f *cfg.Func, e int) {
	be, ok := bt.decide[f.Name][e]
	if !ok {
		return
	}
	m := bt.dirs[f.Name]
	if m == nil {
		m = make(map[int]int)
		bt.dirs[f.Name] = m
	}
	if be.then {
		m[be.block] |= 1
	} else {
		m[be.block] |= 2
	}
}

// snapshotDirs deep-copies the recorded direction sets.
func (bt *branchTracer) snapshotDirs() map[string]map[int]int {
	out := make(map[string]map[int]int, len(bt.dirs))
	for fn, m := range bt.dirs {
		c := make(map[int]int, len(m))
		for b, d := range m {
			c[b] = d
		}
		out[fn] = c
	}
	return out
}

// guideCorpus builds a deterministic mixed corpus for a subject: its
// seed inputs, plus random data, plus randomly mutated seeds.
func guideCorpus(rng *rand.Rand, seeds [][]byte, n int) [][]byte {
	corpus := append([][]byte{}, seeds...)
	for i := 0; i < n; i++ {
		switch {
		case len(seeds) > 0 && i%2 == 0:
			base := seeds[rng.Intn(len(seeds))]
			mut := append([]byte{}, base...)
			for k := 0; k < 1+rng.Intn(4) && len(mut) > 0; k++ {
				mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
			}
			corpus = append(corpus, mut)
		default:
			buf := make([]byte, rng.Intn(24))
			rng.Read(buf)
			corpus = append(corpus, buf)
		}
	}
	return corpus
}

// TestGuideMaskSoundnessFuzz is the mask soundness contract, pinned
// fuzz-style: whenever flipping ONE input byte changes some branch's
// runtime outcome (both runs finishing normally), that branch's static
// fact must claim input dependency and its byte mask must contain the
// flipped offset (or be unbounded). A violation means the analysis
// under-approximated a dependency — the one direction it must never
// err in, since guided mutation restricts drawing to the mask.
func TestGuideMaskSoundnessFuzz(t *testing.T) {
	for _, subName := range []string{"flvmeta", "imginfo"} {
		sub := subjects.Get(subName)
		if sub == nil {
			t.Fatalf("subject %s missing", subName)
		}
		prog, err := sub.Program()
		if err != nil {
			t.Fatal(err)
		}
		fs := interproc.For(prog, prog.ByName["main"])
		bt := newBranchTracer(prog)
		lim := vm.DefaultLimits()
		run := func(in []byte) (map[string]map[int]int, vm.Status) {
			res := vm.Run(prog, "main", in, bt, lim)
			return bt.snapshotDirs(), res.Status
		}

		rng := rand.New(rand.NewSource(11))
		diffs := 0
		for _, base := range guideCorpus(rng, sub.Seeds, 40) {
			if len(base) == 0 {
				continue
			}
			baseDirs, st := run(base)
			if st != vm.StatusOK {
				continue
			}
			for trial := 0; trial < 6; trial++ {
				pos := rng.Intn(len(base))
				flipped := append([]byte{}, base...)
				flipped[pos] ^= byte(1 << rng.Intn(8))
				gotDirs, st2 := run(flipped)
				if st2 != vm.StatusOK {
					continue
				}
				for fn, blocks := range baseDirs {
					fi, ok := prog.ByName[fn]
					if !ok {
						continue
					}
					ff := fs.Fns[fi]
					for b, d := range blocks {
						d2 := gotDirs[fn][b]
						if d2 == 0 || d == d2 {
							continue // not reached after flip, or same outcome
						}
						diffs++
						bf := ff.Branch(b)
						if bf == nil {
							t.Fatalf("%s: no fact for branch %s b%d whose outcome changed", subName, fn, b)
						}
						if !bf.Dep {
							t.Errorf("%s: flipping byte %d changed branch %s b%d (dirs %d->%d) but the fact says input-independent",
								subName, pos, fn, b, d, d2)
							continue
						}
						if !bf.Bytes.All && !bf.Bytes.Contains(int64(pos)) {
							t.Errorf("%s: flipping byte %d changed branch %s b%d but mask %s excludes it",
								subName, pos, fn, b, bf.Bytes.String())
						}
					}
				}
			}
		}
		if diffs == 0 {
			t.Fatalf("%s: no byte flip ever changed a branch outcome — the test is vacuous", subName)
		}
		t.Logf("%s: %d branch-outcome changes checked against masks", subName, diffs)
	}
}

// TestInfeasiblePathsNeverHit drives the differential corpus through
// the standalone Ball-Larus profiler and asserts no statically
// infeasible path ID is ever executed — the under-approximation side
// of the soundness contract (facts may miss infeasible paths, but may
// never brand a feasible one).
func TestInfeasiblePathsNeverHit(t *testing.T) {
	for _, subName := range []string{"flvmeta", "imginfo", "jhead", "cflow"} {
		sub := subjects.Get(subName)
		if sub == nil {
			t.Fatalf("subject %s missing", subName)
		}
		prog, err := sub.Program()
		if err != nil {
			t.Fatal(err)
		}
		fs := interproc.For(prog, prog.ByName["main"])
		infeasible := make(map[string]map[uint64]bool)
		for fi, f := range prog.Funcs {
			ff := fs.Fns[fi]
			if ff == nil || !ff.Walked {
				continue
			}
			m := make(map[uint64]bool, len(ff.Infeasible))
			for _, id := range ff.Infeasible {
				m[id] = true
			}
			infeasible[f.Name] = m
		}

		prof, err := instrument.NewProfiler(prog)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(23))
		for _, in := range guideCorpus(rng, sub.Seeds, 120) {
			prof.Profile("main", in, vm.DefaultLimits())
		}
		for _, pc := range prof.Counts() {
			if infeasible[pc.Func][pc.PathID] {
				t.Errorf("%s: statically infeasible path %s#%d executed %d times",
					subName, pc.Func, pc.PathID, pc.Count)
			}
		}
	}
}

// TestGuidedCampaignDeterministic: with -analysis-guide on, the same
// seed must reproduce the identical campaign, for every feedback the
// guide projects branches onto.
func TestGuidedCampaignDeterministic(t *testing.T) {
	p := compileT(t, fig1)
	for _, fb := range []instrument.Feedback{instrument.FeedbackPath, instrument.FeedbackEdge, instrument.FeedbackBlock} {
		run := func() *Report {
			f, err := New(p, Options{Feedback: fb, Seed: 42, MapSize: 1 << 12, AnalysisGuide: true})
			if err != nil {
				t.Fatal(err)
			}
			f.AddSeed([]byte("hello"))
			f.Fuzz(15000)
			return f.Report()
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("fb=%v: guided campaign not deterministic: execs %d vs %d, queue %d vs %d",
				fb, a.Stats.Execs, b.Stats.Execs, a.QueueLen, b.QueueLen)
		}
	}
}

// TestGuidedRestoredRunMatchesUninterrupted extends the resume
// byte-identity guarantee to guided campaigns: guide state is derived,
// so interrupting and restoring mid-campaign must not perturb anything.
func TestGuidedRestoredRunMatchesUninterrupted(t *testing.T) {
	const budget = 20000
	opts := snapOpts()
	opts.AnalysisGuide = true
	newGuided := func() *Fuzzer {
		f, err := New(compileT(t, fig1), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range snapSeeds {
			f.AddSeed(s)
		}
		return f
	}

	base := newGuided()
	base.Fuzz(budget)
	want := base.Report()

	f := newGuided()
	var snap *Snapshot
	f.SetCheckpointHook(func(f *Fuzzer) bool {
		if f.Execs() >= budget/3 {
			snap = f.Snapshot()
			return false
		}
		return true
	})
	f.Fuzz(budget)
	if snap == nil {
		t.Fatal("hook never fired")
	}
	f2, err := Restore(f.prog, opts, snap)
	if err != nil {
		t.Fatal(err)
	}
	f2.Fuzz(budget)
	got := f2.Report()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("guided resumed report differs:\n got: execs=%d queue=%d bugs=%v\nwant: execs=%d queue=%d bugs=%v",
			got.Stats.Execs, got.QueueLen, got.BugKeys(),
			want.Stats.Execs, want.QueueLen, want.BugKeys())
	}
}

// TestGuideSkipCmpVeto: an observation matching an input-independent
// static comparison site is skipped, but any matching input-dependent
// site vetoes the skip, and an unmatched observation is never skipped.
func TestGuideSkipCmpVeto(t *testing.T) {
	p := compileT(t, `
func main(input) {
    if (len(input) < 1) { return 0; }
    var i = 0;
    var s = 0;
    while (i < 3) { s = s + i; i = i + 1; }
    if (input[0] == 7) { s = s + 1; }
    return s;
}`)
	f, err := New(p, Options{Feedback: instrument.FeedbackEdge, Seed: 1, MapSize: 1 << 12, AnalysisGuide: true})
	if err != nil {
		t.Fatal(err)
	}
	if f.guide == nil {
		t.Fatal("guide not constructed")
	}
	// The loop bound i < 3 is input-independent: skip.
	if !f.guide.skipCmp(vm.CmpObs{A: 1, B: 3, Op: lang.LT, Taken: true}) {
		t.Error("loop-bound comparison not skipped")
	}
	// input[0] == 7 is input-dependent: must not skip.
	if f.guide.skipCmp(vm.CmpObs{A: 200, B: 7, Op: lang.EQ}) {
		t.Error("input-dependent comparison skipped")
	}
	// No static site matches: never skip (could be anything).
	if f.guide.skipCmp(vm.CmpObs{A: 5, B: 99, Op: lang.GE}) {
		t.Error("unmatched observation skipped")
	}
}

// TestGuideMaskFocusesMutations: with a guided fuzzer on a program
// whose interesting branches depend only on the first bytes, the
// queue-entry mask must cover those bytes and the masked mutator must
// draw positions inside the mask when the candidate is long enough.
func TestGuideMaskFocusesMutations(t *testing.T) {
	p := compileT(t, `
func main(input) {
    if (len(input) < 8) { return 0; }
    if (input[1] * input[2] == 3127) {
        return 1;
    }
    return 3;
}`)
	f, err := New(p, Options{Feedback: instrument.FeedbackEdge, Seed: 9, MapSize: 1 << 12, AnalysisGuide: true})
	if err != nil {
		t.Fatal(err)
	}
	f.AddSeed([]byte("AAAAAAAA"))
	// The product condition resists cmplog substitution (the observed
	// operand 3127 never appears literally in the input), so its virgin
	// then-side keeps the branch on the frontier.
	f.Fuzz(2000)
	if f.guide == nil || len(f.guide.branches) == 0 {
		t.Fatal("guide has no projected branches")
	}
	f.updateGuide()
	var mask []interproc.ByteRange
	var total int64
	for _, e := range f.queue {
		if m, tot := f.guideMaskFor(e); tot > 0 {
			mask, total = m, tot
			break
		}
	}
	if total == 0 {
		t.Skip("no frontier branch with a bounded mask at this budget")
	}
	if total > 8 {
		t.Fatalf("mask unexpectedly wide: %d offsets in %v", total, mask)
	}
	g := newRNG(5)
	m := &mutator{rng: &g, maxLen: 64, mask: mask, maskTotal: total}
	for i := 0; i < 200; i++ {
		pos := m.pos(64)
		in := false
		for _, r := range mask {
			if int64(pos) >= r.Lo && int64(pos) <= r.Hi {
				in = true
			}
		}
		if !in {
			t.Fatalf("masked pos draw %d outside mask %v", pos, mask)
		}
	}
}

// TestGuideDefaultOffDrawsIdentical: a nil mask must reproduce the
// exact unguided RNG stream — one Intn per positional draw.
func TestGuideDefaultOffDrawsIdentical(t *testing.T) {
	ga, b := newRNG(77), newRNG(77)
	a := &mutator{rng: &ga, maxLen: 64}
	for i := 0; i < 500; i++ {
		if got, want := a.pos(40), b.Intn(40); got != want {
			t.Fatalf("draw %d: masked-off pos %d != plain Intn %d", i, got, want)
		}
	}
}
