package fuzz_test

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fuzz"
	"repro/internal/instrument"
	"repro/internal/journal"
	"repro/internal/subjects"
	"repro/internal/vm"
)

// laneProcs are the GOMAXPROCS values the identity tests compare: no
// helper lane, one, and three.
var laneProcs = []int{1, 2, 4}

// laneLimits are the identity campaigns' default limits: a step limit
// 16 times below vm.DefaultLimits keeps subjects whose seeds time out
// (gdk) cheap, and timeouts stay a covered path.
func laneLimits() vm.Limits {
	lim := vm.DefaultLimits()
	lim.MaxSteps = 1 << 16
	return lim
}

// laneRun is everything a campaign writes that must not depend on the
// lane count.
type laneRun struct {
	report, snapshot, journal []byte
}

// runLaneCampaign runs one campaign at the given GOMAXPROCS: fuzz to
// half the budget (stopped by the checkpoint hook), snapshot, fuzz to
// the end on the same fuzzer, and capture the canonical report and the
// journal.
func runLaneCampaign(t *testing.T, sub *subjects.Subject, opts fuzz.Options, budget int64, procs int) laneRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	prog, err := sub.Program()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts.Journal = w
	f, err := fuzz.New(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sub.Seeds {
		f.AddSeed(s)
	}
	half := budget / 2
	f.SetCheckpointHook(func(f *fuzz.Fuzzer) bool { return f.Execs() < half })
	f.Fuzz(budget)
	var snap bytes.Buffer
	if err := gob.NewEncoder(&snap).Encode(f.Snapshot()); err != nil {
		t.Fatal(err)
	}
	f.SetCheckpointHook(nil)
	f.Fuzz(budget)
	rep, err := campaign.CanonicalReport(f.Report())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var jb []byte
	for _, s := range segs {
		b, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		jb = append(jb, b...)
	}
	return laneRun{report: rep, snapshot: snap.Bytes(), journal: jb}
}

// checkLaneIdentity runs the campaign at every laneProcs value and
// requires identical report, half-budget snapshot and journal bytes.
func checkLaneIdentity(t *testing.T, sub *subjects.Subject, opts fuzz.Options, budget int64) {
	t.Helper()
	want := runLaneCampaign(t, sub, opts, budget, laneProcs[0])
	for _, procs := range laneProcs[1:] {
		got := runLaneCampaign(t, sub, opts, budget, procs)
		if !bytes.Equal(got.report, want.report) {
			t.Errorf("GOMAXPROCS=%d: report bytes differ from GOMAXPROCS=%d", procs, laneProcs[0])
		}
		if !bytes.Equal(got.snapshot, want.snapshot) {
			t.Errorf("GOMAXPROCS=%d: half-budget snapshot bytes differ from GOMAXPROCS=%d", procs, laneProcs[0])
		}
		if !bytes.Equal(got.journal, want.journal) {
			t.Errorf("GOMAXPROCS=%d: journal bytes differ from GOMAXPROCS=%d", procs, laneProcs[0])
		}
	}
}

// TestLanesByteIdentity: every subject under path and pcguard (edge)
// feedback gives the same campaign bytes whatever the lane count.
func TestLanesByteIdentity(t *testing.T) {
	budget := int64(6000)
	if testing.Short() {
		budget = 2000
	}
	for _, sub := range subjects.All() {
		for _, fb := range []instrument.Feedback{instrument.FeedbackPath, instrument.FeedbackEdge} {
			t.Run(sub.Name+"/"+fb.String(), func(t *testing.T) {
				opts := fuzz.Options{Feedback: fb, Seed: 11, Limits: laneLimits(), KeepCrashInputs: true}
				checkLaneIdentity(t, sub, opts, budget)
			})
		}
	}
}

// TestLanesByteIdentityVariants repeats the identity check with
// injected faults at fold time, an injected mid-execution panic,
// limits tight enough that timeouts and resource crashes are common,
// and analysis-guided havoc masks.
func TestLanesByteIdentityVariants(t *testing.T) {
	budget := int64(4000)
	if testing.Short() {
		budget = 1500
	}
	tight := laneLimits()
	tight.MaxSteps = 600
	tight.MaxHeapCells = 256
	panicky := laneLimits()
	panicky.InjectPanicAtStep = 1500
	variants := []struct {
		name string
		opts func() fuzz.Options
	}{
		{"fault-injector", func() fuzz.Options {
			return fuzz.Options{Limits: laneLimits(), FaultInjector: func(execs int64, data []byte) bool {
				return execs%97 == 13 || (len(data) > 3 && data[0] == data[3])
			}}
		}},
		{"inject-panic-at-step", func() fuzz.Options { return fuzz.Options{Limits: panicky} }},
		{"tight-limits", func() fuzz.Options { return fuzz.Options{Limits: tight} }},
		{"analysis-guide", func() fuzz.Options { return fuzz.Options{Limits: laneLimits(), AnalysisGuide: true} }},
	}
	for _, sub := range subjects.All() {
		for _, v := range variants {
			t.Run(sub.Name+"/"+v.name, func(t *testing.T) {
				opts := v.opts()
				opts.Feedback = instrument.FeedbackPath
				opts.Seed = 5
				opts.KeepCrashInputs = true
				checkLaneIdentity(t, sub, opts, budget)
			})
		}
	}
}
