package fuzz

import (
	"runtime"
	"testing"

	"repro/internal/instrument"
	"repro/internal/subjects"
)

// newLaneFuzzer sets up a seeded path-feedback campaign on a subject
// whose executions are long enough for lanes.
func newLaneFuzzer(t *testing.T, name string, opts Options) *Fuzzer {
	t.Helper()
	sub := subjects.Get(name)
	prog, err := sub.Program()
	if err != nil {
		t.Fatal(err)
	}
	opts.Feedback = instrument.FeedbackPath
	f, err := New(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sub.Seeds {
		f.AddSeed(s)
	}
	return f
}

// TestLanesHelpersRun: with cores to spare, helper lanes execute
// candidates, are started only inside Fuzz, and are joined before Fuzz
// returns — also when the checkpoint hook stops it early.
func TestLanesHelpersRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	f := newLaneFuzzer(t, "cflow", Options{Seed: 3})
	if f.lanes != nil {
		t.Fatal("New and AddSeed started lanes")
	}
	f.SetCheckpointHook(func(f *Fuzzer) bool { return f.Execs() < 5000 })
	f.Fuzz(20000)
	if f.Execs() >= 20000 {
		t.Fatal("checkpoint hook did not stop the campaign early")
	}
	if f.lanes == nil || f.lanes.running != 0 {
		t.Fatal("helper lanes still running after Fuzz returned early")
	}
	f.SetCheckpointHook(nil)
	f.Fuzz(20000)
	if f.lanes.running != 0 {
		t.Fatal("helper lanes still running after Fuzz returned")
	}
	if f.helperExecs() == 0 {
		t.Fatal("no candidate ran on a helper lane")
	}
	if f.execLanes != 4 {
		t.Fatalf("exec lanes = %d, want 4 at GOMAXPROCS 4", f.execLanes)
	}
	if f.specDiscards == 0 {
		t.Fatal("no speculative execution was ever discarded")
	}

	r, err := Restore(f.prog, f.opts, f.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if r.lanes != nil {
		t.Fatal("Restore started lanes")
	}
}

// TestLanesFaultInjectorAtFold: the FaultInjector is consulted only
// while folding, once per counted execution and in exec order — its
// exec index is always the campaign's counter at the moment of the
// call — so lanes cannot change the fault schedule.
func TestLanesFaultInjectorAtFold(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var f *Fuzzer
	var calls, bad int64
	next := int64(0)
	opts := Options{Seed: 9, FaultInjector: func(execs int64, data []byte) bool {
		calls++
		if execs != next || (f != nil && execs != f.stats.Execs) {
			bad++
		}
		next = execs + 1
		return execs%53 == 7
	}}
	f = newLaneFuzzer(t, "cflow", opts)
	f.Fuzz(12000)
	if bad != 0 {
		t.Fatalf("%d injector calls out of exec order", bad)
	}
	if calls != f.stats.Execs {
		t.Fatalf("injector called %d times for %d execs", calls, f.stats.Execs)
	}
	if f.helperExecs() == 0 {
		t.Fatal("no candidate ran on a helper lane; the test does not cover lanes")
	}
	if want := (f.stats.Execs + 53 - 8) / 53; f.stats.InternalFaults != want {
		t.Fatalf("internal faults = %d, want %d", f.stats.InternalFaults, want)
	}
}

// laneSteadySrc runs a fixed ~1000-step loop whatever the input, so
// after its first execution no candidate is ever novel: every batch
// runs to the end on the steady-state path.
const laneSteadySrc = `
func main(input) {
    var i = 0;
    var acc = 0;
    while (i < 200) {
        acc = acc + i;
        i = i + 1;
    }
    return acc + len(input);
}`

// TestLanesZeroAllocSteadyState: a batch on the lanes path allocates
// nothing once its buffers are warm, helper goroutine included.
func TestLanesZeroAllocSteadyState(t *testing.T) {
	f, err := New(compileT(t, laneSteadySrc), Options{Feedback: instrument.FeedbackPath, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f.AddSeed([]byte("seed input"))
	e := f.queue[0]
	if e.Steps < laneMinSteps {
		t.Fatalf("entry steps %d below the lane threshold %d", e.Steps, laneMinSteps)
	}
	defer f.stopLanes()
	avg := testing.AllocsPerRun(200, func() {
		if n := f.runBatch(e, 0, laneBatch, 1, nil, 0); n != laneBatch {
			t.Fatalf("batch cut short at %d: unexpected novelty", n)
		}
	})
	if avg != 0 {
		t.Fatalf("lanes path allocates %.2f times per batch of %d execs", avg, laneBatch)
	}
}
