package instrument

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis/interproc"
	"repro/internal/cfg"
	"repro/internal/subjects"
)

// TestCompiledForMemoized asserts the compile-once contract: repeated
// and concurrent lookups for the same (program, feedback, config)
// return the identical *bytecode.Program, so a process compiles each
// subject at most once per feedback no matter how many fuzzers,
// resumes, or eval workers share it.
func TestCompiledForMemoized(t *testing.T) {
	prog, err := subjects.Get("cflow").Program()
	if err != nil {
		t.Fatal(err)
	}
	for _, fb := range []Feedback{FeedbackEdge, FeedbackPath, FeedbackBlock, FeedbackNGram, FeedbackPathAFL} {
		first, ok := CompiledFor(fb, prog, Config{})
		if !ok {
			t.Fatalf("%v: no lowering", fb)
		}
		var wg sync.WaitGroup
		ptrs := make([]interface{}, 16)
		for i := range ptrs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cp, _ := CompiledFor(fb, prog, Config{})
				ptrs[i] = cp
			}(i)
		}
		wg.Wait()
		for i, p := range ptrs {
			if p != interface{}(first) {
				t.Fatalf("%v: call %d returned a different compiled program pointer", fb, i)
			}
		}
	}
}

// TestCompiledForKeyedByConfig asserts distinct configs get distinct
// compilations (and that an explicit default config hits the same
// entry as the zero config after normalization).
func TestCompiledForKeyedByConfig(t *testing.T) {
	prog, err := subjects.Get("cflow").Program()
	if err != nil {
		t.Fatal(err)
	}
	base, _ := CompiledFor(FeedbackPath, prog, Config{})
	naive, _ := CompiledFor(FeedbackPath, prog, Config{NaivePlacement: true})
	if base == naive {
		t.Fatal("naive-placement config shares the optimized compilation")
	}
	norm, _ := CompiledFor(FeedbackPath, prog, Config{}.withDefaults())
	if base != norm {
		t.Fatal("normalized default config missed the cache entry for the zero config")
	}
}

// TestCompiledForExtensionsFallBack pins that the extension feedbacks
// report no lowering, forcing engine selection back to the reference
// interpreter rather than silently mis-instrumenting.
func TestCompiledForExtensionsFallBack(t *testing.T) {
	prog, err := subjects.Get("cflow").Program()
	if err != nil {
		t.Fatal(err)
	}
	for _, fb := range []Feedback{FeedbackPath2, FeedbackSelective} {
		if cp, ok := CompiledFor(fb, prog, Config{}); ok || cp != nil {
			t.Fatalf("%v: expected no bytecode lowering", fb)
		}
	}
}

// TestCompiledForDoesNotPinPrograms: the memo lives with the program,
// so a program nobody references any more is collected even though
// its compilations (and its interprocedural facts, memoized the same
// way) point back at it. A process-wide cache keyed by the program
// would keep every program ever compiled alive.
func TestCompiledForDoesNotPinPrograms(t *testing.T) {
	collected := make(chan struct{}, 4)
	for _, fb := range []Feedback{FeedbackEdge, FeedbackPath} {
		func() {
			prog, err := cfg.Compile(subjects.Get("cflow").Source)
			if err != nil {
				t.Fatal(err)
			}
			cp, ok := CompiledFor(fb, prog, Config{})
			if !ok || cp.Source() != prog {
				t.Fatalf("%v: no compilation of the program", fb)
			}
			if facts := interproc.ForProgram(prog); facts.Prog != prog {
				t.Fatal("facts of another program")
			}
			runtime.AddCleanup(prog, func(ch chan struct{}) { ch <- struct{}{} }, collected)
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for got := 0; got < 2; {
		runtime.GC()
		select {
		case <-collected:
			got++
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatalf("%d of 2 dropped programs collected: compilations pin their source program", got)
			}
		}
	}
}
