package bytecode_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/coverage"
	"repro/internal/instrument"
	"repro/internal/subjects"
	"repro/internal/vm"
)

// runRecord is everything one execution produces, copied out of the
// machine's pooled buffers.
type runRecord struct {
	res vm.Result
	cov []byte
}

func record(mach *bytecode.Machine, m *coverage.Map, in []byte) runRecord {
	m.Reset()
	res := mach.Run("main", in)
	res.Output = append([]int64(nil), res.Output...)
	res.Cmps = append([]vm.CmpObs(nil), res.Cmps...)
	return runRecord{res: res, cov: append([]byte(nil), m.Bytes()...)}
}

func (r runRecord) diff(want runRecord) string {
	switch {
	case !reflect.DeepEqual(r.res, want.res):
		return fmt.Sprintf("result %+v, want %+v", r.res, want.res)
	case !bytes.Equal(r.cov, want.cov):
		return "coverage map bytes differ"
	}
	return ""
}

// TestSharedProgramConcurrentRuns pins the invariant the fuzzer's
// execution lanes rest on: a compiled Program is immutable, so machines
// on several goroutines can run it at once. For every subject under
// every bytecode feedback, goroutines sharing one *Program each run the
// whole corpus (in different orders, so each machine has a different
// history) and must reproduce a single-threaded run's Result, crash and
// map bytes exactly. Run it under -race.
func TestSharedProgramConcurrentRuns(t *testing.T) {
	const goroutines = 4
	const mapSize = 1 << 13
	for _, sub := range subjects.All() {
		t.Run(sub.Name, func(t *testing.T) {
			prog, err := sub.Program()
			if err != nil {
				t.Fatal(err)
			}
			inputs := subjectInputs(sub, rand.New(rand.NewSource(7)), 40)
			for _, fb := range allFeedbacks {
				cp, ok := instrument.CompiledFor(fb, prog, instrument.Config{})
				if !ok {
					t.Fatalf("%v: no lowering", fb)
				}
				m := coverage.NewMap(mapSize)
				single := bytecode.NewMachine(cp, m, vm.DefaultLimits())
				want := make([]runRecord, len(inputs))
				for i, in := range inputs {
					want[i] = record(single, m, in)
				}
				var wg sync.WaitGroup
				errs := make(chan string, goroutines)
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						m := coverage.NewMap(mapSize)
						mach := bytecode.NewMachine(cp, m, vm.DefaultLimits())
						for _, i := range rand.New(rand.NewSource(int64(g))).Perm(len(inputs)) {
							if d := record(mach, m, inputs[i]).diff(want[i]); d != "" {
								errs <- fmt.Sprintf("%v goroutine %d input %q: %s", fb, g, inputs[i], d)
								return
							}
						}
					}(g)
				}
				wg.Wait()
				close(errs)
				for e := range errs {
					t.Error(e)
				}
			}
		})
	}
}
