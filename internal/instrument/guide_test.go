package instrument_test

import (
	"testing"

	"repro/internal/analysis/interproc"
	"repro/internal/coverage"
	"repro/internal/instrument"
	"repro/internal/vm"
)

// contradictory has a provably infeasible path suffix (x > 100 then
// x < 50 both-then), so the facts mark some of its path IDs dead.
const contradictory = `
func main(input) {
    if (len(input) < 1) { return 0; }
    var x = input[0];
    var r = 0;
    if (x > 100) { r = 1; }
    if (x < 50) { r = r + 2; }
    return r;
}
`

// TestPathCellIndexMatchesTracer: the cell predictor must agree with
// the live tracer's mixing for every function and path ID, else covmap
// would resolve cells to the wrong paths. The predictor is checked
// against the recorded cells of concrete executions.
func TestPathCellIndexMatchesTracer(t *testing.T) {
	const mapSize = 1 << 12
	p := compile(t, contradictory)
	for _, mix := range []instrument.MixMode{instrument.MixXOR, instrument.MixHash} {
		c := instrument.Config{Mix: mix}
		// Predict the cells of every enumerable path of main.
		facts := interproc.ForProgram(p)
		mi := p.ByName["main"]
		ff := facts.Fns[mi]
		if !ff.Walked {
			t.Fatal("main not enumerable")
		}
		predicted := make(map[uint32]bool)
		for id := uint64(0); id < ff.NumPaths; id++ {
			predicted[instrument.PathCellIndex(c, mi, id, mapSize)] = true
		}

		m := coverage.NewMap(mapSize)
		tr, err := instrument.New(instrument.FeedbackPath, p, m, c)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 256; b += 3 {
			m.Reset()
			vm.Run(p, "main", []byte{byte(b)}, tr, vm.DefaultLimits())
			m.ClassifySparse()
			for _, idx := range m.Indices() {
				if !predicted[idx] {
					t.Fatalf("mix=%v: tracer wrote cell %d outside the predicted set", mix, idx)
				}
			}
		}
	}
}
