package campaign

import (
	"testing"

	"repro/internal/fuzz"
)

// TestCGTMetaEngineRoundTrip guards the provenance path: the engine name
// a campaign records in its journal start event parses back to the same
// engine, and the name of the deleted coverage-guided tracing engine
// ("cgt") no longer parses.
func TestCGTMetaEngineRoundTrip(t *testing.T) {
	for _, e := range []fuzz.Engine{fuzz.EngineAuto, fuzz.EngineBytecode, fuzz.EngineInterp} {
		back, err := fuzz.ParseEngine(e.String())
		if err != nil || back != e {
			t.Errorf("engine %v round-trip: got %v, %v", e, back, err)
		}
	}
	if e, err := fuzz.ParseEngine("cgt"); err == nil {
		t.Errorf(`ParseEngine("cgt") = %v, want an error`, e)
	}
}
