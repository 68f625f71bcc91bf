package fuzz

import (
	"strings"
	"testing"
	"time"

	"repro/internal/instrument"
)

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string // substring of the error; "" means valid
	}{
		{"zero options", Options{}, ""},
		{"negative map size", Options{MapSize: -1}, "MapSize"},
		{"non-power-of-two map size", Options{MapSize: 3000}, "power of two"},
		{"negative max input len", Options{MaxInputLen: -5}, "MaxInputLen"},
		{"negative history samples", Options{HistorySamples: -1}, "HistorySamples"},
		{"negative status period", Options{StatusPeriod: -time.Second}, "StatusPeriod"},
		{"negative status every", Options{StatusEvery: -1}, "StatusEvery"},
		{"unknown engine", Options{Engine: Engine(99)}, "engine"},
		{"engine past the last", Options{Engine: Engine(3)}, "engine"},
		{"bytecode engine", Options{Engine: EngineBytecode}, ""},
		{"interp engine", Options{Engine: EngineInterp}, ""},
		{"unknown profile", Options{Profile: Profile(99)}, "profile"},
		{
			"dict token exceeds max input len",
			Options{MaxInputLen: 4, Dict: [][]byte{[]byte("ok"), []byte("too-long-token")}},
			"exceeds MaxInputLen",
		},
		{
			"dict token within max input len",
			Options{MaxInputLen: 16, Dict: [][]byte{[]byte("ok")}},
			"",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestParseEngine pins the flag surface: every engine name round-trips
// through ParseEngine/String, and the unknown-name error enumerates
// every valid spelling so CLI users see the full menu.
func TestParseEngine(t *testing.T) {
	round := map[string]Engine{
		"":            EngineAuto,
		"auto":        EngineAuto,
		"bytecode":    EngineBytecode,
		"interp":      EngineInterp,
		"interpreter": EngineInterp,
	}
	for name, want := range round {
		got, err := ParseEngine(name)
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, e := range []Engine{EngineAuto, EngineBytecode, EngineInterp} {
		if back, err := ParseEngine(e.String()); err != nil || back != e {
			t.Errorf("engine %v does not round-trip through its String %q", e, e.String())
		}
	}
	if _, err := ParseEngine("cgt"); err == nil {
		t.Error("ParseEngine accepted the removed cgt engine")
	}
	_, err := ParseEngine("turbo")
	if err == nil {
		t.Fatal("ParseEngine accepted an unknown engine")
	}
	for _, name := range []string{"auto", "bytecode", "interp"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("ParseEngine error %q does not list engine %q", err, name)
		}
	}
}

// TestEngineSelection pins how New picks an engine for the feedbacks
// without a bytecode lowering (path2, selective): EngineBytecode
// refuses them, naming the feedback, and EngineAuto runs them on the
// reference interpreter.
func TestEngineSelection(t *testing.T) {
	prog := compileT(t, `
func main(input) {
    if (len(input) < 2) { return 0; }
    if (input[0] == 'A') { return 1; }
    return 2;
}`)
	for _, fb := range []instrument.Feedback{instrument.FeedbackPath2, instrument.FeedbackSelective} {
		opts := Options{Feedback: fb, Seed: 1, MapSize: 1 << 12, Engine: EngineBytecode}
		_, err := New(prog, opts)
		if err == nil || !strings.Contains(err.Error(), fb.String()) {
			t.Errorf("%v: New with EngineBytecode = %v, want an error naming the feedback", fb, err)
		}
		opts.Engine = EngineAuto
		f, err := New(prog, opts)
		if err != nil {
			t.Fatalf("%v: New with EngineAuto: %v", fb, err)
		}
		if got := f.EngineName(); got != "interp" {
			t.Errorf("%v: EngineAuto runs on %q, want interp", fb, got)
		}
		f.AddSeed([]byte("xx"))
		f.Fuzz(2000)
		if rep := f.Report(); rep.Stats.Execs < 2000 || rep.QueueLen == 0 {
			t.Errorf("%v: EngineAuto campaign ran %d execs with queue %d", fb, rep.Stats.Execs, rep.QueueLen)
		}
	}
}

// TestNewRejectsInvalidOptions pins that validation runs at
// construction: a contradictory Options bundle fails fast instead of
// corrupting a campaign later.
func TestNewRejectsInvalidOptions(t *testing.T) {
	prog := compileT(t, `func main(input) { return 0; }`)
	if _, err := New(prog, Options{MapSize: -2}); err == nil {
		t.Fatal("New accepted a negative MapSize")
	}
	if _, err := New(prog, Options{MaxInputLen: 4, Dict: [][]byte{[]byte("oversized")}}); err == nil {
		t.Fatal("New accepted a dict token longer than MaxInputLen")
	}
	if _, err := New(prog, Options{}); err != nil {
		t.Fatalf("New rejected valid zero options: %v", err)
	}
}
