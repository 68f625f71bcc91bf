package campaign

import (
	"testing"

	"repro/internal/fuzz"
	"repro/internal/instrument"
	"repro/internal/subjects"
	"repro/internal/vm"
)

// FuzzDecodeCheckpoint drives arbitrary checkpoint payloads down the
// path a resume takes: the fuzzer's bytes are the gob payload, sealed
// with Seal, decoded with DecodeCheckpoint and, when that succeeds,
// restored onto flvmeta and run for 200 executions. Every input must
// end in an error or a clean run, never a panic. The seed corpus holds
// a real checkpoint of a short flvmeta campaign.
func FuzzDecodeCheckpoint(f *testing.F) {
	sub := subjects.Get("flvmeta")
	prog := sub.MustProgram()
	opts := fuzz.Options{
		Feedback: instrument.FeedbackPath,
		Seed:     5,
		Entry:    "main",
		Limits:   vm.DefaultLimits(),
	}
	base, err := fuzz.New(prog, opts)
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range sub.Seeds {
		base.AddSeed(s)
	}
	base.Fuzz(3000)
	ck := &Checkpoint{
		Meta: Meta{Subject: "flvmeta", Fuzzer: "path", Seed: 5, Budget: 3000, Entry: "main"},
		Snap: base.Snapshot(),
	}
	sealed, err := ck.Encode()
	if err != nil {
		f.Fatal(err)
	}
	payload, err := Open(sealed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, payload []byte) {
		ck, err := DecodeCheckpoint(Seal(payload))
		if err != nil {
			return
		}
		fz, err := fuzz.Restore(prog, opts, ck.Snap)
		if err != nil {
			return
		}
		fz.Fuzz(fz.StatsSnapshot().Execs + 200)
	})
}
