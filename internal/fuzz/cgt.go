package fuzz

import (
	"repro/internal/bytecode"
	"repro/internal/coverage"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// This file is the fuzzing side of the coverage-guided tracing (CGT)
// engine (-engine=cgt): tracing-on-demand execution with self-patching
// probe elision and coverage-preserving retrace.
//
// The fast path runs a patched clone of the compiled program in which
// every probe whose coverage-map cell is consumed has been rewritten
// to a non-probing variant — statically for probes with compile-time
// map cells (bytecode.Patchable), record-side for dynamic-index probes
// (Machine.SetElide). A cell is consumed once every hit-count bucket
// any execution can still produce there has been observed in the
// virgin map: all eight buckets under the baseline rule, or just the
// reachable ones when the static hit-count bound analysis applies
// (edge and block feedback; see bytecode.CellHitBounds). A fast run
// therefore produces a partial coverage map: exact counts on live
// cells, zero on consumed cells.
//
// Why that partial map decides novelty exactly: a consumed cell's
// remaining virgin bits, if any, correspond to buckets no execution
// can reach, so a full run's writes there can never clear another bit;
// and live cells receive exactly the same counts under both programs
// (elision removes writes, it never reroutes control flow or perturbs
// hit counts elsewhere). Hence MergeSparse(partial) returns the same
// Novelty verdict and performs the same virgin mutation as
// MergeSparse(full) — the elision rule of coverage-preserving
// coverage-guided tracing (Nagy et al.), tightened by loop-bound
// reasoning.
//
// The merge verdict is also the retrace trigger. Whenever the campaign
// needs the canonical full classified map — a novel input about to be
// queued, a crash to deduplicate against the crash-virgin map, or the
// very first seed (whose coverage is read back unconditionally) — the
// input is re-executed once under the pristine fully-instrumented
// machine. Everything downstream (calibration, queue entries, novelty
// decisions, crash records, reports) consumes only retraced maps or
// merge verdicts, so campaign results are byte-identical to
// EngineBytecode; the retrace/elision counters live here, not in
// Stats, to keep Report comparisons exact.
//
// The patch plan is recomputed only at deterministic boundaries —
// queue-cycle starts (right after the favored-corpus cull) and
// checkpoint restore — never mid-cycle, and always as a pure function
// of the current virgin map, so resumed and fleet-synced campaigns
// derive their plans from identical state.

// cgtState carries the CGT engine's machinery and its private
// counters. All counters are engine-internal: they never appear in
// Stats, Report, or Snapshot (reports must be byte-identical to
// EngineBytecode, and a restored campaign simply replans from the
// restored virgin map).
type cgtState struct {
	patch    *bytecode.Patchable
	fast     *bytecode.Machine
	consumed *coverage.Bitset
	// fastExecs counts fast-path executions, retraces the full-
	// instrumentation re-executions among them, replans the plan
	// recomputations; elided mirrors the current plan's elided-site
	// count (a gauge).
	fastExecs int64
	retraces  int64
	replans   int64
	elided    int
}

// CGTInfo is the CGT engine's observability snapshot, surfaced for
// telemetry and the benchmark harness.
type CGTInfo struct {
	// FastExecs counts executions dispatched to the patched machine;
	// Retraces counts how many of them were re-executed under full
	// instrumentation. The steady-state retrace rate is
	// Retraces/FastExecs over a trailing window.
	FastExecs int64
	Retraces  int64
	// Replans counts patch-plan recomputations (cycle starts and
	// checkpoint restores).
	Replans int64
	// ElidedSites of PatchSites statically patchable probe sites are
	// currently patched out; ConsumedCells is the map-wide count of
	// consumed cells (dynamic-probe elision uses it too).
	ElidedSites   int
	PatchSites    int
	ConsumedCells int
}

// CGTInfo reports the coverage-guided tracing engine's internal
// counters; ok is false for other engines.
func (f *Fuzzer) CGTInfo() (info CGTInfo, ok bool) {
	if f.cgt == nil {
		return CGTInfo{}, false
	}
	return CGTInfo{
		FastExecs:     f.cgt.fastExecs,
		Retraces:      f.cgt.retraces,
		Replans:       f.cgt.replans,
		ElidedSites:   f.cgt.elided,
		PatchSites:    f.cgt.patch.NumSites(),
		ConsumedCells: f.cgt.consumed.Count(),
	}, true
}

// replanCGT recomputes the probe-elision plan from the virgin map. It
// is called only at queue-cycle starts and checkpoint restore, so the
// plan is a deterministic function of campaign state at well-defined
// boundaries — the property the snapshot/fleet byte-identity suites
// pin down.
func (f *Fuzzer) replanCGT() {
	if f.cgt == nil {
		return
	}
	f.virgin.ConsumedInto(f.cgt.consumed, f.cgt.patch.CellMasks())
	if f.guide != nil {
		// Analysis-guided tightening: cells only statically-infeasible
		// path IDs can write are never touched by any execution, so
		// marking them consumed up front cannot suppress novelty — it
		// only lets elision start before the virgin map proves the same
		// thing dynamically.
		for _, c := range f.guide.deadCells {
			f.cgt.consumed.Set(c)
		}
	}
	f.cgt.elided = f.cgt.patch.Replan(f.cgt.consumed)
	f.cgt.replans++
}

// executeCGT is execute for the CGT engine: run the patched fast
// machine, decide novelty from the partial map, and retrace under full
// instrumentation only when the canonical map is actually needed. It
// shares fold's accounting (countExec, quarantine, settle), so it
// mutates Stats, the virgin maps and the journal exactly as execute
// does.
func (f *Fuzzer) executeCGT(data []byte) (out execOutcome) {
	f.cov.Reset()
	res, faultMsg, ok := f.runProtectedOn(f.cgt.fast, data, true)
	f.countExec()
	if !ok {
		// Quarantined like execute: injected faults fire before the
		// fast run (same pre-increment exec index as the other
		// engines), and mid-run injected panics abort the fast run at
		// the exact step they would abort the pristine one — patched
		// opcodes charge no steps. No retrace: the execution
		// contributes nothing to the campaign.
		f.quarantine(&out, data, faultMsg)
		return out
	}
	f.cgt.fastExecs++
	f.stats.TotalSteps += res.Steps
	f.cov.ClassifySparse()
	nov := f.virgin.MergeSparse(f.cov)

	// Retrace when the campaign will read the map itself rather than
	// just the merge verdict: novelty (the input is being queued and
	// its classified indices recorded), any crash (crash-virgin
	// dedup needs full-map bits), or an empty queue (AddSeed reads
	// the map back unconditionally for the first seed). A timeout
	// without novelty needs none — probes charge no steps, so the
	// fast run timed out at the identical step and only the Timeouts
	// counter is touched.
	if nov != coverage.NoNew || res.Status == vm.StatusCrash || len(f.queue) == 0 {
		f.cgt.retraces++
		var endSpan func()
		if f.tel != nil {
			endSpan = f.tel.StartSpan(telemetry.StageRetrace)
		}
		f.cov.Reset()
		// No fault injection on the retrace: the injector already
		// passed for this exec index, and charging it twice would
		// desync the fault schedule from the other engines.
		full, _, fullOK := f.runProtectedOn(f.mach, data, false)
		if endSpan != nil {
			endSpan()
		}
		if fullOK {
			res = full
			f.cov.ClassifySparse()
			// No virgin re-merge: the partial merge above already
			// cleared every bit the full map could (an elided cell's
			// remaining virgin bits are unreachable by construction).
			// Steps were counted once; the retrace's are identical.
		}
	}

	out.res = res
	f.settle(&out, data, nov)
	return out
}
