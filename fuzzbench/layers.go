package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/balllarus"
	"repro/internal/bytecode"
	"repro/internal/campaign"
	"repro/internal/cfg"
	"repro/internal/coverage"
	"repro/internal/fuzz"
	"repro/internal/instrument"
	"repro/internal/lang"
	"repro/internal/sema"
	"repro/internal/subjects"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// layers accumulates the traced run's per-layer measurements over its
// rounds. The methods the rounds call unconditionally are no-ops on a
// nil receiver, which is what the untraced run passes, so the timed
// code is the same in both runs.
type layers struct {
	// rec is the current round's telemetry recorder, attached to the
	// single-fuzzer campaigns for their stage spans.
	rec    *telemetry.Recorder
	rounds int
	// sum holds per-entry-point milliseconds and counts, summed over
	// rounds.
	sum map[string]float64
	// Campaign totals read from final snapshots.
	execs, draws, cmplog, added int64
	queue, camps                int
	imbalance                   []float64
}

func newLayers() *layers { return &layers{sum: make(map[string]float64)} }

// last returns ls for the last of reps tries and nil for the others, so
// that repeated calls are recorded once.
func (ls *layers) last(rep int) *layers {
	if rep == reps-1 {
		return ls
	}
	return nil
}

func (ls *layers) recorder() *telemetry.Recorder {
	if ls == nil {
		return nil
	}
	if ls.rec == nil {
		ls.rec = newRecorder()
	}
	return ls.rec
}

// add returns the time since t and adds it, in milliseconds, to the
// named entry point's total.
func (ls *layers) add(name string, t time.Time) time.Duration {
	d := time.Since(t)
	if ls != nil {
		ls.sum[name+"_ms"] += float64(d) / 1e6
	}
	return d
}

func (ls *layers) count(name string, v float64) {
	if ls != nil {
		ls.sum[name] += v
	}
}

// noteCampaign records a finished single-fuzzer campaign.
func (ls *layers) noteCampaign(f *fuzz.Fuzzer) {
	if ls != nil {
		ls.noteSnapshot(f.Snapshot())
	}
}

// noteSnapshot records a finished campaign's counters from its final
// state.
func (ls *layers) noteSnapshot(s *fuzz.Snapshot) {
	ls.execs += s.Stats.Execs
	ls.draws += int64(s.RNGDraws)
	ls.cmplog += s.Stats.CmplogExecs
	ls.added += s.Stats.Added
	ls.queue += len(s.Entries)
	ls.camps++
}

// endRound folds the round's stage spans in.
func (ls *layers) endRound() {
	if ls == nil {
		return
	}
	if ls.rec != nil {
		for _, st := range ls.rec.StageStats() {
			ls.sum["stage."+st.Stage] += float64(st.TotalNs) / 1e6
		}
		ls.rec = nil
	}
	ls.rounds++
}

// checkpointProbe times writing one checkpoint the way a campaign
// writes it (encode, seal, atomic write) from a checkpoint the fleet
// wrote. It writes next to the worker's checkpoints, under a name
// LoadLatest ignores, and removes the file again.
func (ls *layers) checkpointProbe(mfs *memFS, wdir string, ck *campaign.Checkpoint) error {
	if ls == nil {
		return nil
	}
	path := filepath.Join(wdir, "probe.ckpt")
	t := time.Now()
	data, err := ck.Encode()
	if err == nil {
		err = campaign.WriteFileAtomic(mfs, path, data)
	}
	ls.add("campaign.checkpoint", t)
	ls.count("campaign.checkpoint_n", 1)
	if err != nil {
		return err
	}
	return mfs.Remove(path)
}

// noteMemFS records the checkpoint files the fleet wrote.
func (ls *layers) noteMemFS(mfs *memFS) {
	mfs.mu.Lock()
	defer mfs.mu.Unlock()
	ls.count("campaign.ckpt_files", float64(mfs.ckptFiles))
	ls.count("campaign.ckpt_bytes", float64(mfs.ckptBytes))
}

// noteWorkerRates records the ratio of the fastest to the slowest
// worker's exec rate over the resumed segment, from each worker's
// last telemetry snapshot.
func (ls *layers) noteWorkerRates(ws []telemetry.WorkerSnapshot, execsAtResume []int64) {
	var rates []float64
	for _, w := range ws {
		if w.ID < len(execsAtResume) && w.Elapsed > 0 {
			rates = append(rates, float64(w.Execs-execsAtResume[w.ID])/w.Elapsed.Seconds())
		}
	}
	if len(rates) < 2 {
		return
	}
	sort.Float64s(rates)
	if rates[0] > 0 {
		ls.imbalance = append(ls.imbalance, rates[len(rates)-1]/rates[0])
	}
}

// noteJournal records a closed journal's event count and size.
func (ls *layers) noteJournal(events int, dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var size int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			size += info.Size()
		}
	}
	ls.count("journal.events", float64(events))
	ls.count("journal.bytes", float64(size))
	return nil
}

// traced alternates untraced and traced rounds on the same seed set
// until the time is used. The traced rounds run under the CPU profiler
// and collect the per-layer measurements; each pair gives one
// traced-over-untraced ratio of the end-to-end timings, the tracing
// overhead. The front-end and replay probes run last.
func (b *bench) traced() (map[string]metric, error) {
	start := time.Now()
	ls := newLayers()
	samples := make(map[string]int64)
	var last *round
	var eps, setup, resume []float64
	for r := 0; r == 0 || b.roomFor(start, r); r++ {
		set := r % b.w.sets
		ref, err := b.runRound(set, nil)
		if err != nil {
			return nil, err
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		rd, err := b.runRound(set, ls)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		if err := attribute(prof.Bytes(), samples); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		eps = append(eps, float64(rd.execs)/rd.fuzz.Seconds()/(float64(ref.execs)/ref.fuzz.Seconds()))
		setup = append(setup, rd.setup.Seconds()/ref.setup.Seconds())
		resume = append(resume, rd.resume.Seconds()/ref.resume.Seconds())
		last = rd
	}

	out := ls.metrics()
	var total int64
	for _, n := range samples {
		total += n
	}
	for _, c := range shareCategories {
		share := 0.0
		if total > 0 {
			share = float64(samples[c]) / float64(total)
		}
		out["share."+c] = metric{share, "fraction"}
	}
	out["share.samples"] = metric{float64(total), "count"}
	fe, err := frontEnd(b.w)
	if err != nil {
		return nil, err
	}
	for k, v := range fe {
		out[k] = v
	}
	rp, err := replay(last.done, b.cfg.replays)
	if err != nil {
		return nil, err
	}
	for k, v := range rp {
		out[k] = v
	}
	out["trace.execs_per_s_ratio"] = metric{median(eps), "ratio"}
	out["trace.setup_s_ratio"] = metric{median(setup), "ratio"}
	out["trace.resume_s_ratio"] = metric{median(resume), "ratio"}
	out["fault_frac"] = metric{float64(b.failed) / float64(b.attempted), "1/exec"}
	return out, nil
}

// metrics turns the accumulated sums into per-round means and ratios.
func (ls *layers) metrics() map[string]metric {
	n := float64(ls.rounds)
	perRound := func(key string) float64 { return ls.sum[key] / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	imb := 0.0
	if len(ls.imbalance) > 0 {
		imb = median(ls.imbalance)
	}
	execs := float64(ls.execs)
	return map[string]metric{
		"fuzz.new_ms":                 {perRound("fuzz.new_ms"), "ms"},
		"fuzz.addseed_ms":             {perRound("fuzz.addseed_ms"), "ms"},
		"fuzz.fuzz_ms":                {perRound("fuzz.fuzz_ms"), "ms"},
		"fuzz.restore_ms":             {perRound("fuzz.restore_ms"), "ms"},
		"fuzz.restore_draws":          {perRound("fuzz.restore_draws"), "count"},
		"fuzz.calibrate_ms":           {perRound("stage.calibrate"), "ms"},
		"fuzz.havoc_ms":               {perRound("stage.havoc"), "ms"},
		"fuzz.cmplog_ms":              {perRound("stage.cmplog"), "ms"},
		"fuzz.rng_draws_per_exec":     {ratio(float64(ls.draws), execs), "1/exec"},
		"fuzz.cmplog_exec_frac":       {ratio(float64(ls.cmplog), execs), "fraction"},
		"fuzz.queue_len":              {ratio(float64(ls.queue), float64(ls.camps)), "count"},
		"fuzz.novel_per_kexec":        {ratio(1000*float64(ls.added), execs), "1/kexec"},
		"campaign.checkpoint_ms":      {ratio(ls.sum["campaign.checkpoint_ms"], ls.sum["campaign.checkpoint_n"]), "ms"},
		"campaign.checkpoint_bytes":   {ratio(ls.sum["campaign.ckpt_bytes"], ls.sum["campaign.ckpt_files"]), "bytes"},
		"campaign.checkpoints":        {perRound("campaign.ckpt_files"), "count"},
		"campaign.load_ms":            {perRound("campaign.load_ms"), "ms"},
		"fleet.start_ms":              {perRound("fleet.start_ms"), "ms"},
		"fleet.run_ms":                {perRound("fleet.run_ms"), "ms"},
		"fleet.load_manifest_ms":      {perRound("fleet.load_manifest_ms"), "ms"},
		"fleet.attach_ms":             {perRound("fleet.attach_ms"), "ms"},
		"fleet.sync_pubs":             {perRound("fleet.sync_pubs"), "count"},
		"fleet.restarts":              {perRound("fleet.restarts"), "count"},
		"fleet.worker_rate_imbalance": {imb, "ratio"},
		"journal.events":              {perRound("journal.events"), "count"},
		"journal.bytes":               {perRound("journal.bytes"), "bytes"},
		"journal.close_ms":            {perRound("journal.close_ms"), "ms"},
	}
}

// frontEndReps is how many times the front-end probe compiles the
// workload's subjects; it reports the median.
const frontEndReps = 5

// frontEnd times each front-end stage on fresh copies of the workload's
// subjects: lang.Parse, sema.Check, cfg.Build, balllarus.Encode of
// every function, and instrument.CompiledFor (bytecode lowering) for
// each of the workload's feedbacks. Times are summed over subjects.
func frontEnd(w *workload) (map[string]metric, error) {
	stages := []string{"lang.parse_ms", "sema.check_ms", "cfg.build_ms", "balllarus.encode_ms", "bytecode.compile_ms"}
	samples := make(map[string][]float64)
	var instrs, nops int
	for rep := 0; rep < frontEndReps; rep++ {
		tot := make(map[string]time.Duration)
		instrs, nops = 0, 0
		for _, name := range w.subjects {
			sub := subjects.Get(name)
			t := time.Now()
			ast, err := lang.Parse(sub.Source)
			tot["lang.parse_ms"] += time.Since(t)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			t = time.Now()
			err = sema.Check(ast)
			tot["sema.check_ms"] += time.Since(t)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			t = time.Now()
			prog, err := cfg.Build(ast)
			tot["cfg.build_ms"] += time.Since(t)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			t = time.Now()
			for _, f := range prog.Funcs {
				if _, err := balllarus.Encode(f); err != nil {
					return nil, fmt.Errorf("%s: %s: %w", name, f.Name, err)
				}
			}
			tot["balllarus.encode_ms"] += time.Since(t)
			for _, fb := range w.feedbacks {
				t = time.Now()
				cp, ok := instrument.CompiledFor(fb.fb, prog, instrument.Config{})
				tot["bytecode.compile_ms"] += time.Since(t)
				if !ok {
					return nil, fmt.Errorf("%s: no bytecode lowering for %s", name, fb.name)
				}
				instrs += cp.NumInstrs()
				nops += cp.NumNops()
			}
		}
		for _, s := range stages {
			samples[s] = append(samples[s], float64(tot[s])/1e6)
		}
	}
	out := map[string]metric{
		"bytecode.instrs": {float64(instrs), "count"},
		"bytecode.nops":   {float64(nops), "count"},
	}
	for _, s := range stages {
		out[s] = metric{median(samples[s]), "ms"}
	}
	return out, nil
}

// replay runs n executions of the round's final queues, cycling
// through every entry, each on a fresh bytecode.Machine per campaign,
// and times Machine.Run, Map.ClassifySparse and Virgin.MergeSparse
// call by call (each time includes one clock read).
func replay(done []finished, n int) (map[string]metric, error) {
	type item struct {
		c  int
		in []byte
	}
	var items []item
	machs := make([]*bytecode.Machine, len(done))
	maps := make([]*coverage.Map, len(done))
	virgins := make([]*coverage.Virgin, len(done))
	for i, d := range done {
		cp, ok := instrument.CompiledFor(d.fb, d.prog, instrument.Config{})
		if !ok {
			return nil, fmt.Errorf("no bytecode lowering for feedback %v", d.fb)
		}
		maps[i] = coverage.NewMap(coverage.DefaultMapSize)
		virgins[i] = coverage.NewVirgin(coverage.DefaultMapSize)
		machs[i] = bytecode.NewMachine(cp, maps[i], vm.DefaultLimits())
		for _, in := range d.queue {
			items = append(items, item{i, in})
		}
	}
	if len(items) == 0 || n <= 0 {
		return nil, fmt.Errorf("nothing to replay")
	}
	runNs := make([]float64, n)
	var steps, cells int64
	var classify, merge time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		it := items[i%len(items)]
		m := maps[it.c]
		m.Reset()
		t := time.Now()
		res := machs[it.c].Run("main", it.in)
		runNs[i] = float64(time.Since(t))
		steps += res.Steps
		t = time.Now()
		m.ClassifySparse()
		classify += time.Since(t)
		cells += int64(m.CountNonZero())
		t = time.Now()
		virgins[it.c].MergeSparse(m)
		merge += time.Since(t)
	}
	runtime.ReadMemStats(&after)
	var total float64
	for _, ns := range runNs {
		total += ns
	}
	sort.Float64s(runNs)
	// p99.9 at the benchmark's 10000 replays: the highest percentile
	// with at least ten samples beyond it.
	tail := runNs[int(math.Ceil(0.999*float64(n)))-1]
	fn := float64(n)
	return map[string]metric{
		"bytecode.replays":          {fn, "count"},
		"bytecode.ns_per_exec.p50":  {runNs[n/2], "ns"},
		"bytecode.ns_per_exec.p999": {tail, "ns"},
		"bytecode.ns_per_step":      {total / float64(steps), "ns"},
		"bytecode.steps_per_exec":   {float64(steps) / fn, "count"},
		"bytecode.allocs_per_exec":  {float64(after.Mallocs-before.Mallocs) / fn, "count"},
		"coverage.classify_ns":      {float64(classify) / fn, "ns"},
		"coverage.merge_ns":         {float64(merge) / fn, "ns"},
		"coverage.cells_per_exec":   {float64(cells) / fn, "count"},
	}, nil
}
