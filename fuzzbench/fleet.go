package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/cfg"
	"repro/internal/fleet"
	"repro/internal/fuzz"
	"repro/internal/journal"
	"repro/internal/subjects"
	"repro/internal/vm"
)

const (
	fleetWorkers   = 2
	fleetSyncEvery = 20000
	fleetCkptEvery = 25000
)

// fleetRound runs every subject of the set as a durable fleet: Start,
// Run until StopAfter interrupts it at half the per-worker budget, then
// resume from the manifest and Run to the end. Checkpoints go to an
// in-memory filesystem, so the run measures the fuzzer's checkpoint
// work rather than the host's disk; the shared journal is written to
// disk.
func (b *bench) fleetRound(set int, ls *layers) (*round, error) {
	rd := &round{}
	var sigs []string
	for i, name := range b.w.subjects {
		sub := subjects.Get(name)
		dir, err := b.workDir(fmt.Sprintf("fleet-%d", i))
		if err != nil {
			return nil, err
		}
		if err := freshPeak(); err != nil {
			return nil, err
		}
		fr, err := b.runFleet(sub, campaignSeed(b.cfg.seed, set, i), dir, ls)
		if err != nil {
			return nil, fmt.Errorf("%s fleet: %w", name, err)
		}
		if err := rd.notePeak(); err != nil {
			return nil, err
		}
		rd.setup += fr.setup
		rd.fuzz += fr.fuzz
		rd.resume += fr.resume
		rep := fr.res.Merged
		edges := len(fuzz.ShowMap(fr.prog, rep.Queue, "", vm.Limits{}))
		b.checkReport(sub, fr.prog, rep)
		b.checkFleet(name, fr.res)
		rd.execs += rep.Stats.Execs
		rd.edges += edges
		rd.bugs += len(rep.Bugs)
		rd.done = append(rd.done, finished{prog: fr.prog, fb: pathFB.fb, queue: rep.Queue})
		sigs = append(sigs, fmt.Sprintf("%s/fleet:%d:%d:%s", name, rep.Stats.Execs, edges, strings.Join(rep.BugKeys(), ",")))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	ls.endRound()
	rd.sig = strings.Join(sigs, " ")
	return rd, nil
}

// checkFleet requires a clean fleet run: no restarts, wedges,
// quarantined inputs or retired workers.
func (b *bench) checkFleet(name string, res *fleet.Result) {
	bad := int64(res.Restarts + res.Wedges + len(res.Quarantined) + len(res.Retired))
	if bad > 0 {
		b.failed += bad - 1
		b.problem("%s fleet: %d restarts, %d wedges, %d quarantined, %d retired",
			name, res.Restarts, res.Wedges, len(res.Quarantined), len(res.Retired))
	}
}

// fleetRun is one durable fleet campaign's outcome.
type fleetRun struct {
	prog                *cfg.Program
	res                 *fleet.Result
	setup, fuzz, resume time.Duration
}

// runFleet runs one subject's fleet campaign through interruption and
// resume. Setup covers compiling the subject and Supervisor.Start.
// Resume covers fleet.LoadManifest, a restore of every worker's latest
// checkpoint (campaign.LoadLatest and fuzz.Restore, the calls each
// worker makes when the resumed Run begins) and Supervisor.Attach.
func (b *bench) runFleet(sub *subjects.Subject, seed int64, dir string, ls *layers) (*fleetRun, error) {
	fr := &fleetRun{}
	mfs := newMemFS()
	state := filepath.Join(dir, "state")
	jdir := filepath.Join(dir, "journal")
	var log lockedLog
	budget := b.budget()
	opts := func(jw *journal.Writer) fleet.Options {
		return fleet.Options{
			Workers:   fleetWorkers,
			SyncEvery: fleetSyncEvery / b.cfg.scale,
			CkptEvery: fleetCkptEvery / b.cfg.scale,
			Watchdog:  5 * time.Second,
			FS:        mfs,
			Log:       &log,
			Telemetry: newRecorder(),
			Journal:   jw,
		}
	}
	base := fuzz.Options{Feedback: pathFB.fb}
	meta := campaign.Meta{Subject: sub.Name, Fuzzer: pathFB.name, Seed: seed, Budget: budget}

	// First segment: start, then run until a worker reaches half the
	// budget.
	start := time.Now()
	prog, err := cfg.Compile(sub.Source)
	if err != nil {
		return nil, err
	}
	fr.prog = prog
	jw, err := journal.Open(jdir, journal.Options{})
	if err != nil {
		return nil, err
	}
	o := opts(jw)
	o.StopAfter = budget / 2
	sup := fleet.New(state, o)
	t := time.Now()
	err = sup.Start(prog, base, meta, sub.Seeds)
	ls.add("fleet.start", t)
	fr.setup = time.Since(start)
	if err != nil {
		jw.Close()
		return nil, err
	}
	t = time.Now()
	res, err := sup.Run()
	fr.fuzz += ls.add("fleet.run", t)
	if err := b.closeJournal(jw, ls); err != nil {
		return nil, err
	}
	if err != nil {
		return nil, err
	}
	if !res.Interrupted {
		return nil, fmt.Errorf("first segment was not interrupted by StopAfter")
	}

	// Second segment: resume from the manifest and run to the end.
	start = time.Now()
	t = time.Now()
	man, err := fleet.LoadManifest(mfs, state)
	ls.add("fleet.load_manifest", t)
	if err != nil {
		return nil, err
	}
	var execsAtResume []int64
	for w := 0; w < man.Workers; w++ {
		wdir := filepath.Join(state, fmt.Sprintf("worker-%d", w))
		t = time.Now()
		ck, warns, err := campaign.LoadLatest(mfs, wdir)
		ls.add("campaign.load", t)
		if err != nil {
			return nil, fmt.Errorf("worker %d: %w", w, err)
		}
		if len(warns) > 0 {
			b.problem("%s worker %d checkpoint: %s", sub.Name, w, strings.Join(warns, "; "))
		}
		wopts := base
		wopts.Seed = fleet.WorkerSeed(seed, w)
		wopts.KeepCrashInputs = true
		t = time.Now()
		_, err = fuzz.Restore(prog, wopts, ck.Snap)
		ls.add("fuzz.restore", t)
		if err != nil {
			return nil, fmt.Errorf("worker %d: restore: %w", w, err)
		}
		ls.count("fuzz.restore_draws", float64(ck.Snap.RNGDraws))
		if err := ls.checkpointProbe(mfs, wdir, ck); err != nil {
			b.problem("%s worker %d checkpoint write: %v", sub.Name, w, err)
		}
		execsAtResume = append(execsAtResume, ck.Snap.Stats.Execs)
	}
	jw, err = journal.Open(jdir, journal.Options{})
	if err != nil {
		return nil, err
	}
	o = opts(jw)
	sup = fleet.New(state, o)
	t = time.Now()
	err = sup.Attach(prog, base, man)
	ls.add("fleet.attach", t)
	fr.resume = time.Since(start)
	if err != nil {
		jw.Close()
		return nil, err
	}
	t = time.Now()
	res, err = sup.Run()
	fr.fuzz += ls.add("fleet.run", t)
	if err := b.closeJournal(jw, ls); err != nil {
		return nil, err
	}
	if err != nil {
		return nil, err
	}
	if res.Interrupted || res.Merged == nil {
		return nil, fmt.Errorf("resumed segment did not finish")
	}
	fr.res = res
	// Restarts, wedges and quarantines are checked on the result; of
	// the supervisor's other notes, failed checkpoint and manifest
	// writes are failures and the rest (such as the documented
	// publication-watermark fallback on resume) are progress notes.
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		switch {
		case strings.Contains(line, "failed"):
			b.problem("%s fleet: %s", sub.Name, line)
		case line != "":
			b.logf("%s fleet: %s", sub.Name, line)
		}
	}
	if ls != nil {
		man, err := fleet.LoadManifest(mfs, state)
		if err != nil {
			return nil, err
		}
		ls.count("fleet.sync_pubs", float64(len(man.Pubs)))
		ls.count("fleet.restarts", float64(res.Restarts))
		ls.noteWorkerRates(o.Telemetry.Workers(), execsAtResume)
		for w := 0; w < man.Workers; w++ {
			ck, _, err := campaign.LoadLatest(mfs, filepath.Join(state, fmt.Sprintf("worker-%d", w)))
			if err != nil {
				return nil, fmt.Errorf("worker %d final checkpoint: %w", w, err)
			}
			ls.noteSnapshot(ck.Snap)
		}
		ls.noteMemFS(mfs)
	}
	events, diag, err := journal.ReadDir(jdir)
	if err != nil {
		return nil, err
	}
	if !diag.OK() {
		b.problem("%s journal: errors %v, gaps %v", sub.Name, diag.Errors, diag.Gaps)
	}
	if ls != nil {
		if err := ls.noteJournal(len(events), jdir); err != nil {
			return nil, err
		}
	}
	return fr, nil
}

// closeJournal closes a fleet's journal, timing the call.
func (b *bench) closeJournal(jw *journal.Writer, ls *layers) error {
	t := time.Now()
	err := jw.Close()
	ls.add("journal.close", t)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// lockedLog collects supervisor log lines from concurrent workers.
type lockedLog struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}
