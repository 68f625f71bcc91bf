package fuzz

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis/interproc"
	"repro/internal/bytecode"
	"repro/internal/coverage"
	"repro/internal/vm"
)

// Execution lanes: one campaign runs its havoc/splice candidates on the
// process's idle cores without changing a byte of its outcome.
//
// fuzzOne works in batches. The loop generates up to laneBatch
// candidates serially, saving the generator state after each one.
// Helper goroutines, each with its own bytecode.Machine over the shared
// immutable Program, execute and classify each candidate as soon as it
// is generated, and the loop's goroutine joins them once the batch is
// generated; every lane checks novelty read-only against the virgin
// map as it stood at batch start. Finally the loop folds the
// results strictly in exec order through fold, the code inline
// executions use. At the first candidate that is novel with StatusOK
// the fold discards the rest of the batch, rewinds the generator to
// that candidate's saved state, runs processNew exactly as a serial
// loop would and generates afresh from the next iteration.
//
// That is exact because virgin bits only ever clear (a lane's "no new
// bits" verdict is final; a "maybe new" one is settled by the real
// merge at fold time), candidate generation reads no state the fold
// changes except at that novelty, and crashes, timeouts and faults
// never draw from the generator. The FaultInjector is consulted at fold
// time, in exec order, so the fault schedule is the serial one too.
// Campaign bytes are therefore the same whatever the lane count.

const (
	// laneBatch is the most candidates one batch runs.
	laneBatch = 16
	// laneMinSteps is the recorded cost below which an entry's
	// candidates run inline: cheaper executions do not pay for the
	// batch hand-off.
	laneMinSteps = 256
	// laneSpin is how long an idle helper polls for the next batch
	// before it parks. Parking after every batch loses most of the gain
	// to wake-up latency, and the gaps between batches (folding, a
	// novel entry's cmplog stage, cheap entries run inline) often run
	// to hundreds of microseconds; spinning forever would burn a core
	// the rest of the process may want.
	laneSpin = 500 * time.Microsecond
)

// activeLoops counts the Fuzz loops running in the process; the lanes
// divide GOMAXPROCS among them.
var activeLoops atomic.Int32

// laneSlot is one candidate of a batch and its speculative outcome.
type laneSlot struct {
	data  []byte
	stage uint8
	// rng is the generator state right after the candidate was drawn,
	// the rewind point should it turn out novel.
	rng rng

	res   vm.Result
	fault string
	ok    bool
	// keep marks a candidate whose coverage was retained: a crash, or
	// one the lane found possibly novel. idx/cls hold its classified
	// touched cells and cmps its comparison log (res.Cmps aliases it).
	keep bool
	idx  []uint32
	cls  []uint8
	cmps []vm.CmpObs
}

// laneWorker is one lane's execution state.
type laneWorker struct {
	mach *bytecode.Machine
	cov  *coverage.Map
	// execs counts the slots the worker ran (a helper's is read only
	// after it is joined).
	execs int64
}

// lanePool holds a campaign's helper lanes and the batch they share.
// It is created on first use inside Fuzz; helpers are started lazily
// there and joined before Fuzz returns.
type lanePool struct {
	entry  string
	virgin *coverage.Virgin
	slots  [laneBatch]laneSlot
	// own is the loop's lane: the campaign's machine and map.
	own laneWorker

	// ticket publishes a batch and hands out its slots: the batch epoch
	// in the top 32 bits, the slot count in the next 16, the next
	// unclaimed slot in the low 16. One word, so a helper that wakes
	// late can never claim a slot of a batch it did not see posted.
	ticket atomic.Uint64
	epoch  uint32
	// ready counts the slots generated so far, done those finished.
	ready atomic.Int32
	done  atomic.Int32

	helpers []*laneWorker
	running int
	wg      sync.WaitGroup
	quit    atomic.Bool
	// Parked helpers wait on cond; sleeping counts them so a post only
	// takes the lock when someone is asleep.
	mu       sync.Mutex
	cond     *sync.Cond
	sleeping atomic.Int32
}

// helpersFor returns how many helper lanes fuzzOne may use for e, and
// records the campaign's available lane count for telemetry. Lanes
// apply to the bytecode engine only, and only to entries whose
// executions are long enough to pay for the hand-off.
func (f *Fuzzer) helpersFor(e *Entry) int {
	if f.mach == nil {
		return 0
	}
	h := runtime.GOMAXPROCS(0)/max(int(activeLoops.Load()), 1) - 1
	h = min(max(h, 0), laneBatch-1)
	f.execLanes = 1 + h
	if e.Steps < laneMinSteps {
		return 0
	}
	return h
}

// runBatch runs havoc/splice iterations i..i+n-1 of e as one batch on
// the loop's and the helpers' lanes and folds them. It returns how many
// iterations it consumed: n, or fewer when a novel candidate cut the
// batch short.
func (f *Fuzzer) runBatch(e *Entry, i, n, helpers int, gMask []interproc.ByteRange, gTotal int64) int {
	p := f.startLanes(helpers)
	p.post(n)
	for k := 0; k < n; k++ {
		s := &p.slots[k]
		s.data = append(s.data[:0], f.candidate(e, i+k, gMask, gTotal)...)
		s.stage = f.curStage
		s.rng = f.rng
		p.ready.Store(int32(k + 1))
	}
	p.finish(n)
	for k := 0; k < n; k++ {
		s := &p.slots[k]
		f.curStage = s.stage
		msg, ok := f.injectFault(s.data)
		if ok {
			msg, ok = s.fault, s.ok
		}
		f.cov.Reset()
		if ok && s.keep {
			f.cov.SetSparse(s.idx, s.cls)
		}
		out := execOutcome{res: s.res}
		f.fold(&out, s.data, msg, ok)
		if out.novelty != coverage.NoNew && out.res.Status == vm.StatusOK {
			f.specDiscards += int64(n - k - 1)
			f.rng = s.rng
			f.processNew(s.data, out, e.Depth+1, e.ID)
			return k + 1
		}
	}
	return n
}

// startLanes returns the campaign's lane pool with at least helpers
// helper goroutines running.
func (f *Fuzzer) startLanes(helpers int) *lanePool {
	p := f.lanes
	if p == nil {
		p = &lanePool{entry: f.opts.Entry, virgin: f.virgin, own: laneWorker{mach: f.mach, cov: f.cov}}
		p.cond = sync.NewCond(&p.mu)
		f.lanes = p
	}
	for p.running < helpers {
		if p.running == len(p.helpers) {
			cov := coverage.NewMap(f.opts.MapSize)
			p.helpers = append(p.helpers, &laneWorker{
				mach: bytecode.NewMachine(f.mach.Program(), cov, f.opts.Limits),
				cov:  cov,
			})
		}
		w := p.helpers[p.running]
		p.running++
		p.wg.Add(1)
		go p.helper(w, p.epoch)
	}
	return p
}

// stopLanes joins the helper goroutines; Fuzz calls it on every return.
func (f *Fuzzer) stopLanes() {
	p := f.lanes
	if p == nil || p.running == 0 {
		return
	}
	p.quit.Store(true)
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
	p.quit.Store(false)
	p.running = 0
}

// helperExecs returns how many executions helper lanes have run.
func (f *Fuzzer) helperExecs() int64 {
	var n int64
	if f.lanes != nil {
		for _, w := range f.lanes.helpers {
			n += w.execs
		}
	}
	return n
}

// post publishes a batch of n slots. Helpers run each slot as soon as
// the loop has generated it (ready), so generation overlaps execution.
func (p *lanePool) post(n int) {
	p.epoch++
	p.done.Store(0)
	p.ready.Store(0)
	p.ticket.Store(uint64(p.epoch)<<32 | uint64(n)<<16)
	if p.sleeping.Load() > 0 {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// finish runs the batch's unclaimed slots on the loop's lane and
// returns once every slot has finished.
func (p *lanePool) finish(n int) {
	p.work(&p.own, p.epoch)
	for spins := 0; p.done.Load() < int32(n); spins++ {
		if spins&1023 == 1023 {
			runtime.Gosched()
		}
	}
}

// work claims and runs slots of batch epoch until none is left.
func (p *lanePool) work(w *laneWorker, epoch uint32) {
	for {
		t := p.ticket.Load()
		if uint32(t>>32) != epoch {
			return
		}
		k, n := uint16(t), uint16(t>>16)
		if k >= n {
			return
		}
		if int32(k) >= p.ready.Load() {
			if p.quit.Load() {
				return // the loop panicked mid-generation
			}
			continue // the loop is still generating slot k
		}
		if !p.ticket.CompareAndSwap(t, t+1) {
			continue
		}
		p.runSlot(w, &p.slots[k])
		p.done.Add(1)
	}
}

// helper is a helper lane's goroutine: run each posted batch's slots,
// spin a while for the next one, then park.
func (p *lanePool) helper(w *laneWorker, seen uint32) {
	defer p.wg.Done()
	for {
		epoch, ok := p.await(seen)
		if !ok {
			return
		}
		p.work(w, epoch)
		seen = epoch
	}
}

// await waits for a batch newer than seen and returns its epoch; ok is
// false when the pool is stopping.
func (p *lanePool) await(seen uint32) (epoch uint32, ok bool) {
	start := time.Now()
	for i := 1; i&1023 != 0 || time.Since(start) < laneSpin; i++ {
		if e := uint32(p.ticket.Load() >> 32); e != seen {
			return e, true
		}
		if p.quit.Load() {
			return 0, false
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sleeping.Add(1)
	defer p.sleeping.Add(-1)
	for {
		if e := uint32(p.ticket.Load() >> 32); e != seen {
			return e, true
		}
		if p.quit.Load() {
			return 0, false
		}
		p.cond.Wait()
	}
}

// runSlot executes one candidate on w and classifies it. Coverage and
// comparisons are kept only when the fold may need them: for a crash,
// or when the read-only check against the batch-start virgin map finds
// possibly new bits.
func (p *lanePool) runSlot(w *laneWorker, s *laneSlot) {
	w.execs++
	w.cov.Reset()
	s.res, s.fault, s.ok = runMachine(w.mach, p.entry, s.data)
	s.keep = false
	s.res.Output = nil
	if !s.ok {
		return
	}
	w.cov.ClassifySparse()
	if s.res.Status == vm.StatusCrash || p.virgin.PeekSparse(w.cov) != coverage.NoNew {
		s.keep = true
		dirty, bits := w.cov.Dirty(), w.cov.Bytes()
		s.idx = append(s.idx[:0], dirty...)
		s.cls = s.cls[:0]
		for _, i := range dirty {
			s.cls = append(s.cls, bits[i])
		}
		s.cmps = append(s.cmps[:0], s.res.Cmps...)
		s.res.Cmps = s.cmps
	} else {
		s.res.Cmps = nil
	}
}

// injectFault is the fold-time fault injection of a lane execution:
// ok is false when Options.FaultInjector fails it (or panics).
func (f *Fuzzer) injectFault(data []byte) (faultMsg string, ok bool) {
	defer recoverFault(&faultMsg, &ok)
	if f.injected(data) {
		return injectedFault, false
	}
	return "", true
}

// runMachine runs one input on a lane's machine, recovering a panic
// inside the machine as a fault exactly as runProtected does.
func runMachine(mach *bytecode.Machine, entry string, data []byte) (res vm.Result, faultMsg string, ok bool) {
	defer recoverFault(&faultMsg, &ok)
	return mach.Run(entry, data), "", true
}
