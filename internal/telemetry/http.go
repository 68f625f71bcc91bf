package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/journal"
)

// Handler returns the live-metrics endpoint:
//
//	/            minimal self-contained HTML dashboard
//	/metrics     Prometheus text exposition (version 0.0.4)
//	/snapshot.json  full JSON snapshot (counters, rates, series, stages)
//	/healthz     liveness probe (JSON; 503 when publishing has stalled)
//	/genealogy   provenance report rendered from the on-disk journal
//
// All handlers read only published snapshots, locked aggregates, and
// (for /genealogy) on-disk journal files, so serving them never touches
// campaign state.
func (r *Recorder) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", r.serveMetrics)
	mux.HandleFunc("/snapshot.json", r.serveJSON)
	mux.HandleFunc("/healthz", r.serveHealthz)
	mux.HandleFunc("/genealogy", r.serveGenealogy)
	mux.HandleFunc("/coverage", r.serveCoverage)
	mux.HandleFunc("/", r.serveDashboard)
	return mux
}

// healthStale is how old the newest published snapshot may grow before
// /healthz flips to 503: a fuzzing campaign publishes at every queue
// boundary, so a minute of silence means the process is wedged, not
// merely slow.
const healthStale = 60 * time.Second

// WorkerHealth is one worker's liveness row in the /healthz document.
type WorkerHealth struct {
	ID      int     `json:"id"`
	Execs   int64   `json:"execs"`
	AgeSecs float64 `json:"age_secs"`
	Stale   bool    `json:"stale"`
}

// Health is the /healthz response document.
type Health struct {
	OK          bool    `json:"ok"`
	ElapsedSecs float64 `json:"elapsed_secs"`
	// PublishAgeSecs is the age of the newest published snapshot
	// (campaign-level or any worker's); negative when nothing has been
	// published yet.
	PublishAgeSecs float64 `json:"publish_age_secs"`
	Execs          int64   `json:"execs"`
	// Checkpoint liveness: age of the last durable checkpoint and the
	// exec counter it captured. Absent for non-durable campaigns.
	CheckpointAgeSecs  float64        `json:"checkpoint_age_secs,omitempty"`
	CheckpointExecs    int64          `json:"checkpoint_execs,omitempty"`
	CheckpointRecorded bool           `json:"checkpoint_recorded"`
	Workers            []WorkerHealth `json:"workers,omitempty"`
}

// health assembles the liveness document. A campaign is healthy when
// someone — the single fuzzer or at least one fleet worker — has
// published within healthStale. Individual stale workers are flagged
// but do not fail the probe: the supervisor recycles them, and the
// fleet as a whole is still making progress.
func (r *Recorder) health() Health {
	now := r.now()
	h := Health{ElapsedSecs: r.Elapsed().Seconds(), PublishAgeSecs: -1}
	freshest := time.Time{}
	if s := r.Latest(); s != nil {
		freshest = s.When
		h.Execs = s.Execs
	}
	for _, w := range r.Workers() {
		age := now.Sub(w.When)
		h.Workers = append(h.Workers, WorkerHealth{
			ID:      w.ID,
			Execs:   w.Execs,
			AgeSecs: age.Seconds(),
			Stale:   age > healthStale,
		})
		if w.When.After(freshest) {
			freshest = w.When
		}
	}
	if len(h.Workers) > 0 {
		h.Execs = r.AggregateWorkers().Execs
	}
	if !freshest.IsZero() {
		h.PublishAgeSecs = now.Sub(freshest).Seconds()
	}
	if when, execs, ok := r.LastCheckpoint(); ok {
		h.CheckpointRecorded = true
		h.CheckpointAgeSecs = now.Sub(when).Seconds()
		h.CheckpointExecs = execs
	}
	h.OK = !freshest.IsZero() && now.Sub(freshest) <= healthStale
	return h
}

func (r *Recorder) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	h := r.health()
	w.Header().Set("Content-Type", "application/json")
	if !h.OK {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(h)
}

// serveGenealogy renders the provenance report from the on-disk journal
// registered via SetJournalDir. Rendering from files — not live fuzzer
// state — keeps the handler race-free against the fuzz goroutine; the
// page is as fresh as the writer's last flush.
func (r *Recorder) serveGenealogy(w http.ResponseWriter, _ *http.Request) {
	dir := r.JournalDir()
	if dir == "" {
		http.Error(w, "no journal attached (run with -journal)", http.StatusNotFound)
		return
	}
	events, diag, err := journal.ReadDir(dir)
	if err != nil {
		http.Error(w, fmt.Sprintf("reading journal: %v", err), http.StatusInternalServerError)
		return
	}
	corpus := corpusFromEvents(events)
	title := "pafuzz genealogy"
	if info := r.Info(); info.Banner != "" {
		title += " · " + info.Banner
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(journal.HTMLReport(title, diag.Dir, corpus, events, r.resolver()))
}

// serveCoverage renders the coverage-cartography page through the
// renderer registered via SetCoveragePage, feeding it the on-disk
// journal's events (the same atomic snapshot/flush path /genealogy
// reads). Display-only by construction: the handler touches files and
// the offline reverse index, never the fuzz goroutine's state.
func (r *Recorder) serveCoverage(w http.ResponseWriter, _ *http.Request) {
	page := r.coverage()
	if page == nil {
		http.Error(w, "no coverage cartography attached (subject campaigns register it automatically)", http.StatusNotFound)
		return
	}
	dir := r.JournalDir()
	if dir == "" {
		http.Error(w, "no journal attached (run with -journal)", http.StatusNotFound)
		return
	}
	events, _, err := journal.ReadDir(dir)
	if err != nil {
		http.Error(w, fmt.Sprintf("reading journal: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := page(w, events); err != nil {
		http.Error(w, fmt.Sprintf("rendering coverage: %v", err), http.StatusInternalServerError)
	}
}

// corpusFromEvents reconstructs corpus provenance from the journal's
// novelty events — the live-dashboard path, where the queue itself is
// owned by the fuzz goroutine and cannot be read safely.
func corpusFromEvents(events []journal.Event) []journal.CorpusMeta {
	var out []journal.CorpusMeta
	for _, ev := range events {
		if ev.Kind != journal.KindNovelty || ev.Entry == nil {
			continue
		}
		m := journal.CorpusMeta{
			Worker:     ev.Worker,
			ID:         *ev.Entry,
			Parent:     -1,
			Stage:      ev.Stage,
			Depth:      ev.Depth,
			Steps:      ev.Steps,
			FoundAt:    ev.Execs,
			Len:        ev.Len,
			CovCount:   ev.Cov,
			FirstCells: ev.Cells,
		}
		if ev.Parent != nil {
			m.Parent = *ev.Parent
		}
		out = append(out, m)
	}
	return out
}

// promMetric is one exposition entry.
type promMetric struct {
	name, help, typ string
	value           float64
}

// promMetrics flattens the latest snapshot into the exposition set.
func (r *Recorder) promMetrics() []promMetric {
	s := r.Latest()
	if s == nil {
		s = &Snapshot{}
	}
	p, _ := r.LastPoint()
	c := func(name, help string, v int64) promMetric {
		return promMetric{name: name, help: help, typ: "counter", value: float64(v)}
	}
	g := func(name, help string, v float64) promMetric {
		return promMetric{name: name, help: help, typ: "gauge", value: v}
	}
	return []promMetric{
		c("pafuzz_execs_total", "Total target executions.", s.Execs),
		c("pafuzz_timeouts_total", "Executions ended by the step limit.", s.Timeouts),
		c("pafuzz_crash_execs_total", "Executions that crashed.", s.CrashExecs),
		c("pafuzz_steps_total", "Total interpreter/bytecode steps.", s.TotalSteps),
		c("pafuzz_queue_added_total", "Queue entries ever added (novelty events).", s.Added),
		c("pafuzz_cycles_total", "Completed queue cycles.", s.Cycles),
		c("pafuzz_unique_crashes_total", "Unique crashes by stack hash.", s.UniqueCrashes),
		c("pafuzz_unique_bugs_total", "Unique ground-truth bugs.", s.UniqueBugs),
		c("pafuzz_internal_faults_total", "Quarantined harness panics.", s.InternalFaults),
		c("pafuzz_stage_execs_total_seed", "Executions spent on seed calibration.", s.SeedExecs),
		c("pafuzz_stage_execs_total_havoc", "Executions spent in havoc mutations.", s.HavocExecs),
		c("pafuzz_stage_execs_total_splice", "Executions spent in splice mutations.", s.SpliceExecs),
		c("pafuzz_stage_execs_total_cmplog", "Executions spent in the cmplog stage.", s.CmplogExecs),
		g("pafuzz_exec_lanes", "Execution lanes (fuzz loop plus helpers) available to expensive entries.", float64(s.ExecLanes)),
		c("pafuzz_spec_discards_total", "Speculative lane executions discarded at a novelty rollback.", s.SpecDiscards),
		g("pafuzz_queue_depth", "Current queue size.", float64(s.QueueLen)),
		g("pafuzz_queue_favored", "Favored (set-cover) corpus size.", float64(s.Favored)),
		g("pafuzz_queue_pending", "Queue entries never fuzzed.", float64(s.PendingTotal)),
		g("pafuzz_queue_pending_favored", "Favored entries never fuzzed.", float64(s.PendingFavored)),
		g("pafuzz_queue_max_depth", "Deepest mutation chain in the queue.", float64(s.MaxDepth)),
		g("pafuzz_coverage_count", "Coverage map indices ever touched.", float64(s.CoverageCount)),
		g("pafuzz_coverage_bits", "Consumed virgin map cells.", float64(s.CoverageBits)),
		g("pafuzz_map_density", "Touched fraction of the coverage map.", s.MapDensity()),
		g("pafuzz_execs_per_sec", "Sampled execution rate.", p.ExecsPerSec),
		g("pafuzz_novelty_per_sec", "Sampled novelty (queue-add) rate.", p.NoveltyPerSec),
		g("pafuzz_crashes_per_sec", "Sampled crash rate.", p.CrashesPerSec),
		g("pafuzz_timeouts_per_sec", "Sampled timeout rate.", p.TimeoutsPerSec),
		g("pafuzz_fleet_workers", "Configured fleet worker count (0 for single campaigns).", float64(s.FleetWorkers)),
		g("pafuzz_fleet_active", "Fleet workers currently running or parked at a sync barrier.", float64(s.FleetActive)),
		c("pafuzz_fleet_restarts_total", "Fleet worker restarts (panic or wedge recoveries).", s.FleetRestarts),
		c("pafuzz_fleet_wedges_total", "Watchdog wedge declarations.", s.FleetWedges),
		c("pafuzz_fleet_retired_total", "Workers retired after repeated failures.", s.FleetRetired),
		c("pafuzz_fleet_quarantined_total", "Poison inputs quarantined by the fleet supervisor.", s.FleetQuarantined),
	}
}

func (r *Recorder) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	for _, m := range r.promMetrics() {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", m.name, m.help, m.name, m.typ, m.name, m.value)
	}
	// Per-worker series for fleet campaigns, labeled by worker id.
	if ws := r.Workers(); len(ws) > 0 {
		for _, m := range []struct {
			name, help, typ string
			val             func(Counters) int64
		}{
			{"pafuzz_worker_execs_total", "Per-worker target executions.", "counter", func(c Counters) int64 { return c.Execs }},
			{"pafuzz_worker_queue_depth", "Per-worker queue size.", "gauge", func(c Counters) int64 { return c.QueueLen }},
			{"pafuzz_worker_crash_execs_total", "Per-worker crashing executions.", "counter", func(c Counters) int64 { return c.CrashExecs }},
			{"pafuzz_worker_unique_bugs_total", "Per-worker unique ground-truth bugs.", "counter", func(c Counters) int64 { return c.UniqueBugs }},
		} {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
			for _, w := range ws {
				fmt.Fprintf(&b, "%s{worker=\"%d\"} %d\n", m.name, w.ID, m.val(w.Counters))
			}
		}
	}
	// Stage latency histograms in Prometheus histogram form: le labels
	// are the power-of-two bucket upper bounds in seconds, cumulative.
	for _, agg := range r.StageStats() {
		name := "pafuzz_stage_duration_seconds"
		fmt.Fprintf(&b, "# HELP %s Stage span latency.\n# TYPE %s histogram\n", name, name)
		sort.Slice(agg.Buckets, func(i, j int) bool { return agg.Buckets[i].LowNs < agg.Buckets[j].LowNs })
		cum := int64(0)
		for _, bk := range agg.Buckets {
			cum += bk.Count
			le := float64(2*bk.LowNs) / 1e9
			if bk.LowNs == 0 {
				le = 2.0 / 1e9
			}
			fmt.Fprintf(&b, "%s_bucket{stage=%q,le=%q} %d\n", name, agg.Stage, formatLE(le), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{stage=%q,le=\"+Inf\"} %d\n", name, agg.Stage, agg.Count)
		fmt.Fprintf(&b, "%s_sum{stage=%q} %g\n", name, agg.Stage, float64(agg.TotalNs)/1e9)
		fmt.Fprintf(&b, "%s_count{stage=%q} %d\n", name, agg.Stage, agg.Count)
	}
	fmt.Fprint(w, b.String())
}

func formatLE(v float64) string { return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0") }

// JSONSnapshot is the /snapshot.json document.
type JSONSnapshot struct {
	Info     Info       `json:"info"`
	Elapsed  int64      `json:"elapsed_ns"`
	Snapshot *Snapshot  `json:"counters,omitempty"`
	Latest   *Point     `json:"latest,omitempty"`
	Series   []Point    `json:"series"`
	Stages   []StageAgg `json:"stages"`
}

// snapshotJSON assembles the full JSON document.
func (r *Recorder) snapshotJSON() JSONSnapshot {
	doc := JSONSnapshot{
		Info:    r.Info(),
		Elapsed: int64(r.Elapsed()),
		Series:  r.Points(),
		Stages:  r.StageStats(),
	}
	doc.Snapshot = r.Latest()
	if p, ok := r.LastPoint(); ok {
		doc.Latest = &p
	}
	return doc
}

func (r *Recorder) serveJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(r.snapshotJSON())
}

func (r *Recorder) serveDashboard(w http.ResponseWriter, req *http.Request) {
	if req.URL.Path != "/" {
		http.NotFound(w, req)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, dashboardHTML)
}

// dashboardHTML is the self-contained live dashboard: it polls
// /snapshot.json once a second and renders headline numbers plus an
// execs/sec + coverage sparkline on a canvas. No external assets.
const dashboardHTML = `<!doctype html>
<html><head><meta charset="utf-8"><title>pafuzz live</title>
<style>
body{font:14px/1.5 system-ui,sans-serif;background:#14161a;color:#e6e6e6;margin:2rem}
h1{font-size:1.1rem;font-weight:600}h1 small{color:#8a8f98;font-weight:400}
.grid{display:grid;grid-template-columns:repeat(auto-fill,minmax(160px,1fr));gap:10px;margin:1rem 0}
.card{background:#1d2026;border:1px solid #2a2e36;border-radius:8px;padding:10px 12px}
.card .k{color:#8a8f98;font-size:11px;text-transform:uppercase;letter-spacing:.05em}
.card .v{font-size:20px;font-variant-numeric:tabular-nums;margin-top:2px}
canvas{width:100%;height:140px;background:#1d2026;border:1px solid #2a2e36;border-radius:8px}
table{border-collapse:collapse;margin-top:1rem;font-variant-numeric:tabular-nums}
td,th{padding:3px 12px;text-align:right;border-bottom:1px solid #2a2e36}
th{color:#8a8f98;font-weight:500}td:first-child,th:first-child{text-align:left}
</style></head><body>
<h1>pafuzz <small id="banner"></small>
<small><a href="genealogy" style="color:#8a8f98">genealogy</a> · <a href="coverage" style="color:#8a8f98">coverage</a></small></h1>
<div class="grid" id="cards"></div>
<canvas id="spark" width="900" height="140"></canvas>
<table id="stages"><thead><tr><th>stage</th><th>count</th><th>total</th><th>mean</th><th>max</th></tr></thead><tbody></tbody></table>
<script>
const fmt=n=>n>=1e9?(n/1e9).toFixed(2)+"G":n>=1e6?(n/1e6).toFixed(2)+"M":n>=1e3?(n/1e3).toFixed(1)+"k":(+n).toFixed(n%1?2:0);
const ms=ns=>ns>=1e9?(ns/1e9).toFixed(2)+"s":ns>=1e6?(ns/1e6).toFixed(1)+"ms":(ns/1e3).toFixed(0)+"µs";
async function tick(){
 try{
  const d=await (await fetch("snapshot.json")).json();
  const c=d.counters||{},p=d.latest||{};
  document.getElementById("banner").textContent=(d.info.Banner||"")+" · "+(d.info.Engine||"")+" · "+(d.info.Feedback||"");
  const cards=[["execs",fmt(c.Execs||0)],["execs/s",fmt(p.execs_per_sec||0)],
   ["queue",fmt(c.QueueLen||0)],["favored",fmt(c.Favored||0)],
   ["coverage",fmt(c.CoverageCount||0)],["map density",((p.map_density||0)*100).toFixed(2)+"%"],
   ["bugs",fmt(c.UniqueBugs||0)],["crashes",fmt(c.CrashExecs||0)],
   ["timeouts",fmt(c.Timeouts||0)],["novelty/s",fmt(p.novelty_per_sec||0)],
   ["cycles",fmt(c.Cycles||0)],["max depth",fmt(c.MaxDepth||0)]];
  document.getElementById("cards").innerHTML=cards.map(([k,v])=>
   '<div class="card"><div class="k">'+k+'</div><div class="v">'+v+"</div></div>").join("");
  const tb=document.querySelector("#stages tbody");
  tb.innerHTML=(d.stages||[]).map(s=>"<tr><td>"+s.stage+"</td><td>"+fmt(s.count)+"</td><td>"+
   ms(s.total_ns)+"</td><td>"+ms(s.total_ns/Math.max(1,s.count))+"</td><td>"+ms(s.max_ns)+"</td></tr>").join("");
  draw(d.series||[]);
 }catch(e){}
 setTimeout(tick,1000);
}
function draw(S){
 const cv=document.getElementById("spark"),g=cv.getContext("2d");
 g.clearRect(0,0,cv.width,cv.height);
 if(S.length<2)return;
 const plot=(key,color,h0,h1)=>{
  const vs=S.map(s=>s[key]||0),max=Math.max(...vs,1e-9);
  g.strokeStyle=color;g.lineWidth=1.5;g.beginPath();
  vs.forEach((v,i)=>{const x=i/(S.length-1)*(cv.width-8)+4,y=h1-(v/max)*(h1-h0);
   i?g.lineTo(x,y):g.moveTo(x,y)});
  g.stroke();
 };
 plot("execs_per_sec","#5ab0f6",8,66);
 plot("coverage_count","#7bd88f",78,134);
}
tick();
</script></body></html>
`
