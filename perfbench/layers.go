package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"time"

	"crowdtopk"
	"crowdtopk/internal/crowd"
	"crowdtopk/internal/obs"
)

// A traced run first runs its workload untraced under the CPU profiler,
// which leaves the code path alone: the profile attributes the CPU time
// of the untraced runs, and the untraced wall time per query is the base
// of trace.overhead. Then it runs the same requests traced.
type untracedPhase struct {
	start    time.Time
	prof     bytes.Buffer
	perQuery time.Duration
}

func beginUntraced() (*untracedPhase, error) {
	u := &untracedPhase{start: time.Now()}
	if err := pprof.StartCPUProfile(&u.prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return u, nil
}

// end closes the untraced phase after q queries.
func (u *untracedPhase) end(q int) {
	pprof.StopCPUProfile()
	u.perQuery = time.Since(u.start) / time.Duration(max(q, 1))
}

// tracedPhase brackets the traced part of a traced run: spans and layer
// counters, a registry snapshot for the counters the program exports
// itself, and the process meters.
type tracedPhase struct {
	tr     *tracer
	tel    *crowdtopk.Telemetry
	before obs.Snapshot
	meter  processMeter
}

// beginTraced starts the traced phase on tr, which wrappers installed
// during set-up may already report to: the layer counters restart here,
// the spans and the purchase sequence are kept.
func beginTraced(tr *tracer, tel *crowdtopk.Telemetry) *tracedPhase {
	tr.mark()
	activeTracer.Store(tr)
	return &tracedPhase{tr: tr, tel: tel, before: tel.Obs().Registry().Snapshot(), meter: startMeter()}
}

// mark restarts the layer counters.
func (t *tracer) mark() {
	t.mu.Lock()
	t.newPair = 0
	t.rtt, t.sinkUS, t.lookUS, t.commUS, t.startUS = nil, nil, nil, nil, nil
	t.mu.Unlock()
	for _, c := range []*atomic.Int64{&t.oracleSamples, &t.oracleNs, &t.policyCalls, &t.policyNs,
		&t.posts, &t.tasks, &t.lookups, &t.hits} {
		c.Store(0)
	}
}

// finish ends the phase over q queries and fills every per-layer metric
// it can measure; the workload sets the session and service ones.
// u is the untraced phase that ran the same requests; data is the
// dataset the recorded purchases are replayed on.
func (p *tracedPhase) finish(cfg config, rep *report, q int, u *untracedPhase, data crowd.Oracle) error {
	cost := p.meter.stop()
	activeTracer.Store(nil)
	if q == 0 {
		return fmt.Errorf("traced phase finished no query")
	}
	tr, m, fq := p.tr, rep.metrics, float64(q)

	after := p.tel.Obs().Registry().Snapshot()
	diff := func(name string) float64 { return float64(after.CounterDiff(p.before, name)) }
	// A memo hit answers a comparison without starting a comparison
	// process; the processes started are the ones that can conclude.
	processes, memoHits := diff(obs.MComparisons), diff(obs.MMemoHits)
	comparisons := processes + memoHits
	m["compare.memo_hit_ratio"] = ratio(memoHits, comparisons)
	m["compare.concluded_ratio"] = ratio(diff(obs.MConcluded), processes)
	m["compare.policy_calls_per_query"] = float64(tr.policyCalls.Load()) / fq
	m["compare.policy_ns_per_call"] = ratio(float64(tr.policyNs.Load()), float64(tr.policyCalls.Load()))
	m["topk.comparisons_per_query"] = comparisons / fq
	m["topk.waves_per_query"] = diff(obs.MWaves) / fq
	phases := map[string]float64{}
	total := 0.0
	for name := range after.Counters {
		if phase, isTMC, ok := obs.PhaseOf(name); ok && isTMC {
			phases[phase] += diff(name)
			total += diff(name)
		}
	}
	for _, ph := range []string{"select", "partition", "rank"} {
		m["topk."+ph+"_tmc_share"] = ratio(phases[ph], total)
	}
	wait := histDiff(after.Histograms[obs.MSchedQueueWait], p.before.Histograms[obs.MSchedQueueWait])
	m["sched.queue_wait_us_p50"] = histQuantile(wait, 0.5) / 1e3
	m["sched.queue_wait_us_p90"] = histQuantile(wait, 0.9) / 1e3
	m["sched.max_wave_width"] = float64(after.Gauges[obs.MWaveWidthMax])

	tr.mu.Lock()
	m["crowd.pairs_created_per_query"] = float64(tr.newPair) / fq
	draws := tr.draws
	m["platform.roundtrip_us_p50"] = quantile(tr.rtt, 0.5)
	m["platform.roundtrip_us_p90"] = quantile(tr.rtt, 0.9)
	m["auditlog.sink_us_p50"] = quantile(tr.sinkUS, 0.5)
	m["auditlog.sink_us_p90"] = quantile(tr.sinkUS, 0.9)
	m["jstore.lookup_us_p50"] = quantile(tr.lookUS, 0.5)
	m["jstore.commit_us_p50"] = quantile(tr.commUS, 0.5)
	dropped, kept := tr.dropped, len(tr.spans)
	tr.mu.Unlock()
	coldPair, perSample := replayDraws(data, cfg.seed, draws)
	m["crowd.cold_pair_us"] = us(coldPair)
	m["crowd.draw_ns_per_sample"] = perSample
	m["dataset.oracle_ns_per_sample"] = ratio(float64(tr.oracleNs.Load()), float64(tr.oracleSamples.Load()))
	m["platform.batches_per_query"] = float64(tr.posts.Load()) / fq
	m["platform.tasks_per_batch"] = ratio(float64(tr.tasks.Load()), float64(tr.posts.Load()))
	m["platform.retries_per_query"] = diff(obs.MReposts) / fq
	m["jstore.lookups_per_query"] = float64(tr.lookups.Load()) / fq
	m["jstore.hit_ratio"] = ratio(float64(tr.hits.Load()), float64(tr.lookups.Load()))
	for _, k := range []string{"session.start_us_p50", "session.open_ms", "auditlog.bytes_per_record",
		"service.submit_ms_p50", "service.done_lag_ms_p50", "service.rejected_429"} {
		if _, ok := m[k]; !ok {
			m[k] = 0 // a layer this workload bypasses
		}
	}
	m["runtime.gc_per_query"] = float64(cost.gcs) / fq
	m["trace.overhead"] = ratio(float64(cost.wall)/fq, float64(u.perQuery))

	prof, err := parseProfile(u.prof.Bytes())
	if err != nil {
		return err
	}
	for l, share := range prof.attribute() {
		m["cpu_share."+l] = share
	}
	rep.note("traced phase: %d queries in %.2fs, %d spans kept (%d dropped), %d purchases replayed",
		q, cost.wall.Seconds(), kept, dropped, len(draws))
	for _, prefix := range []string{"math/rand.(*rngSource).Seed", "math/rand.NewSource", "encoding/json.", "crowdtopk/internal/auditlog.(*Log).fold"} {
		rep.note("  inclusive cpu %5.1f%%  %s", 100*prof.inclusiveShare(prefix), prefix)
	}
	for _, h := range prof.hotspots(8) {
		rep.note("  hot %s", h)
	}
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep.note("  self time %-20s %10.1f ms", name, ms(self[name]))
	}

	dir := filepath.Join(cfg.buildDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := tr.writeSpans(base + ".spans.jsonl"); err != nil {
		return err
	}
	if err := os.WriteFile(base+".cpu.pprof", u.prof.Bytes(), 0o644); err != nil {
		return err
	}
	rep.note("span file %s.spans.jsonl, cpu profile %s.cpu.pprof", base, base)
	return nil
}

// histDiff is the histogram of observations made between two snapshots.
func histDiff(after, before obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{Bounds: after.Bounds, Counts: append([]int64(nil), after.Counts...),
		Sum: after.Sum - before.Sum, Count: after.Count - before.Count}
	for i := range d.Counts {
		if i < len(before.Counts) {
			d.Counts[i] -= before.Counts[i]
		}
	}
	return d
}

// histQuantile is HistogramSnapshot.Quantile with 0 for no observations.
func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Quantile(q)
}
