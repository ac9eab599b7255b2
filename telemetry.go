package crowdtopk

import (
	"io"
	"net/http"
	"time"

	"crowdtopk/internal/obs"
)

// Telemetry is the query observability bundle: a metrics registry fed by
// every layer of the execution stack (engine purchases, comparison
// processes, parallel waves, platform resilience) and a span tracer that
// records the query → phase → comparison tree with per-round confidence
// trajectories.
//
// Create one with NewTelemetry, pass it via Options.Telemetry, and read it
// three ways: live over HTTP (Handler), as a replayable JSONL trace
// (WriteTrace), or as the structured QueryStats attached to every Result.
// One bundle may serve many queries and sessions; counters accumulate, and
// each Result carries its own incremental snapshot. A nil *Telemetry
// disables all instrumentation at the cost of one nil check per site.
type Telemetry struct {
	tel *obs.Telemetry
}

// NewTelemetry returns an enabled telemetry bundle.
func NewTelemetry() *Telemetry { return &Telemetry{tel: obs.New()} }

// Obs returns the underlying obs bundle for in-module wiring (the
// service layer's SLO gauges, the daemons' trace/stats dumps); nil when
// telemetry is disabled.
func (t *Telemetry) Obs() *obs.Telemetry {
	if t == nil {
		return nil
	}
	return t.tel
}

// Handler serves the bundle over HTTP:
//
//	/metrics      Prometheus text exposition
//	/debug/vars   the same snapshot as expvar-style JSON
//	/trace        finished spans as JSONL (same format as WriteTrace)
//	/debug/pprof  the standard Go runtime profiles
//
// Mount it on any mux or serve it standalone (the topkquery CLI exposes it
// with -metrics-addr).
func (t *Telemetry) Handler() http.Handler { return t.tel.Handler() }

// WriteMetrics renders the current metrics in the Prometheus text format.
func (t *Telemetry) WriteMetrics(w io.Writer) error { return t.tel.Registry().WritePrometheus(w) }

// WriteVars renders the current metrics snapshot as one JSON object.
func (t *Telemetry) WriteVars(w io.Writer) error { return t.tel.Registry().WriteVars(w) }

// WriteTrace streams every finished span as JSONL, one span per line —
// the replayable record of where each microtask went. Aggregating the
// "tmc" attribute of the phase spans recovers the exact per-phase cost
// breakdown of the recorded queries.
func (t *Telemetry) WriteTrace(w io.Writer) error { return t.tel.Tracer().WriteJSONL(w) }

// Stats returns the cumulative QueryStats since the bundle was created —
// the all-time view across every query and session it served. WallTimeNs
// is zero here; wall time is only meaningful per query.
func (t *Telemetry) Stats() *QueryStats { return t.statsSince(obs.Snapshot{}, 0) }

// PhaseStats is the cost one SPR framework phase consumed.
type PhaseStats struct {
	// TMC is the microtasks the phase purchased.
	TMC int64 `json:"tmc"`
	// Rounds is the batch rounds the phase occupied.
	Rounds int64 `json:"rounds"`
}

// QueryStats is the structured telemetry snapshot of one query run (or,
// via Telemetry.Stats, of a bundle's lifetime). Every counter is the
// increment observed during the run, so session queries report their
// incremental cost. It marshals to stable JSON for dashboards and the
// -stats-out files of topkquery and topkd.
type QueryStats struct {
	// WallTimeNs is the run's wall-clock duration in nanoseconds.
	WallTimeNs int64 `json:"wall_time_ns"`
	// TMC is the total monetary cost: every microtask charged, pairwise
	// and graded combined. At quiescence it equals Result.TMC and the
	// audit-log length.
	TMC int64 `json:"tmc"`
	// PairwiseTasks counts pairwise preference answers accepted into bags.
	PairwiseTasks int64 `json:"pairwise_tasks"`
	// GradedTasks counts absolute-rating microtasks purchased.
	GradedTasks int64 `json:"graded_tasks"`
	// Rounds is the latency in batch rounds.
	Rounds int64 `json:"rounds"`
	// Refunded counts reserved-but-undelivered microtasks refunded after
	// short platform batches; they were never charged.
	Refunded int64 `json:"refunded"`
	// CapDenied counts microtasks declined by the global spending cap or
	// the failure latch before reaching any oracle.
	CapDenied int64 `json:"cap_denied"`

	// Comparisons counts comparison processes started; Concluded those
	// that reached a confidence-level verdict; MemoHits comparisons
	// answered for free — from the conclusion memo or the judgment store —
	// by every algorithm, whether it asks through a sequential comparison
	// or admits a pair into a plan's wave.
	Comparisons int64 `json:"comparisons"`
	Concluded   int64 `json:"concluded"`
	MemoHits    int64 `json:"memo_hits"`

	// Judgment-store traffic (Options.JudgmentStore): StoreHits counts
	// comparisons answered from stored verdicts at zero TMC (each also
	// counts as a MemoHit — both mean "answered for free"); StoreStale
	// records served as decayed priors and re-verified; StoreMisses
	// consultations that found nothing usable; StoreCommits conclusions
	// committed back. StoreSize is the store's current record count (a
	// gauge, not an increment). All zero without a store.
	StoreHits    int64 `json:"store_hits"`
	StoreStale   int64 `json:"store_stale"`
	StoreMisses  int64 `json:"store_misses"`
	StoreCommits int64 `json:"store_commits"`
	StoreSize    int64 `json:"store_size"`

	// Waves counts parallel comparison waves; MaxWaveWidth is the widest
	// wave (peak parallelism demand) seen on the telemetry bundle so far.
	Waves        int64 `json:"waves"`
	MaxWaveWidth int64 `json:"max_wave_width"`

	// Phases attributes TMC and rounds to the SPR framework phases
	// ("select", "partition", "rank"). Empty for non-SPR algorithms.
	Phases map[string]PhaseStats `json:"phases,omitempty"`

	// Resilience counters: retry traffic and degradation events of the
	// platform fault-tolerance layer. All zero for dataset-backed oracles.
	Retries              int64 `json:"retries"`
	PartialBatches       int64 `json:"partial_batches"`
	Quarantined          int64 `json:"quarantined"`
	PostErrors           int64 `json:"post_errors"`
	Timeouts             int64 `json:"timeouts"`
	Exhausted            int64 `json:"exhausted"`
	BreakerOpens         int64 `json:"breaker_opens"`
	FailureEvents        int64 `json:"failure_events"`
	FailureEventsDropped int64 `json:"failure_events_dropped"`
	// BackoffWaitNs is the wall-clock time slept in retry backoff.
	BackoffWaitNs int64 `json:"backoff_wait_ns"`
}

// snapshot captures the registry state before a run; nil-safe.
func (t *Telemetry) snapshot() obs.Snapshot {
	if t == nil {
		return obs.Snapshot{}
	}
	return t.tel.Registry().Snapshot()
}

// statsSince diffs the registry against a pre-run snapshot into the
// structured per-run view.
func (t *Telemetry) statsSince(before obs.Snapshot, wall time.Duration) *QueryStats {
	if t == nil {
		return nil
	}
	after := t.tel.Registry().Snapshot()
	diff := func(name string) int64 { return after.CounterDiff(before, name) }
	qs := &QueryStats{
		WallTimeNs:           wall.Nanoseconds(),
		TMC:                  diff(obs.MTMC),
		PairwiseTasks:        diff(obs.MSamples),
		GradedTasks:          diff(obs.MGraded),
		Rounds:               diff(obs.MRounds),
		Refunded:             diff(obs.MRefunds),
		CapDenied:            diff(obs.MCapDenied),
		Comparisons:          diff(obs.MComparisons),
		Concluded:            diff(obs.MConcluded),
		MemoHits:             diff(obs.MMemoHits),
		StoreHits:            diff(obs.MStoreHits),
		StoreStale:           diff(obs.MStoreStale),
		StoreMisses:          diff(obs.MStoreMisses),
		StoreCommits:         diff(obs.MStoreCommits),
		StoreSize:            after.Gauges[obs.MStoreSize],
		Waves:                diff(obs.MWaves),
		MaxWaveWidth:         after.Gauges[obs.MWaveWidthMax],
		Retries:              diff(obs.MReposts),
		PartialBatches:       diff(obs.MPartialBatches),
		Quarantined:          diff(obs.MQuarantined),
		PostErrors:           diff(obs.MPostErrors),
		Timeouts:             diff(obs.MTimeouts),
		Exhausted:            diff(obs.MExhausted),
		BreakerOpens:         diff(obs.MBreakerOpens),
		FailureEvents:        diff(obs.MFailureEvents),
		FailureEventsDropped: diff(obs.MFailuresDropped),
		BackoffWaitNs:        diff(obs.MBackoffNs),
	}
	for name := range after.Counters {
		phase, isTMC, ok := obs.PhaseOf(name)
		if !ok {
			continue
		}
		d := diff(name)
		if d == 0 {
			continue
		}
		if qs.Phases == nil {
			qs.Phases = make(map[string]PhaseStats, 3)
		}
		ps := qs.Phases[phase]
		if isTMC {
			ps.TMC += d
		} else {
			ps.Rounds += d
		}
		qs.Phases[phase] = ps
	}
	return qs
}
