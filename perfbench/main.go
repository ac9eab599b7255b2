// Command perfbench is the crowdtopk benchmark: one command that runs a
// named workload, prints every end-to-end metric by name and unit, and
// checks that every answer is correct. With -trace 1 it runs the
// workload's traced variant instead and prints the per-layer metrics.
//
//	perfbench --workload cold|session|daemon --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {"setup_s": {"value": 0.21, "unit": "s"}, ...}}
//
// The exit code is non-zero when a correctness gate fails or the
// workload cannot run. Run it through run.sh, which builds it from the
// checkout's sources; BENCHMARK.json at the repository root describes
// the workloads and metrics, NOTES.md in this directory what they load
// and what each layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef is one reported metric with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"queries_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_query", "ms"},
	{"alloc_kb_per_query", "KiB"},
	{"peak_rss_mb", "MiB"},
	{"tmc_per_query", "microtasks"},
	{"rounds_per_query", "rounds"},
	{"tmc_over_infimum", "ratio"},
	{"ndcg", "score"},
}

// perLayer are the metrics a traced run reports, on every workload; a
// layer the workload bypasses reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"crowd.pairs_created_per_query", "pairs"},
		{"crowd.cold_pair_us", "us"},
		{"crowd.draw_ns_per_sample", "ns"},
		{"dataset.oracle_ns_per_sample", "ns"},
		{"compare.memo_hit_ratio", "ratio"},
		{"compare.concluded_ratio", "ratio"},
		{"compare.policy_calls_per_query", "calls"},
		{"compare.policy_ns_per_call", "ns"},
		{"topk.comparisons_per_query", "comparisons"},
		{"topk.waves_per_query", "waves"},
		{"topk.select_tmc_share", "ratio"},
		{"topk.partition_tmc_share", "ratio"},
		{"topk.rank_tmc_share", "ratio"},
		{"sched.queue_wait_us_p50", "us"},
		{"sched.queue_wait_us_p90", "us"},
		{"sched.max_wave_width", "pairs"},
		{"session.start_us_p50", "us"},
		{"session.open_ms", "ms"},
		{"platform.batches_per_query", "batches"},
		{"platform.tasks_per_batch", "tasks"},
		{"platform.roundtrip_us_p50", "us"},
		{"platform.roundtrip_us_p90", "us"},
		{"platform.retries_per_query", "retries"},
		{"auditlog.sink_us_p50", "us"},
		{"auditlog.sink_us_p90", "us"},
		{"auditlog.bytes_per_record", "bytes"},
		{"jstore.lookups_per_query", "lookups"},
		{"jstore.hit_ratio", "ratio"},
		{"jstore.lookup_us_p50", "us"},
		{"jstore.commit_us_p50", "us"},
		{"service.submit_ms_p50", "ms"},
		{"service.done_lag_ms_p50", "ms"},
		{"service.rejected_429", "count"},
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu_share." + l, "ratio"})
	}
	return append(defs,
		metricDef{"runtime.gc_per_query", "gcs"},
		metricDef{"trace.overhead", "ratio"},
	)
}()

// catalogueSeed fixes the catalogues: the workload seed varies the
// requests (query seeds, request order, session and platform seeds), not
// the data they rank.
const catalogueSeed = 1

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// buildDir holds the working files of a run (audit directories,
	// judgment stores) and the traced run's span file and CPU profile.
	buildDir string
}

// report is what a workload run produces.
type report struct {
	attempted, failed int
	gateErrs          []string
	metrics           map[string]float64
	lines             []string // human-readable detail, printed first
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// gate records a failed correctness check.
func (r *report) gate(err error) {
	if err != nil {
		r.gateErrs = append(r.gateErrs, err.Error())
	}
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*report, error){
	"cold":    runCold,
	"session": runSession,
	"daemon":  runDaemon,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: cold, session or daemon")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload cold|session|daemon, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	buildDir, err := filepath.Abs(".bench_build")
	if err == nil {
		err = os.MkdirAll(buildDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		buildDir: buildDir,
	}
	rep, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out, err := rep.result(defs)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-32s %14.4f %s\n", d.name, rep.metrics[d.name], d.unit)
	}
	fmt.Fprintf(stdout, "%-32s %14.4f ratio (attempted %d, failed %d)\n", "failed_frac",
		ratio(float64(rep.failed), float64(rep.attempted)), rep.attempted, rep.failed)
	for _, g := range rep.gateErrs {
		fmt.Fprintln(stdout, "GATE FAILED:", g)
	}
	fmt.Fprintln(stdout, string(out))
	if len(rep.gateErrs) > 0 {
		return 1
	}
	return 0
}

// result renders the final JSON line; every metric of defs must have
// been measured.
func (r *report) result(defs []metricDef) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	if r.attempted < 1 {
		return nil, errors.New("no query attempted")
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.gateErrs) == 0, r.attempted, r.failed, metrics})
}
