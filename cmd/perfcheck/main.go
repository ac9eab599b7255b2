// Command perfcheck measures what observability costs a query. It runs
// one deterministic query, configured the way topkd runs it (in-memory
// audit log on), with no further observability and with each
// observability feature switched on:
//
//   - off: the baseline;
//   - batched: the persistent audit log with interval fsync, topkd's
//     default (gate 5% over off);
//   - fsync-always: the audit log syncing every batch (reported only:
//     paying a sync per batch is a policy choice, not a regression);
//   - explain+log: per-pair cost attribution plus a debug-level
//     structured logger (gate 3% over off).
//
// The reps are interleaved so machine-load drift hits every mode equally,
// and each mode is scored by its best rep: ambient load only ever adds
// wall time, so the minimum is the intrinsic cost, while medians (printed
// for spread) drift with whatever else the host runs.
//
// Every run also checks correctness: all runs of all modes land the same
// TMC and top-k (observing must not perturb the query), every logging
// run's directory holds exactly TMC records and passes VerifyAuditLog,
// and every attribution tree sums to exactly Result.TMC. Any failed check
// or gate exits 1.
//
// Usage (or make overhead):
//
//	go run ./cmd/perfcheck
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"crowdtopk"
)

// The query: 60 synthetic items behind the simulated crowd platform, the
// deployment shape topkd logs in, so each overhead ratio is taken against
// realistic per-microtask cost rather than a bare in-memory lookup.
const (
	items      = 60
	noise      = 0.25
	dataSeed   = 70
	crowdSeed  = 71
	querySeed  = 75
	k          = 8
	budget     = 400
	confidence = 0.95
	reps       = 15
)

// mode is one observability configuration.
type mode struct {
	name    string
	sync    crowdtopk.AuditSyncPolicy // persistent audit log policy; "" for none
	explain bool                      // cost attribution and debug logging
	gate    float64                   // max best-of overhead over off; 0 reports only
}

var modes = []mode{
	{name: "off"},
	{name: "batched", sync: crowdtopk.AuditSyncInterval, gate: 0.05},
	{name: "fsync-always", sync: crowdtopk.AuditSyncAlways},
	{name: "explain+log", explain: true, gate: 0.03},
}

// run is the outcome of one query run.
type run struct {
	res        crowdtopk.Result
	wall       time.Duration
	records    int   // audit records on disk; -1 without a persistent log
	attributed int64 // attribution tree total; -1 with attribution off
}

// runOnce executes the query once in mode m, logging into dir when the
// mode persists. The platform seeds each batch by its post id and each
// answer by its task index, and Parallelism 1 keeps one comparison
// chain, so TMC and top-k are bit-identical across runs.
func runOnce(m mode, dir string) (run, error) {
	r := run{records: -1, attributed: -1}
	d := crowdtopk.SyntheticDataset(items, noise, dataSeed)
	oracle := crowdtopk.WrapPlatformResilient(d.NumItems(),
		crowdtopk.SimulatedPlatform(d, 8, crowdSeed), crowdtopk.ResilienceOptions{})
	sess, err := crowdtopk.NewSession(oracle, crowdtopk.Options{
		Budget: budget, Seed: querySeed, Confidence: confidence, Parallelism: 1,
	})
	if err != nil {
		return r, err
	}
	defer sess.Close()
	sess.EnableAuditLog()
	var alog *crowdtopk.AuditLog
	if m.sync != "" {
		if alog, err = crowdtopk.OpenAuditLog(dir, crowdtopk.AuditLogOptions{Sync: m.sync}); err != nil {
			return r, err
		}
		sess.SetAuditSink(alog)
	}
	var qo crowdtopk.QueryOptions
	if m.explain {
		// io.Discard isolates the logging bookkeeping from disk throughput.
		lg, err := crowdtopk.NewLogger(io.Discard, "debug")
		if err != nil {
			return r, err
		}
		sess.SetLogger(lg)
		qo.Explain = true
	}

	start := time.Now()
	h, err := sess.StartTopK(context.Background(), k, qo)
	if err != nil {
		return r, err
	}
	r.res, err = h.Wait()
	r.wall = time.Since(start)
	if err != nil {
		return r, err
	}
	if m.explain {
		r.attributed = h.Explain().TMC
	}
	if alog != nil {
		// Close flushes the commit queue and writes the final checkpoint;
		// a dropped record shows as a short directory.
		if err := alog.Close(); err != nil {
			return r, err
		}
		recs, err := crowdtopk.LoadAuditLog(dir)
		if err != nil {
			return r, fmt.Errorf("reloading audit log: %w", err)
		}
		vr, err := crowdtopk.VerifyAuditLog(dir)
		if err != nil {
			return r, fmt.Errorf("verifying audit log: %w", err)
		}
		if !vr.OK {
			return r, fmt.Errorf("audit log fails verification: first bad %s", vr.FirstBad)
		}
		r.records = len(recs)
	}
	return r, nil
}

// check returns what is wrong with one run against the first run's
// answer, or "" when every check holds.
func check(r, first run) string {
	switch {
	case r.res.TMC != first.res.TMC || !reflect.DeepEqual(r.res.TopK, first.res.TopK):
		return fmt.Sprintf("tmc %d top-k %v diverged from tmc %d top-k %v",
			r.res.TMC, r.res.TopK, first.res.TMC, first.res.TopK)
	case r.records >= 0 && int64(r.records) != r.res.TMC:
		return fmt.Sprintf("%d records on disk for tmc %d", r.records, r.res.TMC)
	case r.attributed >= 0 && r.attributed != r.res.TMC:
		return fmt.Sprintf("attribution total %d != tmc %d", r.attributed, r.res.TMC)
	}
	return ""
}

func main() {
	// The query's live heap is ~1 MB, so at the default GOGC every couple
	// of MB a mode allocates becomes a whole extra GC cycle, a multiplier
	// a long-lived topkd heap does not have. A higher target, the same
	// for every mode, keeps the ratios on the observability work itself.
	debug.SetGCPercent(400)

	var first run
	walls := make(map[string][]time.Duration)
	failed := false
	for i := 0; i < reps; i++ {
		// Each rep starts at a different mode, so no mode always runs
		// right after the same neighbour, and on a collected heap, so no
		// run pays for the garbage of the one before.
		for j := range modes {
			m := modes[(i+j)%len(modes)]
			runtime.GC()
			dir, err := os.MkdirTemp("", "perfcheck-")
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfcheck: %v\n", err)
				os.Exit(1)
			}
			r, err := runOnce(m, dir)
			os.RemoveAll(dir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfcheck: %s rep %d: %v\n", m.name, i, err)
				os.Exit(1)
			}
			if i == 0 && j == 0 {
				first = r
			}
			walls[m.name] = append(walls[m.name], r.wall)

			line := fmt.Sprintf("rep %d %-12s %8.2fms  tmc %d", i, m.name, ms(r.wall), r.res.TMC)
			if r.records >= 0 {
				line += fmt.Sprintf("  %d records on disk, verified", r.records)
			}
			if r.attributed >= 0 {
				line += fmt.Sprintf("  attributed %d", r.attributed)
			}
			if bad := check(r, first); bad != "" {
				line += "  FAIL: " + bad
				failed = true
			} else {
				line += "  ok"
			}
			fmt.Println(line)
		}
	}

	base := slices.Min(walls["off"])
	for _, m := range modes {
		w := walls[m.name]
		line := fmt.Sprintf("%-12s best %8.2fms  median %8.2fms over %d reps", m.name, ms(slices.Min(w)), ms(median(w)), len(w))
		if m.name != "off" {
			over := float64(slices.Min(w))/float64(base) - 1
			line += fmt.Sprintf("  %+6.1f%% over off", 100*over)
			switch {
			case m.gate == 0:
				line += "  (reported only)"
			case over > m.gate:
				line += fmt.Sprintf("  FAIL: gate %.0f%%", 100*m.gate)
				failed = true
			default:
				line += fmt.Sprintf("  ok: gate %.0f%%", 100*m.gate)
			}
		}
		fmt.Println(line)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "perfcheck: failed")
		os.Exit(1)
	}
	fmt.Printf("perfcheck: tmc %d and top-k identical across %d runs, every log on disk and every attribution tree reconciled\n",
		first.res.TMC, reps*len(modes))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}
