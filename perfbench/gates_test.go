package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"crowdtopk"
	"crowdtopk/internal/crowd"
	"crowdtopk/internal/service"
)

// The benchmark's self-test: every correctness gate passes on a good
// input and fires on a corrupted one. Run with
//
//	cd perfbench && go test ./...

func TestTopKGate(t *testing.T) {
	if err := checkTopK([]int{3, 1, 2}, 3, 10); err != nil {
		t.Fatalf("good answer rejected: %v", err)
	}
	for name, bad := range map[string][]int{
		"short":        {3, 1},
		"repeated":     {3, 3, 2},
		"out of range": {3, 10, 2},
		"negative":     {3, -1, 2},
	} {
		if checkTopK(bad, 3, 10) == nil {
			t.Errorf("%s answer %v accepted", name, bad)
		}
	}
}

// TestColdRerunGate corrupts one field of a real query's answer at a
// time; the Parallelism 1 rerun must match the original and nothing else.
func TestColdRerunGate(t *testing.T) {
	data := crowdtopk.IMDbDataset(catalogueSeed)
	opts := coldOptions(7)
	res, err := crowdtopk.Query(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 1
	rerun, err := crowdtopk.Query(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := answerOf(res)
	if err := checkSameAnswer("rerun", answerOf(rerun), want); err != nil {
		t.Fatalf("deterministic rerun rejected: %v", err)
	}
	for name, corrupt := range map[string]func(a *answer){
		"tmc":    func(a *answer) { a.TMC++ },
		"rounds": func(a *answer) { a.Rounds-- },
		"top-k":  func(a *answer) { a.TopK = append([]int{a.TopK[1], a.TopK[0]}, a.TopK[2:]...) },
	} {
		got := answerOf(rerun)
		got.TopK = append([]int(nil), got.TopK...)
		corrupt(&got)
		if checkSameAnswer("rerun", got, want) == nil {
			t.Errorf("rerun with corrupted %s accepted", name)
		}
	}
}

func TestNoPurchaseGate(t *testing.T) {
	if err := checkNoPurchase(1000, 1000); err != nil {
		t.Fatal(err)
	}
	if checkNoPurchase(1000, 1030) == nil {
		t.Error("a timed phase that bought 30 microtasks passed")
	}
}

func TestAccountingGate(t *testing.T) {
	good := service.Accounting{SessionTMC: 90, SumQueryTMC: 90, AuditLen: 90, AuditOn: true, Balanced: true}
	if err := checkAccounting(good); err != nil {
		t.Fatalf("balanced accounting rejected: %v", err)
	}
	for name, corrupt := range map[string]func(a *service.Accounting){
		"unbalanced flag": func(a *service.Accounting) { a.Balanced = false },
		"query sum":       func(a *service.Accounting) { a.SumQueryTMC-- },
		"audit length":    func(a *service.Accounting) { a.AuditLen++ },
		"still running":   func(a *service.Accounting) { a.Running = 1 },
	} {
		a := good
		corrupt(&a)
		if checkAccounting(a) == nil {
			t.Errorf("accounting with corrupted %s accepted", name)
		}
	}
}

// TestVerifyGate writes a real audit directory, then flips one byte of a
// sealed segment: the gate must pass the intact directory and fire on
// the damaged one.
func TestVerifyGate(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "audit")
	log, err := crowdtopk.OpenAuditLog(dir, crowdtopk.AuditLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]crowd.Record, 5000) // more than one segment
	for i := range recs {
		recs[i] = crowd.Record{I: i % 7, J: 7 + i%5, Value: 0.25, Round: int64(i / 30)}
	}
	log.Record(recs)
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	// Kill-style stop: no close, so the sealed segment stays on disk
	// instead of being folded into a checkpoint.
	rep, err := crowdtopk.VerifyAuditLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkVerify(rep, int64(len(recs))); err != nil {
		t.Fatalf("intact audit log rejected: %v", err)
	}
	if checkVerify(rep, int64(len(recs))+1) == nil {
		t.Error("audit log shorter than the session's spend accepted")
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(segs) == 0 {
		t.Fatal("no segment written")
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.IndexByte(raw, '5')
	raw[i] = '6'
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = crowdtopk.VerifyAuditLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if checkVerify(rep, int64(len(recs))) == nil {
		t.Error("tampered audit log accepted")
	}
	if err := log.Close(); err != nil {
		t.Log("close after tampering:", err)
	}
}

func TestFinishedGate(t *testing.T) {
	good := service.Status{ID: "q1", State: "done", TMC: 900, TopK: []int{4, 2, 9}}
	capped := service.Request{K: 3, MaxCost: 1000}
	if err := checkFinished(good, service.Request{K: 3}, 10); err != nil {
		t.Fatalf("good query rejected: %v", err)
	}
	partial := good
	partial.Error, partial.Partial, partial.BudgetExhausted, partial.TMC = "budget", true, true, 1000
	if err := checkFinished(partial, capped, 10); err != nil {
		t.Fatalf("requested budget partial rejected: %v", err)
	}
	for name, c := range map[string]struct {
		st  service.Status
		req service.Request
	}{
		"error":                 {service.Status{ID: "q", State: "done", Error: "boom", TopK: []int{1, 2, 3}}, service.Request{K: 3}},
		"unrequested partial":   {partial, service.Request{K: 3}},
		"canceled":              {service.Status{ID: "q", State: "canceled", TopK: []int{1, 2, 3}}, service.Request{K: 3}},
		"short answer":          {service.Status{ID: "q", State: "done", TopK: []int{1, 2}}, service.Request{K: 3}},
		"over its sub-cap":      {service.Status{ID: "q", State: "done", TMC: 1001, TopK: []int{1, 2, 3}}, capped},
		"repeated partial item": {service.Status{ID: "q", State: "done", Error: "budget", BudgetExhausted: true, TopK: []int{1, 1}}, capped},
	} {
		if checkFinished(c.st, c.req, 10) == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metrics the command prints
// and the ones BENCHMARK.json declares the same.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, decl []struct{ Name, Unit string }) {
		if len(defs) != len(decl) {
			t.Errorf("%s: %d metrics printed, %d declared", what, len(defs), len(decl))
			return
		}
		for i, d := range defs {
			if d.name != decl[i].Name || d.unit != decl[i].Unit {
				t.Errorf("%s %d: printed %s %s, declared %s %s", what, i, d.name, d.unit, decl[i].Name, decl[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %q has no implementation", w.Name)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"crowdtopk/internal/crowd.(*Engine).pair.func1":        "crowd",
		"crowdtopk/internal/obs/explain.(*Collector).get":      "obs",
		"crowdtopk/internal/auditlog.readCheckpoint":           "auditlog",
		"crowdtopk/internal/metrics.NDCG":                      "other",
		"crowdtopk.Query":                                      "other",
		"main.(*tracedPolicy).Test":                            "other",
		"math/rand.seedrand":                                   "",
		"runtime.mallocgc":                                     "",
		"crowdtopk/internal/compare.(*Runner).Advance":         "compare",
		"crowdtopk/internal/dataset.(*Source).Preferences":     "dataset",
		"crowdtopk/internal/service.(*Server).handleSubmit":    "service",
		"crowdtopk/internal/jstore.(*FileStore).Commit":        "jstore",
		"crowdtopk/internal/sched.(*Scheduler).worker":         "sched",
		"crowdtopk/internal/stats.(*Running).AddAll":           "stats",
		"crowdtopk/internal/topk.(*SPR).selectReference":       "topk",
		"crowdtopk/internal/crowd.(*SimPlatform).Post.func1.1": "crowd",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestProfileParse profiles a busy loop and checks the decoder finds its
// samples and that the layer shares add up.
func TestProfileParse(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += float64(i) * 1e-9
		}
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.stacks) == 0 {
		t.Fatalf("no samples decoded (x=%v)", x)
	}
	sum := 0.0
	for _, s := range p.attribute() {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("layer shares sum to %v", sum)
	}
	if p.inclusiveShare("crowdtopk/perfbench.TestProfileParse")+p.inclusiveShare("main.TestProfileParse") == 0 {
		t.Errorf("busy loop not found in %d stacks; first: %v", len(p.stacks), p.stacks[0])
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded")
	}
}
