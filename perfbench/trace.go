package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"crowdtopk/internal/compare"
	"crowdtopk/internal/crowd"
	"crowdtopk/internal/jstore"
)

// The traced run records one span per call at the boundaries the program
// already exposes, from wrappers the benchmark installs around them. The
// wrappers forward every optional interface the program type-asserts, so
// the traced run takes the same code path as the untraced one; the
// equivalence gates check that it buys the same microtasks.

// maxSpans bounds the spans kept in memory; later spans are counted in
// tracer.dropped but their timings still feed the per-layer counters.
const maxSpans = 400_000

// span is one boundary call. Times are nanoseconds since the traced
// phase began; Parent 0 is the root.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Query  string `json:"query,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// drawCall is one purchase the crowd saw: n samples of pair (i, j); n < 0
// marks a fresh engine.
type drawCall struct{ i, j, n int }

// tracer keeps spans in memory and the per-layer counters measured at
// the same boundaries.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	dropped int64
	seen    map[[2]int]bool // pairs the crowd has been asked about
	newPair int64           // pairs first asked about while counting
	draws   []drawCall      // purchase sequence, for the engine replay
	posted  map[int]int64   // platform batch id → post time
	rtt     []float64       // platform post → collect, µs
	sinkUS  []float64       // time blocked in RecordSink.Record, µs
	lookUS  []float64       // jstore lookups, µs
	commUS  []float64       // jstore commits, µs
	startUS []float64       // Session.StartTopK calls, µs

	root atomic.Int32 // enclosing query span of a sequential workload

	oracleSamples, oracleNs atomic.Int64
	policyCalls, policyNs   atomic.Int64
	posts, tasks            atomic.Int64
	lookups, hits           atomic.Int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), seen: map[[2]int]bool{}, posted: map[int]int64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a root span that encloses later ones and returns its id.
func (t *tracer) begin(name, query string) int32 {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	t.spans = append(t.spans, span{Name: name, ID: int32(len(t.spans) + 1), Query: query, Start: start, End: -1})
	return int32(len(t.spans))
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// leaf records a finished span under the current root.
func (t *tracer) leaf(name string, start, end int64) {
	t.addChild(name, t.root.Load(), "", start, end)
}

// addChild records a finished span under the given parent.
func (t *tracer) addChild(name string, parent int32, query string, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{Name: name, ID: int32(len(t.spans) + 1), Parent: parent, Query: query, Start: start, End: end})
}

// notePurchase records that the crowd was asked for n samples of pair
// (i, j): a pair never asked about before counts as created.
func (t *tracer) notePurchase(i, j, n int) {
	k := [2]int{min(i, j), max(i, j)}
	t.mu.Lock()
	if !t.seen[k] {
		t.seen[k] = true
		t.newPair++
	}
	if len(t.draws) < maxSpans {
		t.draws = append(t.draws, drawCall{i, j, n})
	}
	t.mu.Unlock()
}

// newEngine marks the start of a fresh crowd engine (a new query on
// cold, a new daemon): its pairs are created anew, and the replay starts
// a fresh engine at the same point.
func (t *tracer) newEngine() {
	t.mu.Lock()
	t.seen = map[[2]int]bool{}
	t.draws = append(t.draws, drawCall{n: -1})
	t.mu.Unlock()
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it that its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	childNs := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 && s.End >= 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - childNs[s.ID]
		if self < 0 {
			self = 0 // concurrent children can overlap their parent's gaps
		}
		out[s.Name] += time.Duration(self)
	}
	return out
}

// tracedOracle wraps a dataset oracle: the engine's batch kernel and the
// simulated platform's per-task calls both cross it.
type tracedOracle struct {
	base  crowd.Oracle
	batch crowd.BatchOracle
	tr    *tracer
}

// newTracedOracle wraps a dataset. Datasets implement BatchOracle and
// Grader but not FallibleBatchOracle, which would select another engine
// path; such an oracle is refused.
func newTracedOracle(base crowd.Oracle, tr *tracer) (*tracedOracle, error) {
	if _, ok := base.(crowd.FallibleBatchOracle); ok {
		return nil, fmt.Errorf("perfbench: cannot trace a fallible oracle")
	}
	b, ok := base.(crowd.BatchOracle)
	if !ok {
		return nil, fmt.Errorf("perfbench: oracle has no batch kernel")
	}
	return &tracedOracle{base: base, batch: b, tr: tr}, nil
}

func (o *tracedOracle) NumItems() int { return o.base.NumItems() }

// Preference is the simulated platform's per-task call: too frequent
// for a span each, so it feeds the counters only.
func (o *tracedOracle) Preference(rng *rand.Rand, i, j int) float64 {
	start := time.Now()
	v := o.base.Preference(rng, i, j)
	o.tr.oracleNs.Add(int64(time.Since(start)))
	o.tr.oracleSamples.Add(1)
	return v
}

// Preferences implements crowd.BatchOracle.
func (o *tracedOracle) Preferences(rng *rand.Rand, i, j int, dst []float64) {
	start := o.tr.now()
	o.batch.Preferences(rng, i, j, dst)
	end := o.tr.now()
	o.tr.oracleNs.Add(end - start)
	o.tr.oracleSamples.Add(int64(len(dst)))
	o.tr.leaf("oracle.preferences", start, end)
	o.tr.notePurchase(i, j, len(dst))
}

// Grade implements crowd.Grader; every dataset grades.
func (o *tracedOracle) Grade(rng *rand.Rand, i int) float64 {
	return o.base.(crowd.Grader).Grade(rng, i)
}

// tracedPlatform wraps the simulated platform beneath the platform
// oracle, so the program's *crowd.PlatformOracle checks still see the
// oracle type they expect.
type tracedPlatform struct {
	inner crowd.Platform
	ctxp  crowd.ContextPlatform
	tr    *tracer
}

func newTracedPlatform(inner crowd.Platform, tr *tracer) *tracedPlatform {
	ctxp, _ := inner.(crowd.ContextPlatform)
	return &tracedPlatform{inner: inner, ctxp: ctxp, tr: tr}
}

// Post implements crowd.Platform.
func (p *tracedPlatform) Post(tasks []crowd.Task) (int, error) {
	start := p.tr.now()
	id, err := p.inner.Post(tasks)
	end := p.tr.now()
	p.tr.leaf("platform.post", start, end)
	if err != nil {
		return id, err
	}
	p.tr.posts.Add(1)
	p.tr.tasks.Add(int64(len(tasks)))
	p.tr.mu.Lock()
	p.tr.posted[id] = start
	p.tr.mu.Unlock()
	// Consecutive tasks of one pair form one purchase of the replay.
	for a := 0; a < len(tasks); {
		b := a + 1
		for b < len(tasks) && tasks[b] == tasks[a] {
			b++
		}
		p.tr.notePurchase(tasks[a].I, tasks[a].J, b-a)
		a = b
	}
	return id, nil
}

func (p *tracedPlatform) collected(id int, start int64) {
	end := p.tr.now()
	p.tr.leaf("platform.collect", start, end)
	p.tr.mu.Lock()
	if posted, ok := p.tr.posted[id]; ok {
		p.tr.rtt = append(p.tr.rtt, float64(end-posted)/1e3)
		delete(p.tr.posted, id)
	}
	p.tr.mu.Unlock()
}

// Collect implements crowd.Platform.
func (p *tracedPlatform) Collect(id int) ([]crowd.Answer, error) {
	start := p.tr.now()
	ans, err := p.inner.Collect(id)
	p.collected(id, start)
	return ans, err
}

// CollectContext implements crowd.ContextPlatform.
func (p *tracedPlatform) CollectContext(ctx context.Context, id int) ([]crowd.Answer, error) {
	if p.ctxp == nil {
		return p.Collect(id)
	}
	start := p.tr.now()
	ans, err := p.ctxp.CollectContext(ctx, id)
	p.collected(id, start)
	return ans, err
}

// Close implements crowd.Closer.
func (p *tracedPlatform) Close() error {
	if c, ok := p.inner.(crowd.Closer); ok {
		return c.Close()
	}
	return nil
}

// tracedSink wraps the audit log's record sink; Record's duration is the
// time the purchase path is blocked by committer back-pressure.
type tracedSink struct {
	inner crowd.RecordSink
	tr    *tracer
}

// Record implements crowd.RecordSink.
func (s tracedSink) Record(recs []crowd.Record) {
	start := s.tr.now()
	s.inner.Record(recs)
	end := s.tr.now()
	s.tr.leaf("auditlog.record", start, end)
	s.tr.mu.Lock()
	s.tr.sinkUS = append(s.tr.sinkUS, float64(end-start)/1e3)
	s.tr.mu.Unlock()
}

// tracedStore wraps the judgment store.
type tracedStore struct {
	inner jstore.Store
	tr    *tracer
}

// Lookup implements jstore.Store.
func (s tracedStore) Lookup(lo, hi int) (jstore.Record, bool) {
	start := s.tr.now()
	r, ok := s.inner.Lookup(lo, hi)
	end := s.tr.now()
	s.tr.leaf("jstore.lookup", start, end)
	s.tr.lookups.Add(1)
	if ok {
		s.tr.hits.Add(1)
	}
	s.tr.mu.Lock()
	s.tr.lookUS = append(s.tr.lookUS, float64(end-start)/1e3)
	s.tr.mu.Unlock()
	return r, ok
}

// Commit implements jstore.Store.
func (s tracedStore) Commit(r jstore.Record) bool {
	start := s.tr.now()
	ok := s.inner.Commit(r)
	end := s.tr.now()
	s.tr.leaf("jstore.commit", start, end)
	s.tr.mu.Lock()
	s.tr.commUS = append(s.tr.commUS, float64(end-start)/1e3)
	s.tr.mu.Unlock()
	return ok
}

// Snapshot implements jstore.Store.
func (s tracedStore) Snapshot() []jstore.Record { return s.inner.Snapshot() }

// Len implements jstore.Store.
func (s tracedStore) Len() int { return s.inner.Len() }

// tracedPolicyPrefix names the traced twin of a registered policy: a
// traced run asks for "perfbench.fixed" where the untraced one asks for
// "fixed". The twin reports the inner policy's name, so memo tables,
// store records and labels are those of the untraced run.
const tracedPolicyPrefix = "perfbench."

// activeTracer is the tracer the traced policy twins report to; set for
// the duration of a traced phase.
var activeTracer atomic.Pointer[tracer]

func init() {
	for _, name := range []string{"fixed", "voi", "pac"} {
		name := name
		compare.RegisterPolicy(tracedPolicyPrefix+name, func(cfg compare.PolicyConfig) compare.Policy {
			inner, err := compare.NewPolicy(name, cfg)
			if err != nil {
				panic(err) // the compare package registers all three at init
			}
			hw, _ := inner.(compare.HalfWidther)
			return &tracedPolicy{inner: inner, hw: hw, tr: activeTracer.Load()}
		})
	}
}

// tracedPolicy times every call into a comparison policy. Calls are far
// too frequent for a span each; they feed counters only.
type tracedPolicy struct {
	inner compare.Policy
	hw    compare.HalfWidther
	tr    *tracer
}

func (p *tracedPolicy) timed(start time.Time) {
	if p.tr != nil {
		p.tr.policyNs.Add(int64(time.Since(start)))
		p.tr.policyCalls.Add(1)
	}
}

func (p *tracedPolicy) Name() string    { return p.inner.Name() }
func (p *tracedPolicy) MinSamples() int { return p.inner.MinSamples() }

func (p *tracedPolicy) Test(v crowd.BagView) compare.Outcome {
	defer p.timed(time.Now())
	return p.inner.Test(v)
}

func (p *tracedPolicy) Bootstrap(v crowd.BagView) int {
	defer p.timed(time.Now())
	return p.inner.Bootstrap(v)
}

func (p *tracedPolicy) Next(v crowd.BagView, left int) int {
	defer p.timed(time.Now())
	return p.inner.Next(v, left)
}

// HalfWidth implements compare.HalfWidther; every registered policy
// reports one.
func (p *tracedPolicy) HalfWidth(v crowd.BagView) float64 {
	if p.hw == nil {
		return math.Inf(1)
	}
	return p.hw.HalfWidth(v)
}

// Tester forwards the verdict estimator a fixed-step policy wraps.
func (p *tracedPolicy) Tester() compare.Tester {
	if u, ok := p.inner.(interface{ Tester() compare.Tester }); ok {
		return u.Tester()
	}
	return p.inner
}

// replayDraws replays a recorded purchase sequence into fresh engines
// over the same dataset: the first touch of a pair is timed alone
// (DrawN of 0 samples creates the pair), then every purchase is timed.
// It returns the mean pair-creation time and the time per sample drawn.
func replayDraws(o crowd.Oracle, seed int64, calls []drawCall) (coldPair time.Duration, perSample float64) {
	var eng *crowd.Engine
	var seen map[[2]int]bool
	var create, draw time.Duration
	var pairs, samples int
	for _, c := range calls {
		if eng == nil || c.n < 0 {
			eng = crowd.NewEngine(o, rand.New(rand.NewSource(seed)))
			seen = map[[2]int]bool{}
		}
		if c.n < 0 {
			continue
		}
		k := [2]int{min(c.i, c.j), max(c.i, c.j)}
		if !seen[k] {
			seen[k] = true
			start := time.Now()
			eng.DrawN(c.i, c.j, 0)
			create += time.Since(start)
			pairs++
		}
		start := time.Now()
		_, got := eng.DrawN(c.i, c.j, c.n)
		draw += time.Since(start)
		samples += got
	}
	if pairs == 0 {
		return 0, 0
	}
	return create / time.Duration(pairs), ratio(float64(draw), float64(samples))
}
