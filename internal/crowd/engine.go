package crowd

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// numShards stripes the pair-state map so concurrent purchases of distinct
// pairs rarely contend on the same lock. Must be a power of two.
const numShards = 64

// pairState holds one unordered pair's sample bag together with the pair's
// private random stream. The per-pair stream is what makes parallel
// execution deterministic: the t-th sample of a pair depends only on the
// engine seed and the pair identity, never on how purchases of different
// pairs interleave across goroutines.
//
// view is the pair's atomically published BagView snapshot in canonical
// (lo, hi) orientation. There is a single writer per pair — whoever holds
// mu — so publication is a plain pointer store; readers load the pointer
// and never touch the mutex. Snapshots are immutable once published.
//
// holds and held implement HoldLog: while holds > 0 the pair's audit
// records wait in held until ReleaseLog commits them. Both are guarded
// by mu.
type pairState struct {
	mu    sync.Mutex
	rng   *rand.Rand
	bag   bag
	view  atomic.Pointer[BagView]
	holds int
	held  []Record
}

// publishLocked snapshots the bag in canonical orientation and publishes
// it for lock-free readers. Callers must hold ps.mu.
func (ps *pairState) publishLocked() {
	v := ps.bag.view(false)
	ps.view.Store(&v)
}

// drawBufPool recycles the per-batch sample scratch buffers so the Draw
// hot path allocates nothing for the samples themselves.
var drawBufPool = sync.Pool{
	New: func() any {
		s := make([]float64, 0, 256)
		return &s
	},
}

// Engine mediates every microtask purchase of a query. It accumulates the
// per-pair sample bags (reused across query phases), the total monetary
// cost, and the latency clock measured in batch rounds.
//
// An Engine is safe for concurrent use: the pair index is a striped
// read-mostly map whose hot lookups are lock-free, the cost and latency
// counters are atomic, and the spending cap is enforced by atomic
// reservation, so concurrent purchases never overshoot it. Each pair
// samples from its own deterministic random stream derived from the engine
// seed and the pair key, so a fixed seed yields identical samples for
// every pair regardless of goroutine interleaving — a parallel run is
// byte-identical to a sequential one.
//
// Reads are mutex-free: View loads the pair's atomically published bag
// snapshot, so observers (stopping-rule tests, leanings, workload probes)
// never contend with purchases. Writes batch: a Draw of n microtasks costs
// one dynamic oracle dispatch (via BatchOracle when implemented), one
// pooled scratch buffer, and — when logging — one audit-log flush, instead
// of n of each.
//
// Concurrency contract for collaborators: the Oracle (and Grader) must be
// safe for concurrent calls when the engine is driven from several
// goroutines; every oracle in this repository is. Rand() returns the
// control-thread generator and is NOT safe for concurrent use — it belongs
// to the query's single logical thread of control (shuffles, sampling
// plans), never to sampling workers.
type Engine struct {
	oracle   Oracle
	batch    BatchOracle         // oracle's batch kernel, cached once at construction
	fallible FallibleBatchOracle // oracle's error-aware kernel, preferred when present
	rng      *rand.Rand          // control-thread randomness, exposed via Rand()
	control  *ControlRand        // mutex-guarded view of rng for concurrent sessions
	baseSeed int64               // root of the per-pair and per-item sample streams

	shards [numShards]shard

	tmc     atomic.Int64 // microtasks purchased (pairwise + graded)
	rounds  atomic.Int64 // latency clock, in batch rounds
	pairCmp atomic.Int64 // pairwise microtasks only
	graded  atomic.Int64 // graded microtasks only
	cap     atomic.Int64 // global spending cap; 0 = unlimited

	// The failure latch: once the oracle reports an unrecoverable platform
	// error the engine degrades — every further purchase is declined (like
	// a spent cap), so in-flight queries conclude from the evidence already
	// bought and no more money is sent to a failing platform. failed is the
	// lock-free fast check; failCause holds the first error.
	failed    atomic.Bool
	failMu    sync.Mutex
	failCause error

	logging atomic.Bool
	logMu   sync.Mutex
	log     []Record
	sink    RecordSink

	// ins is the pre-resolved metric bundle; nil when telemetry is off.
	// Hot paths pay one nil check, then plain atomic adds.
	ins *EngineInstruments

	gradeMu  sync.Mutex
	gradeRng map[int]*rand.Rand // per-item graded sample streams
}

// NewEngine returns an engine over the given oracle. rng seeds all sample
// generation; pass a seeded source for reproducible experiments. The
// engine draws one value from rng to root its per-pair sample streams, so
// the same seeded rng always produces the same engine behaviour.
func NewEngine(o Oracle, rng *rand.Rand) *Engine {
	if o == nil {
		panic("crowd: NewEngine requires a non-nil oracle")
	}
	if rng == nil {
		panic("crowd: NewEngine requires a non-nil rng")
	}
	e := &Engine{
		oracle:   o,
		rng:      rng,
		baseSeed: rng.Int63(),
		gradeRng: make(map[int]*rand.Rand),
	}
	e.control = &ControlRand{r: rng}
	// The batch kernels are resolved once so the Draw hot path pays no
	// type assertion per call. The fallible kernel wins when both exist:
	// it is the only path that can decline part of a purchase instead of
	// panicking.
	e.batch, _ = o.(BatchOracle)
	e.fallible, _ = o.(FallibleBatchOracle)
	return e
}

// fail latches the engine into degraded mode; the first cause wins.
func (e *Engine) fail(cause error) {
	e.failMu.Lock()
	if e.failCause == nil {
		e.failCause = fmt.Errorf("%w: %w", ErrPlatformFailure, cause)
	}
	e.failMu.Unlock()
	e.failed.Store(true)
}

// Err returns the error that degraded the engine, or nil while healthy.
// A degraded engine declines every further purchase: queries over it
// conclude best-effort from the evidence already bought, exactly like a
// spent global cap, and the caller surfaces Err as a PartialResultError.
func (e *Engine) Err() error {
	if !e.failed.Load() {
		return nil
	}
	e.failMu.Lock()
	defer e.failMu.Unlock()
	return e.failCause
}

// mix64 is the SplitMix64 finalizer: a bijective avalanche so that nearby
// pair keys land on unrelated shards and unrelated sample streams.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// pairHash mixes a pair key into a well-spread 64-bit value.
func pairHash(k pairKey) uint64 {
	return mix64(uint64(uint32(k.lo))<<32 | uint64(uint32(k.hi)))
}

// pairSeed derives the pair's private stream seed: engine seed ⊕ pair
// identity. Deterministic per (seed, pair), independent of purchase order.
func (e *Engine) pairSeed(k pairKey) int64 {
	return e.baseSeed ^ int64(pairHash(k)>>1)
}

// gradeSeed derives the per-item graded stream seed; the constant keeps
// graded streams disjoint from pairwise streams of pairs involving i.
const gradeTag = 0x9e3779b97f4a7c15

func (e *Engine) gradeSeed(i int) int64 {
	return e.baseSeed ^ int64(mix64(uint64(uint32(i))^gradeTag)>>1)
}

// pair returns the pair's state, creating it on first touch.
func (e *Engine) pair(k pairKey) *pairState {
	s := &e.shards[pairHash(k)&(numShards-1)]
	return s.loadOrCreate(k, func() *pairState {
		return &pairState{rng: rand.New(rand.NewSource(e.pairSeed(k)))}
	})
}

// lookup returns the pair's state without creating it.
func (e *Engine) lookup(k pairKey) *pairState {
	return e.shards[pairHash(k)&(numShards-1)].load(k)
}

// Oracle returns the oracle the engine draws from.
func (e *Engine) Oracle() Oracle { return e.oracle }

// NumItems returns the size of the item set.
func (e *Engine) NumItems() int { return e.oracle.NumItems() }

// Rand returns the engine's control-thread random source, shared with
// algorithms that need randomization (sampling, shuffles) so a single seed
// fixes a whole run. It is not safe for concurrent use; only the query's
// control goroutine may touch it. Sample generation does not consume from
// it — samples come from per-pair streams — so control-flow randomness is
// identical whether comparison waves execute sequentially or in parallel.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// ControlRand is a mutex-guarded view over the engine's control-thread
// random source for sessions running several query control goroutines at
// once. Each call consumes from the same underlying stream as Rand(), so
// a single-query run that switches to ControlRand draws the identical
// sequence — only the cross-query interleaving is serialized.
type ControlRand struct {
	mu sync.Mutex
	r  *rand.Rand
}

// Intn is rand.Rand.Intn under the control mutex.
func (c *ControlRand) Intn(n int) int {
	c.mu.Lock()
	v := c.r.Intn(n)
	c.mu.Unlock()
	return v
}

// Perm is rand.Rand.Perm under the control mutex.
func (c *ControlRand) Perm(n int) []int {
	c.mu.Lock()
	p := c.r.Perm(n)
	c.mu.Unlock()
	return p
}

// Shuffle is rand.Rand.Shuffle under the control mutex.
func (c *ControlRand) Shuffle(n int, swap func(i, j int)) {
	c.mu.Lock()
	c.r.Shuffle(n, swap)
	c.mu.Unlock()
}

// Control returns the engine's concurrency-safe control random source.
// Use it instead of Rand() wherever more than one query may be running on
// the engine.
func (e *Engine) Control() *ControlRand { return e.control }

// SetSpendingCap limits the engine's total monetary cost: once TMC
// reaches the cap, further purchases are truncated and queries complete
// best-effort on the evidence at hand. cap <= 0 removes the limit. The cap
// compares against the TMC already spent, so it can be set (or tightened)
// mid-session, from any goroutine.
func (e *Engine) SetSpendingCap(cap int64) {
	if cap <= 0 {
		e.cap.Store(0)
		return
	}
	e.cap.Store(cap)
}

// Remaining returns how many more microtasks the cap allows, or a negative
// value when the engine is uncapped.
func (e *Engine) Remaining() int64 {
	c := e.cap.Load()
	if c <= 0 {
		return -1
	}
	if left := c - e.tmc.Load(); left > 0 {
		return left
	}
	return 0
}

// reserve atomically claims up to n units of TMC against the cap and
// returns how many were granted. Because the claim and the counter bump
// are one compare-and-swap, concurrent purchases can never overshoot the
// cap between check and increment.
func (e *Engine) reserve(n int) int {
	if n <= 0 {
		return 0
	}
	for {
		cur := e.tmc.Load()
		m := int64(n)
		if c := e.cap.Load(); c > 0 {
			left := c - cur
			if left <= 0 {
				return 0
			}
			if m > left {
				m = left
			}
		}
		if e.tmc.CompareAndSwap(cur, cur+m) {
			return int(m)
		}
	}
}

// logSamples appends one purchase's records — a pair's batch, or one
// graded item (j = -1, ps = nil) — to the audit log and streams them to
// the sink, under a single logMu acquisition. It is the engine's only log
// append. Callers hold the pair mutex (or gradeMu), which serializes the
// purchases of one pair, so per-pair record order is purchase order.
// While the pair is held (HoldLog) its records wait in the pair state and
// reach the log at the fan-out's barrier instead.
func (e *Engine) logSamples(ps *pairState, i, j int, vs []float64) {
	round := e.rounds.Load()
	if ps != nil && ps.holds > 0 {
		for _, v := range vs {
			ps.held = append(ps.held, Record{Round: round, I: i, J: j, Value: v})
		}
		return
	}
	e.logMu.Lock()
	n0 := len(e.log)
	for _, v := range vs {
		e.log = append(e.log, Record{Round: round, I: i, J: j, Value: v})
	}
	if e.sink != nil {
		e.sink.Record(e.log[n0:])
	}
	e.logMu.Unlock()
}

// HoldLog starts holding pair (i, j)'s audit records: purchases of the
// pair keep landing in its bag and meters, but their records wait until
// ReleaseLog. A parallel fan-out holds every pair it is about to run and
// releases them in its own pair order at the barrier, so the log's order
// is a function of the fan-out, never of which worker finished first.
// Holds nest; a no-op while logging is off.
func (e *Engine) HoldLog(i, j int) {
	if !e.logging.Load() {
		return
	}
	ps := e.pair(keyOf(i, j))
	ps.mu.Lock()
	ps.holds++
	ps.mu.Unlock()
}

// ReleaseLog ends one HoldLog on pair (i, j) and commits the records held
// for it to the log and the sink, in purchase order.
func (e *Engine) ReleaseLog(i, j int) {
	if !e.logging.Load() {
		return
	}
	ps := e.lookup(keyOf(i, j))
	if ps == nil {
		return
	}
	ps.mu.Lock()
	if ps.holds > 0 {
		ps.holds--
	}
	if len(ps.held) > 0 {
		e.logMu.Lock()
		n0 := len(e.log)
		e.log = append(e.log, ps.held...)
		if e.sink != nil {
			e.sink.Record(e.log[n0:])
		}
		e.logMu.Unlock()
		ps.held = nil
	}
	ps.mu.Unlock()
}

// Draw purchases up to n more preference microtasks for the pair (i, j) —
// fewer if a spending cap is about to be hit — and returns the updated bag
// view oriented toward i. Each microtask costs one unit of TMC. Draw does
// not advance the latency clock; callers Tick at their batch boundaries.
//
// DrawN is Draw plus the exact charge: the second result is how many
// microtasks were actually delivered and charged for this call, after cap
// truncation and platform-shortfall refunds. Callers attributing cost to
// one of several concurrent queries need the per-call count — a view diff
// would misattribute when another query draws the same pair concurrently.
//
// The whole batch is sampled through one dynamic dispatch: oracles
// implementing FallibleBatchOracle (preferred) or BatchOracle fill a
// pooled scratch buffer in a single call, everyone else falls back to n
// direct Preference calls. All paths consume the pair's private stream
// identically (BatchOracle's contract), so batching never changes the
// samples a pair receives.
//
// The fallible path may decline part of the purchase: only the answers
// actually delivered are charged (the reservation for undelivered slots
// is refunded), and a reported error latches the engine into degraded
// mode — this and every later Draw grant nothing more, so TMC always
// equals the answers accepted into bags, even mid-failure.
func (e *Engine) Draw(i, j, n int) BagView {
	v, _, _ := e.draw(i, j, n)
	return v
}

// DrawN purchases like Draw and additionally returns the number of
// microtasks delivered and charged by this call. See Draw.
func (e *Engine) DrawN(i, j, n int) (BagView, int) {
	v, charged, _ := e.draw(i, j, n)
	return v, charged
}

// DrawOne purchases a single preference microtask for the pair (i, j) and
// returns the sampled value oriented toward i (positive favors i). It is
// Draw at n = 1: it costs one unit of TMC and records the sample in the
// pair's bag. The second result is false — and nothing is purchased — when
// a spending cap is exhausted or the engine has degraded after a platform
// failure.
func (e *Engine) DrawOne(i, j int) (float64, bool) {
	_, charged, last := e.draw(i, j, 1)
	return last, charged == 1
}

// draw is the engine's purchase kernel behind Draw, DrawN and DrawOne. It
// returns the pair's view oriented toward i, the delivered count, and the
// last delivered sample oriented toward i (0 when nothing was delivered).
func (e *Engine) draw(i, j, n int) (BagView, int, float64) {
	if i == j {
		panic(fmt.Sprintf("crowd: draw on identical items %d", i))
	}
	if n < 0 {
		panic(fmt.Sprintf("crowd: draw with negative count %d", n))
	}
	k := keyOf(i, j)
	flip := i != k.lo
	ps := e.pair(k)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if e.failed.Load() {
		return ps.bag.view(flip), 0, 0
	}
	req := n
	n = e.reserve(n)
	if ins := e.ins; ins != nil && n < req {
		ins.CapDenied.Add(int64(req - n))
	}
	if n == 0 {
		return ps.bag.view(flip), 0, 0
	}
	bufp := drawBufPool.Get().(*[]float64)
	buf := *bufp
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	filled := n
	switch {
	case e.fallible != nil:
		var err error
		filled, err = e.fallible.PreferencesPartial(ps.rng, k.lo, k.hi, buf)
		if filled < 0 {
			filled = 0
		} else if filled > n {
			filled = n
		}
		if err != nil {
			e.fail(err)
		}
	case e.batch != nil:
		e.batch.Preferences(ps.rng, k.lo, k.hi, buf)
	default:
		o := e.oracle
		for t := range buf {
			buf[t] = o.Preference(ps.rng, k.lo, k.hi)
		}
	}
	if filled < n {
		// Refund the reservation for answers that never arrived: TMC
		// charges only what was delivered and accepted.
		e.tmc.Add(int64(filled - n))
	}
	buf = buf[:filled]
	for _, v := range buf {
		if v < -1 || v > 1 {
			panic(fmt.Sprintf("crowd: oracle returned preference %v outside [-1,1] for pair (%d,%d)", v, k.lo, k.hi))
		}
	}
	var last float64
	if filled > 0 {
		ps.bag.addAll(buf)
		if e.logging.Load() {
			e.logSamples(ps, k.lo, k.hi, buf)
		}
		e.pairCmp.Add(int64(filled))
		ps.publishLocked()
		if last = buf[filled-1]; flip {
			last = -last
		}
	}
	if ins := e.ins; ins != nil {
		ins.Batches.Inc()
		ins.Samples.Add(int64(filled))
		ins.TMC.Add(int64(filled))
		if filled < n {
			ins.Refunds.Add(int64(n - filled))
		}
		ins.BagSize.Observe(int64(ps.bag.pref.N()))
	}
	*bufp = buf[:0]
	drawBufPool.Put(bufp)
	return ps.bag.view(flip), filled, last
}

// View returns the current bag view for pair (i, j) oriented toward i,
// without purchasing anything. A pair never drawn has a zero view.
//
// View is mutex-free and allocation-free: it loads the pair's atomically
// published snapshot, so it never contends with in-flight purchases of the
// same pair. The snapshot is the state as of the last completed purchase.
func (e *Engine) View(i, j int) BagView {
	if i == j {
		panic(fmt.Sprintf("crowd: View on identical items %d", i))
	}
	k := keyOf(i, j)
	ps := e.lookup(k)
	if ps == nil {
		return BagView{}
	}
	p := ps.view.Load()
	if p == nil {
		// Pair created but nothing purchased yet (e.g. a cap-exhausted
		// draw): indistinguishable from never drawn.
		return BagView{}
	}
	if i != k.lo {
		return p.flipped()
	}
	return *p
}

// Posterior exports the exact Welford state of pair (i, j)'s sample bag
// in canonical (lo, hi) orientation, and whether the pair has any
// samples. It is the commit side of the judgment store round trip:
// Posterior → store → SeedPair reproduces the bag bit-for-bit.
func (e *Engine) Posterior(i, j int) (PairPosterior, bool) {
	if i == j {
		panic(fmt.Sprintf("crowd: Posterior on identical items %d", i))
	}
	ps := e.lookup(keyOf(i, j))
	if ps == nil {
		return PairPosterior{}, false
	}
	ps.mu.Lock()
	p := ps.bag.posterior()
	ps.mu.Unlock()
	return p, p.N > 0
}

// SeedPair installs a previously exported posterior as pair (i, j)'s
// sample bag — in canonical (lo, hi) orientation — without purchasing
// anything: no TMC is charged, no oracle is called, the pair's sample
// stream is not consumed, and nothing is appended to the audit log (the
// audit log records money spent; seeded evidence was paid for by an
// earlier query and is accounted in the store, not here).
//
// With overwrite false, seeding only succeeds on an untouched pair: once
// real samples exist the live evidence wins. With overwrite true, a
// posterior that subsumes the live bag (p.N >= live count) replaces it —
// sound because a pair's samples are a deterministic stream, so the live
// bag is a prefix of the larger recorded one; a live bag that has grown
// past the posterior still wins.
func (e *Engine) SeedPair(i, j int, p PairPosterior, overwrite bool) bool {
	if i == j {
		panic(fmt.Sprintf("crowd: SeedPair on identical items %d", i))
	}
	if p.N <= 0 {
		return false
	}
	ps := e.pair(keyOf(i, j))
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if live := ps.bag.pref.N(); live != 0 && (!overwrite || live > p.N) {
		return false
	}
	ps.bag.restore(p)
	ps.publishLocked()
	return true
}

// Grade purchases one graded microtask for item i and returns the grade.
// It costs one unit of TMC, like a pairwise microtask (Appendix B), and
// respects the spending cap: the second result is false — and nothing is
// purchased — when the cap is exhausted or the engine has degraded after
// a platform failure. The oracle must implement Grader.
func (e *Engine) Grade(i int) (float64, bool) {
	g, ok := e.oracle.(Grader)
	if !ok {
		panic("crowd: oracle does not support graded judgments")
	}
	e.gradeMu.Lock()
	defer e.gradeMu.Unlock()
	if e.failed.Load() {
		return 0, false
	}
	if e.reserve(1) == 0 {
		if ins := e.ins; ins != nil {
			ins.CapDenied.Inc()
		}
		return 0, false
	}
	rng := e.gradeRng[i]
	if rng == nil {
		rng = rand.New(rand.NewSource(e.gradeSeed(i)))
		e.gradeRng[i] = rng
	}
	v := g.Grade(rng, i)
	e.graded.Add(1)
	if e.logging.Load() {
		one := [1]float64{v}
		e.logSamples(nil, i, -1, one[:])
	}
	if ins := e.ins; ins != nil {
		ins.Graded.Inc()
		ins.TMC.Inc()
	}
	return v, true
}

// Tick advances the latency clock by n batch rounds. Algorithms call it
// once per wave of parallel batches (§5.5), from the wave's control
// goroutine.
func (e *Engine) Tick(n int) {
	if n < 0 {
		panic(fmt.Sprintf("crowd: Tick with negative rounds %d", n))
	}
	e.rounds.Add(int64(n))
	if ins := e.ins; ins != nil {
		ins.Rounds.Add(int64(n))
	}
}

// TMC returns the total monetary cost so far: the number of microtasks
// purchased, pairwise and graded combined. At quiescence (no purchase in
// flight) TMC equals PairwiseTasks + GradedTasks; mid-purchase the total
// is reserved before the per-kind counter is bumped.
func (e *Engine) TMC() int64 { return e.tmc.Load() }

// PairwiseTasks returns the number of pairwise microtasks purchased.
func (e *Engine) PairwiseTasks() int64 { return e.pairCmp.Load() }

// GradedTasks returns the number of graded microtasks purchased.
func (e *Engine) GradedTasks() int64 { return e.graded.Load() }

// Rounds returns the latency clock: the number of batch rounds elapsed.
func (e *Engine) Rounds() int64 { return e.rounds.Load() }

// PairsTouched returns how many distinct pairs have a sample bag; useful
// for diagnostics and tests.
func (e *Engine) PairsTouched() int {
	n := 0
	for s := range e.shards {
		n += e.shards[s].count()
	}
	return n
}

// Reset discards all purchased samples, zeroes the cost and latency
// counters, and clears the audit log, keeping the oracle, the seed and
// the control random source. Per-pair sample streams restart from the
// engine seed, so a reset engine replays the same samples for the same
// draws. Reset must not race with in-flight purchases.
func (e *Engine) Reset() {
	for s := range e.shards {
		e.shards[s].reset()
	}
	e.gradeMu.Lock()
	e.gradeRng = make(map[int]*rand.Rand)
	e.gradeMu.Unlock()
	e.tmc.Store(0)
	e.rounds.Store(0)
	e.pairCmp.Store(0)
	e.graded.Store(0)
	e.logMu.Lock()
	e.log = nil
	e.logMu.Unlock()
	e.failed.Store(false)
	e.failMu.Lock()
	e.failCause = nil
	e.failMu.Unlock()
}
