package topk

import (
	"slices"
	"time"

	"crowdtopk/internal/compare"
	"crowdtopk/internal/sched"
)

// match is one comparison a plan wants answered: the pair (i, j), with
// the outcome eventually reported to decide oriented toward i.
type match struct {
	id   int64
	i, j int
}

// plan is an algorithm's comparison schedule, the shape every top-k
// processor reduces to: ready returns the matches whose inputs are now
// known (each match is returned exactly once — the driver takes
// ownership), and decide delivers a match's raw outcome, from which the
// plan updates its state so further matches become ready. Plans apply
// their own tie-resolution policy inside decide; the driver reports
// conclusions verbatim (memoized verdicts, definitional self-pair ties,
// and budget-exhausted ties included).
//
// stale reports whether an undecided match has stopped mattering (a
// partition race against a reference that has since been upgraded). The
// driver asks before every submission of a chain; a true answer is final —
// the driver detaches the match and never decides it, so the plan
// re-issues whatever it still needs. Plans whose matches never go stale
// embed fresh.
type plan interface {
	ready() []match
	decide(id int64, o compare.Outcome)
	stale(id int64) bool
}

// fresh is the stale method of plans whose matches stay relevant until
// decided.
type fresh struct{}

func (fresh) stale(int64) bool { return false }

// chain is one live comparison process: a canonical pair being advanced
// batch by batch, plus every match waiting on its verdict (duplicate
// requests for one pair — in either orientation — share a single chain,
// so each distinct pair advances at most once per round).
type chain struct {
	tag     int64
	lo, hi  int
	round   int64
	waiters []match
	out     compare.Outcome
	done    bool
	step    func() // one comparison step, built once and resubmitted
}

// drive runs a plan to completion on the runner's shared scheduler; it is
// the package's only loop over comparison chains. Each pass submits the
// live chains, waits at a barrier, applies the barrier's conclusions in
// chain-creation order, and admits what the plan makes ready next.
//
// In deterministic mode (the default) the barrier is the wave of §5.5:
// the drain, after which the wave's held audit records commit in
// chain-creation order and the clock ticks once — so the result and the
// audit log are byte-identical for any Parallelism at a fixed seed. In
// async mode the barrier is a single completion: a decided chain frees
// its pool slot at once (for another pair, or another query) instead of
// idling behind the wave's straggler. Latency is the high-water mark of
// per-chain rounds, the depth of the longest comparison process — in
// deterministic mode exactly one round per wave.
//
// After the conclusions, a chain whose waiters have all gone stale is
// dropped instead of (re)submitted; the samples it bought stay banked with
// the pair.
func drive(r *compare.Runner, p plan) {
	q, release := r.Borrow()
	defer release()
	async := r.AsyncMode()
	eng := r.Engine()
	ins := r.Instruments()

	chains := make(map[[2]int]*chain) // live chains by canonical pair
	var byTag []*chain                // every chain started, by tag
	var ticked int64

	// pump takes every ready match: self-pairs (a tie by definition —
	// they arise when sampling with replacement yields the same max
	// twice) and memoized or store-served pairs decide immediately at
	// zero cost (counted as memo hits by Runner.Reuse); a match a verdict
	// earlier in the pump has already made stale starts no chain; the
	// rest attach to the pair's live chain or start a new one. Deciding
	// can make further matches ready, so pump polls until quiescent. It
	// returns the chains started, in creation order.
	pump := func() []*chain {
		var started []*chain
		for {
			ms := p.ready()
			if len(ms) == 0 {
				return started
			}
			for _, m := range ms {
				if m.i == m.j {
					p.decide(m.id, compare.Tie)
					continue
				}
				if o, ok := r.Reuse(m.i, m.j); ok {
					p.decide(m.id, o)
					continue
				}
				if p.stale(m.id) {
					continue
				}
				lo, hi := m.i, m.j
				if lo > hi {
					lo, hi = hi, lo
				}
				key := [2]int{lo, hi}
				if c := chains[key]; c != nil {
					c.waiters = append(c.waiters, m)
					continue
				}
				c := &chain{tag: int64(len(byTag)), round: ticked, lo: lo, hi: hi, waiters: []match{m}}
				c.step = func() { c.out, c.done = r.Advance(c.lo, c.hi) }
				chains[key] = c
				byTag = append(byTag, c)
				started = append(started, c)
			}
		}
	}

	// admit tops live up with the chains pump starts and drops every chain
	// whose waiters have all gone stale. Dropping hands matches back to
	// the plan, which may re-issue them, so admit repeats until nothing
	// more is dropped.
	admit := func(live []*chain) []*chain {
		for n := -1; n != len(live); {
			live = append(live, pump()...)
			n = len(live)
			live = slices.DeleteFunc(live, func(c *chain) bool {
				c.waiters = slices.DeleteFunc(c.waiters, func(m match) bool { return p.stale(m.id) })
				if len(c.waiters) > 0 {
					return false
				}
				delete(chains, [2]int{c.lo, c.hi})
				return true
			})
		}
		return live
	}

	live := admit(nil)
	inflight := 0
	for len(live) > 0 || inflight > 0 {
		var waveStart time.Time
		if !async {
			if ins != nil {
				ins.Waves.Inc()
				ins.WaveWidth.Observe(int64(len(live)))
				ins.WaveWidthMax.SetMax(int64(len(live)))
				waveStart = time.Now()
			}
			for _, c := range live {
				eng.HoldLog(c.lo, c.hi)
			}
		}
		for _, c := range live {
			q.Submit(sched.Task{Tag: c.tag, Round: c.round + 1, Run: c.step})
		}
		inflight += len(live)

		// The barrier: the completions whose verdicts apply now.
		batch := live
		if async {
			batch = append(live[:0], byTag[q.Next()])
			inflight--
		} else {
			q.Drain(inflight)
			inflight = 0
			for _, c := range live {
				eng.ReleaseLog(c.lo, c.hi)
			}
			if ins != nil {
				ins.WaveNs.Add(time.Since(waveStart).Nanoseconds())
			}
		}

		next := batch[:0]
		for _, c := range batch {
			if c.round++; c.round > ticked {
				r.Tick(int(c.round - ticked))
				ticked = c.round
			}
			// A stopped query's pending steps are dropped by the
			// scheduler — their completions arrive without Run having
			// executed. Conclude such chains inline: Advance on a stopped
			// runner purchases nothing and reports the best-effort verdict
			// immediately, so the drain makes monotonic progress at zero
			// cost.
			if !c.done && r.Stopped() {
				c.out, c.done = r.Advance(c.lo, c.hi)
			}
			if !c.done {
				next = append(next, c)
				continue
			}
			delete(chains, [2]int{c.lo, c.hi})
			for _, m := range c.waiters {
				o := c.out
				if m.i != c.lo {
					o = o.Flip()
				}
				p.decide(m.id, o)
			}
		}
		live = admit(next)
	}
}
