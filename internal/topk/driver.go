package topk

import (
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
// One driver executes every plan in both scheduling modes, so the wave
// bookkeeping that used to be copied across the tournament, sorting,
// merging and flat-batch loops lives in exactly one place.
type plan interface {
	ready() []match
	decide(id int64, o compare.Outcome)
}

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
}

// drive runs a plan to completion on the runner's shared scheduler.
//
// In deterministic mode (the default) it advances all live chains in
// lockstep waves: every chain gets one batch, the drain is the wave
// barrier of §5.5, the clock ticks once per wave, and conclusions apply
// in chain-creation order on the control goroutine — so the result is
// byte-identical for any Parallelism at a fixed seed.
//
// In async mode chains free-run: the moment a chain's batch completes it
// is either concluded (immediately freeing its pool slot for another
// pair, or another query) or resubmitted, with no barrier. Latency is
// accounted as the high-water mark of per-chain rounds — the depth of
// the longest comparison process, which is what a real crowd deployment
// with enough workers would observe.
func drive(r *compare.Runner, p plan) {
	q, release := r.Borrow()
	defer release()

	chains := make(map[[2]int]*chain)
	byTag := make(map[int64]*chain)
	var nextTag int64

	conclude := func(c *chain) {
		delete(chains, [2]int{c.lo, c.hi})
		delete(byTag, c.tag)
		for _, m := range c.waiters {
			o := c.out
			if m.i != c.lo {
				o = o.Flip()
			}
			p.decide(m.id, o)
		}
	}

	// pump admits every ready match: self-pairs (a tie by definition —
	// they arise when sampling with replacement yields the same max
	// twice) and memoized or store-served pairs decide immediately at
	// zero cost (counted as memo hits by Runner.Reuse); the
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
				lo, hi := m.i, m.j
				if lo > hi {
					lo, hi = hi, lo
				}
				key := [2]int{lo, hi}
				if c := chains[key]; c != nil {
					c.waiters = append(c.waiters, m)
					continue
				}
				c := &chain{tag: nextTag, lo: lo, hi: hi, waiters: []match{m}}
				nextTag++
				chains[key] = c
				byTag[c.tag] = c
				started = append(started, c)
			}
		}
	}

	if !r.AsyncMode() {
		driveWaves(r, q, p, pump, conclude)
		return
	}

	live := pump()
	var ticked int64
	inflight := 0
	submit := func(c *chain) {
		q.Submit(sched.Task{Tag: c.tag, Round: c.round + 1, Run: func() {
			c.out, c.done = r.Advance(c.lo, c.hi)
		}})
		inflight++
	}
	for _, c := range live {
		c.round = ticked
		submit(c)
	}
	for inflight > 0 {
		tag := q.Next()
		inflight--
		c := byTag[tag]
		// A stopped query's pending steps are dropped by the scheduler —
		// their completions arrive without Run having executed. Conclude
		// such chains inline: Advance on a stopped runner purchases
		// nothing and reports the best-effort verdict immediately, so the
		// drain makes monotonic progress at zero cost.
		if !c.done && r.Stopped() {
			c.out, c.done = r.Advance(c.lo, c.hi)
		}
		c.round++
		// High-water latency: chains advance in lockstep rounds, so the
		// query is as deep as its deepest chain. Chains behind the mark
		// ride rounds already paid for.
		if c.round > ticked {
			r.Tick(int(c.round - ticked))
			ticked = c.round
		}
		if !c.done {
			submit(c)
			continue
		}
		conclude(c)
		for _, n := range pump() {
			n.round = ticked
			submit(n)
		}
	}
}

// driveWaves is the deterministic mode of drive: lockstep waves with a
// drain barrier, one latency round per wave, conclusions applied in
// chain-creation order. The wave's audit records are held per pair and
// committed at the barrier in chain-creation order too, so the audit log
// is as independent of Parallelism as the result.
func driveWaves(r *compare.Runner, q *sched.Query, p plan, pump func() []*chain, conclude func(*chain)) {
	ins := r.Instruments()
	eng := r.Engine()
	live := pump()
	var wave int64
	for len(live) > 0 {
		wave++
		var waveStart time.Time
		if ins != nil {
			ins.Waves.Inc()
			ins.WaveWidth.Observe(int64(len(live)))
			ins.WaveWidthMax.SetMax(int64(len(live)))
			waveStart = time.Now()
		}
		for _, c := range live {
			eng.HoldLog(c.lo, c.hi)
		}
		for _, c := range live {
			c := c
			q.Submit(sched.Task{Tag: c.tag, Round: wave, Run: func() {
				c.out, c.done = r.Advance(c.lo, c.hi)
			}})
		}
		q.Drain(len(live))
		for _, c := range live {
			eng.ReleaseLog(c.lo, c.hi)
		}
		if ins != nil {
			ins.WaveNs.Add(time.Since(waveStart).Nanoseconds())
		}
		r.Tick(1)
		next := live[:0]
		for _, c := range live {
			// Steps dropped by a stopped query's scheduler cancel never
			// ran; conclude their chains best-effort at zero cost so the
			// wave loop drains instead of resubmitting forever.
			if !c.done && r.Stopped() {
				c.out, c.done = r.Advance(c.lo, c.hi)
			}
			if c.done {
				conclude(c)
			} else {
				next = append(next, c)
			}
		}
		live = append(next, pump()...)
	}
}
