package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"crowdtopk"
	"crowdtopk/internal/topk"
)

// session: one long-lived deterministic Session over topkd's default
// catalogue (200 synthetic items), one client cycling a fixed pool of
// algorithm × k queries through StartTopK/Wait. Set-up concludes every
// pair, so the timed phase is all top-k plans and drive loop, the compare
// memo, sched and Fork; it never draws from the engine or reaches the
// oracle: the control for any engine-side change.
//
// SPR's reference selection runs on a private memo at a 2I budget and
// tops up pairs concluded below it, so passes over the pool never quite
// stop buying. The session is therefore opened with a spending cap equal
// to what an identical uncapped warm-up spent: the warm-ups buy exactly
// the same microtasks, and the timed phase can buy nothing.

const (
	sessionItems  = 200
	sessionNoise  = 0.3
	sessionPasses = 10
	// sessionCostCycles pool cycles form the NDCG sample.
	sessionCostCycles = 4
)

type poolEntry struct {
	alg crowdtopk.Algorithm
	k   int
}

// sessionPool is {spr, heapsort, quickselect, tourtree} × k∈5..12 in a
// seeded order.
func sessionPool(seed int64) []poolEntry {
	var pool []poolEntry
	for _, a := range []crowdtopk.Algorithm{crowdtopk.SPR, crowdtopk.HeapSort, crowdtopk.QuickSelect, crowdtopk.TourTree} {
		for k := 5; k <= 12; k++ {
			pool = append(pool, poolEntry{a, k})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

func sessionOptions(seed, spendingCap int64) crowdtopk.Options {
	return crowdtopk.Options{
		Algorithm: crowdtopk.SPR, Confidence: 0.95, Budget: 500, TotalBudget: spendingCap,
		Scheduling: crowdtopk.Deterministic, Seed: seed + 1,
	}
}

// openWarm opens a session and concludes every pair: Session.Judge over
// all pairs, then passes over the pool. It returns the session and the
// time NewSession took.
func openWarm(o crowdtopk.Oracle, opts crowdtopk.Options, pool []poolEntry) (*crowdtopk.Session, time.Duration, error) {
	start := time.Now()
	s, err := crowdtopk.NewSession(o, opts)
	if err != nil {
		return nil, 0, err
	}
	open := time.Since(start)
	n := o.NumItems()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if _, err := s.Judge(i, j); err != nil {
				s.Close()
				return nil, 0, err
			}
		}
	}
	for p := 0; p < sessionPasses; p++ {
		if _, _, err := runCycle(s, pool, nil); err != nil {
			s.Close()
			return nil, 0, err
		}
	}
	return s, open, nil
}

// runCycle answers every pool entry once; with tr set, each query is
// traced. It returns the answers and the latencies in ms.
func runCycle(s *crowdtopk.Session, pool []poolEntry, tr *tracer) ([]answer, []float64, error) {
	answers := make([]answer, len(pool))
	lat := make([]float64, len(pool))
	startUS := []float64(nil)
	for i, e := range pool {
		start := time.Now()
		var id int32
		var t0 int64
		if tr != nil {
			id = tr.begin("session.query", "")
			tr.root.Store(id)
			t0 = tr.now()
		}
		h, err := s.StartTopK(context.Background(), e.k, crowdtopk.QueryOptions{Algorithm: e.alg})
		if err != nil {
			return nil, nil, err
		}
		if tr != nil {
			t1 := tr.now()
			tr.leaf("session.StartTopK", t0, t1)
			startUS = append(startUS, float64(t1-t0)/1e3)
			t0 = t1
		}
		res, err := h.Wait()
		if tr != nil {
			tr.leaf("session.Wait", t0, tr.now())
			tr.end(id)
			tr.root.Store(0)
		}
		lat[i] = ms(time.Since(start))
		if err != nil {
			return nil, nil, fmt.Errorf("%s k=%d: %w", e.alg, e.k, err)
		}
		answers[i] = answerOf(res)
	}
	if tr != nil {
		tr.mu.Lock()
		tr.startUS = append(tr.startUS, startUS...)
		tr.mu.Unlock()
	}
	return answers, lat, nil
}

// sessionEnv is a warmed session ready for the timed phase, with the
// reference answers of its first cycle.
type sessionEnv struct {
	data            crowdtopk.Dataset
	pool            []poolEntry
	sess            *crowdtopk.Session
	warmTMC, rounds int64
	ref             []answer
	setups          []time.Duration
}

// setupSession runs the three set-ups: an uncapped warm-up that prices
// the evidence, a capped one whose first cycle gives the reference
// answers, and the capped one the timed phase runs on.
func setupSession(cfg config, rep *report) (*sessionEnv, error) {
	env := &sessionEnv{pool: sessionPool(cfg.seed)}
	for i := 0; i < 3; i++ {
		start := time.Now()
		env.data = crowdtopk.SyntheticDataset(sessionItems, sessionNoise, catalogueSeed)
		s, _, err := openWarm(env.data, sessionOptions(cfg.seed, env.warmTMC), env.pool)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		env.setups = append(env.setups, time.Since(start))
		switch i {
		case 0:
			env.warmTMC, env.rounds = s.TMC(), s.Rounds()
			s.Close()
		case 1:
			rep.gate(checkNoPurchase(env.warmTMC, s.TMC()))
			env.ref, _, err = runCycle(s, env.pool, nil)
			s.Close()
			if err != nil {
				return nil, err
			}
		case 2:
			rep.gate(checkNoPurchase(env.warmTMC, s.TMC()))
			env.sess = s
		}
	}
	return env, nil
}

func runSession(cfg config) (*report, error) {
	rep := newReport()
	env, err := setupSession(cfg, rep)
	if err != nil {
		return nil, err
	}
	defer env.sess.Close()
	if cfg.trace {
		return rep, traceSession(cfg, rep, env)
	}

	s := e2eSample{setups: env.setups}
	rss := startRSS()
	wm := newWindowMeter(len(env.pool)) // a window is one pool cycle
	deadline := time.Now().Add(cfg.seconds)
	for c := 0; c < sessionCostCycles || time.Now().Before(deadline); c++ {
		answers, lat, err := runCycle(env.sess, env.pool, nil)
		rep.attempted += len(env.pool)
		if err != nil {
			rep.failed++
			rep.gate(err)
			break
		}
		s.lat = append(s.lat, lat...)
		for i, a := range answers {
			rep.gate(checkTopK(a.TopK, env.pool[i].k, sessionItems))
			if c == 0 {
				rep.gate(checkSameAnswer(fmt.Sprintf("first cycle, %s k=%d", env.pool[i].alg, env.pool[i].k), a, env.ref[i]))
			}
			if c < sessionCostCycles {
				s.ndcg = append(s.ndcg, crowdtopk.Evaluate(env.data, a.TopK).NDCG)
			}
		}
		wm.after(len(s.lat))
	}
	wm.close(len(s.lat))
	s.windows = wm.windows
	s.peakRSS = rss.peak()
	rep.gate(checkNoPurchase(env.warmTMC, env.sess.TMC()))

	// The crowd cost behind the answers served is the warm-up's, spread
	// over the pool: the timed phase itself buys nothing.
	q := float64(len(env.pool))
	inf := 0.0
	for _, e := range env.pool {
		inf += topk.InfimumCost(env.data, e.k, topk.InfimumParams{Alpha: 0.05, B: 500, I: 30, Eta: 30})
	}
	s.tmc = []float64{float64(env.warmTMC) / q}
	s.rounds = []float64{float64(env.rounds) / q}
	s.infimum = inf / q
	rep.endToEnd(s)
	return rep, nil
}

// traceSession times cycles untraced on the warmed session, then opens
// and warms a traced twin and runs as many cycles traced. Both must
// answer the reference cycle exactly and buy nothing; the twin's warm-up
// must buy exactly the untraced one's microtasks.
func traceSession(cfg config, rep *report, env *sessionEnv) error {
	u, err := beginUntraced()
	if err != nil {
		return err
	}
	cycles := 0
	for ; cycles < 2 || time.Since(u.start) < cfg.seconds/2; cycles++ {
		answers, _, err := runCycle(env.sess, env.pool, nil)
		if err != nil {
			u.end(cycles * len(env.pool))
			return err
		}
		if cycles == 0 {
			for i, a := range answers {
				rep.gate(checkSameAnswer(fmt.Sprintf("untraced first cycle, entry %d", i), a, env.ref[i]))
			}
		}
	}
	u.end(cycles * len(env.pool))

	tr := newTracer()
	activeTracer.Store(tr)
	oracle, err := newTracedOracle(env.data, tr)
	if err != nil {
		return err
	}
	tel := crowdtopk.NewTelemetry()
	opts := sessionOptions(cfg.seed, env.warmTMC)
	opts.Policy = tracedPolicyPrefix + "fixed"
	opts.Telemetry = tel
	twin, open, err := openWarm(oracle, opts, env.pool)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	defer twin.Close()
	rep.gate(checkNoPurchase(env.warmTMC, twin.TMC()))
	if seen := tr.oracleSamples.Load(); seen != env.warmTMC {
		rep.gate(fmt.Errorf("traced warm-up: oracle saw %d microtasks, untraced warm-up bought %d", seen, env.warmTMC))
	}

	ph := beginTraced(tr, tel)
	for c := 0; c < cycles; c++ {
		answers, _, err := runCycle(twin, env.pool, tr)
		rep.attempted += len(env.pool)
		if err != nil {
			rep.failed++
			rep.gate(err)
			break
		}
		if c == 0 {
			for i, a := range answers {
				rep.gate(checkSameAnswer(fmt.Sprintf("traced first cycle, entry %d", i), a, env.ref[i]))
			}
		}
	}
	rep.gate(checkNoPurchase(env.warmTMC, twin.TMC()))
	tr.mu.Lock()
	rep.metrics["session.start_us_p50"] = quantile(tr.startUS, 0.5)
	tr.mu.Unlock()
	rep.metrics["session.open_ms"] = ms(open)
	return ph.finish(cfg, rep, cycles*len(env.pool), u, env.data)
}
