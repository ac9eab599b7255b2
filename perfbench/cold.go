package main

import (
	"fmt"
	"time"

	"crowdtopk"
	"crowdtopk/internal/topk"
)

// cold: a fresh crowdtopk.Query per request on the IMDb stand-in, SPR at
// the paper's defaults, one client. Every pair is new, so cold-pair
// creation, the draw kernels, the dataset oracle and the policy's
// stopping test do nearly all the work; no disk, store or telemetry.

const (
	coldK = 10
	// coldCostQueries requests form the crowd-cost sample: the first
	// ones of every run, so the crowd-cost metrics repeat exactly at a
	// fixed seed however fast the machine is.
	coldCostQueries = 48
	// coldRerunSeeds requests are rerun at Parallelism 1 and must match.
	coldRerunSeeds = 3
	coldSetups     = 3
	// coldWindow queries make one measurement window (about half a
	// second; see windowMeter).
	coldWindow = 8
)

func coldOptions(seed int64) crowdtopk.Options {
	return crowdtopk.Options{
		K: coldK, Algorithm: crowdtopk.SPR, Estimator: crowdtopk.Student,
		Confidence: 0.98, Budget: 1000, MinWorkload: 30, BatchSize: 30,
		Scheduling: crowdtopk.Deterministic, Seed: seed,
	}
}

type coldEnv struct {
	data    crowdtopk.Dataset
	infimum float64 // Lemma 1 infimum of one query
}

// setupCold builds the catalogue, its infimum, and runs one warm-up
// query on a seed the measured requests never use.
func setupCold(seed int64) (coldEnv, error) {
	data := crowdtopk.IMDbDataset(catalogueSeed)
	env := coldEnv{data: data, infimum: topk.InfimumCost(data, coldK, topk.InfimumParams{Alpha: 0.02, B: 1000, I: 30, Eta: 30})}
	_, err := crowdtopk.Query(data, coldOptions(seed+1<<40))
	return env, err
}

func runCold(cfg config) (*report, error) {
	rep := newReport()
	var env coldEnv
	setups := make([]time.Duration, coldSetups)
	for i := range setups {
		start := time.Now()
		var err error
		if env, err = setupCold(cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(start)
	}
	if cfg.trace {
		return rep, traceCold(cfg, rep, env)
	}

	n := env.data.NumItems()
	s := e2eSample{setups: setups}
	var kept []answer
	rss := startRSS()
	wm := newWindowMeter(coldWindow)
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i < coldCostQueries || time.Now().Before(deadline); i++ {
		start := time.Now()
		res, err := crowdtopk.Query(env.data, coldOptions(cfg.seed+int64(i)))
		s.lat = append(s.lat, ms(time.Since(start)))
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.gate(fmt.Errorf("request %d: %w", i, err))
			continue
		}
		rep.gate(checkTopK(res.TopK, coldK, n))
		if i < coldCostQueries {
			kept = append(kept, answerOf(res))
			s.tmc = append(s.tmc, float64(res.TMC))
			s.rounds = append(s.rounds, float64(res.Rounds))
			s.ndcg = append(s.ndcg, crowdtopk.Evaluate(env.data, res.TopK).NDCG)
			s.infimum += env.infimum
		}
		wm.after(len(s.lat))
	}
	wm.close(len(s.lat))
	s.windows = wm.windows
	s.peakRSS = rss.peak()
	rep.endToEnd(s)

	for i := 0; i < coldRerunSeeds && i < len(kept); i++ {
		opts := coldOptions(cfg.seed + int64(i))
		opts.Parallelism = 1
		res, err := crowdtopk.Query(env.data, opts)
		if err != nil {
			rep.gate(fmt.Errorf("Parallelism 1 rerun of request %d: %w", i, err))
			continue
		}
		rep.gate(checkSameAnswer(fmt.Sprintf("Parallelism 1 rerun of request %d", i), answerOf(res), kept[i]))
	}
	return rep, nil
}

// traceCold runs the same requests untraced, then traced, and checks
// that the traced run bought the same microtasks and answers.
func traceCold(cfg config, rep *report, env coldEnv) error {
	u, err := beginUntraced()
	if err != nil {
		return err
	}
	var untraced []answer
	for i := 0; i < 2 || time.Since(u.start) < cfg.seconds/2; i++ {
		res, err := crowdtopk.Query(env.data, coldOptions(cfg.seed+int64(i)))
		if err != nil {
			u.end(i)
			return fmt.Errorf("untraced request %d: %w", i, err)
		}
		untraced = append(untraced, answerOf(res))
	}
	u.end(len(untraced))

	tel := crowdtopk.NewTelemetry()
	ph := beginTraced(newTracer(), tel)
	oracle, err := newTracedOracle(env.data, ph.tr)
	if err != nil {
		return err
	}
	for i := range untraced {
		opts := coldOptions(cfg.seed + int64(i))
		opts.Policy = tracedPolicyPrefix + "fixed"
		opts.Telemetry = tel
		samplesBefore := ph.tr.oracleSamples.Load()
		ph.tr.newEngine()
		id := ph.tr.begin("crowdtopk.Query", fmt.Sprint("q", i))
		ph.tr.root.Store(id)
		res, err := crowdtopk.Query(oracle, opts)
		ph.tr.end(id)
		ph.tr.root.Store(0)
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.gate(fmt.Errorf("traced request %d: %w", i, err))
			continue
		}
		what := fmt.Sprintf("traced request %d", i)
		rep.gate(checkSameAnswer(what, answerOf(res), untraced[i]))
		if bought := ph.tr.oracleSamples.Load() - samplesBefore; bought != res.TMC {
			rep.gate(fmt.Errorf("%s: oracle saw %d microtasks, result says %d", what, bought, res.TMC))
		}
	}
	return ph.finish(cfg, rep, len(untraced), u, env.data)
}
