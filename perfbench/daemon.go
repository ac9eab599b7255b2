package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"crowdtopk"
	"crowdtopk/internal/service"
	"crowdtopk/internal/topk"
)

// daemon: internal/service wired the way cmd/topkd wires it with its
// defaults — async scheduling, the simulated platform (8 workers) behind
// the resilience layer, telemetry, a batched audit log with its query
// journal, a file judgment store — serving real HTTP on loopback to
// nproc closed-loop clients. Each client POSTs a fixed mix of algorithm
// × policy × k (one request in four with a max_cost sub-cap) and waits
// for the SSE done event. Reads (memo and store lookups, status) run
// beside writes (audit appends, store commits, journal entries): the
// platform, auditlog, jstore and service layers the other workloads
// never touch. The catalogue is smaller than topkd's default 200 items
// so a run reaches the hundred-odd queries a p90 needs.

const (
	daemonItems   = 100
	daemonMaxCost = 3000
	// daemonSetups boots at least, each one set-up sample: a boot takes
	// milliseconds, so the median needs more of them than the other
	// workloads' set-ups do.
	daemonSetups = 15
)

// daemonMix is one epoch's requests: algorithm × policy × k∈3..8 in an
// order seeded by the workload seed and the epoch; every fourth request
// carries the max_cost sub-cap. The order decides which query pays for
// the pairs later ones reuse, so a run averages over several orders.
func daemonMix(seed int64, epoch int) []service.Request {
	var mix []service.Request
	for _, a := range []string{"spr", "heapsort", "quickselect", "tourtree"} {
		for _, p := range []string{"fixed", "voi", "pac"} {
			for k := 3; k <= 8; k++ {
				mix = append(mix, service.Request{K: k, Algorithm: a, Policy: p})
			}
		}
	}
	rand.New(rand.NewSource(seed*1000+int64(epoch))).Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	for i := range mix {
		if i%4 == 3 {
			mix[i].MaxCost = daemonMaxCost
		}
	}
	return mix
}

// daemon is one running service and everything it owns.
type daemon struct {
	dir     string
	data    crowdtopk.Dataset
	store   *crowdtopk.FileJudgmentStore
	alog    *crowdtopk.AuditLog
	journal *service.FileJournal
	sess    *crowdtopk.Session
	srv     *service.Server
	hs      *http.Server
	served  chan error
	tel     *crowdtopk.Telemetry
	url     string
	open    time.Duration // NewSession
}

// startDaemon boots a daemon in a fresh directory, reporting to tel
// (one bundle serves every epoch of a run). With tr set, the
// dataset, the platform, the audit sink, the judgment store and the
// policies are the traced wrappers.
func startDaemon(cfg config, idx int, tel *crowdtopk.Telemetry, tr *tracer) (d *daemon, err error) {
	d = &daemon{
		dir:    filepath.Join(cfg.buildDir, "work", fmt.Sprintf("daemon-%d-%d", os.Getpid(), idx)),
		data:   crowdtopk.SyntheticDataset(daemonItems, 0.3, catalogueSeed),
		tel:    tel,
		served: make(chan error, 1),
	}
	if err := os.RemoveAll(d.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			d.stop()
		}
	}()
	lg, err := crowdtopk.NewLogger(io.Discard, "info")
	if err != nil {
		return d, err
	}
	opts := crowdtopk.Options{
		Algorithm: crowdtopk.SPR, Policy: crowdtopk.PolicyName(policyName("fixed", tr)),
		Confidence: 0.95, Budget: 500, Scheduling: crowdtopk.Async, Seed: cfg.seed + 1,
		Telemetry: d.tel, Resilience: &crowdtopk.ResilienceOptions{},
	}
	if d.store, err = crowdtopk.OpenFileJudgmentStore(filepath.Join(d.dir, "judgments.jsonl")); err != nil {
		return d, err
	}
	opts.JudgmentStore = d.store
	var base crowdtopk.Oracle = d.data
	if tr != nil {
		tr.newEngine()
		opts.JudgmentStore = tracedStore{d.store, tr}
		if base, err = newTracedOracle(d.data, tr); err != nil {
			return d, err
		}
	}
	platform := crowdtopk.SimulatedPlatform(base, 8, cfg.seed+2)
	if tr != nil {
		platform = newTracedPlatform(platform, tr)
	}
	syncPolicy, err := crowdtopk.ParseAuditSyncPolicy("interval")
	if err != nil {
		return d, err
	}
	if d.alog, err = crowdtopk.OpenAuditLog(filepath.Join(d.dir, "audit"), crowdtopk.AuditLogOptions{Sync: syncPolicy}); err != nil {
		return d, err
	}
	if d.journal, _, err = service.OpenFileJournal(filepath.Join(d.dir, "audit", "queries.jsonl")); err != nil {
		return d, err
	}
	start := time.Now()
	if d.sess, err = crowdtopk.NewSession(crowdtopk.WrapPlatform(d.data.NumItems(), platform), opts); err != nil {
		return d, err
	}
	d.open = time.Since(start)
	d.sess.SetLogger(lg)
	d.sess.EnableAuditLog()
	var sink crowdtopk.TaskRecordSink = d.alog
	if tr != nil {
		sink = tracedSink{d.alog, tr}
	}
	d.sess.SetAuditSink(sink)
	d.srv = service.New(service.Config{
		Session: d.sess, Telemetry: d.tel, MaxInFlight: 8, MaxQueue: 64,
		AuditEnabled: true, Logger: lg, Journal: d.journal,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return d, err
	}
	d.url = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

func policyName(p string, tr *tracer) string {
	if tr != nil {
		return tracedPolicyPrefix + p
	}
	return p
}

// stop shuts the daemon down the way topkd drains on SIGTERM and removes
// its directory; it returns the audit directory's verification report
// and its size on disk.
func (d *daemon) stop() (rep *crowdtopk.AuditVerifyReport, auditBytes int64, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if d.hs != nil {
		errs = append(errs, d.hs.Shutdown(ctx))
		if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
			errs = append(errs, serr)
		}
	}
	if d.srv != nil {
		errs = append(errs, d.srv.Shutdown(ctx))
	}
	if d.sess != nil {
		errs = append(errs, d.sess.Close())
	}
	if d.store != nil {
		errs = append(errs, d.store.Close())
	}
	if d.alog != nil {
		errs = append(errs, d.alog.Close())
	}
	if d.srv != nil {
		errs = append(errs, d.srv.JournalErr())
	}
	if d.journal != nil {
		errs = append(errs, d.journal.Close())
	}
	if err = errors.Join(errs...); err == nil && d.alog != nil {
		auditDir := filepath.Join(d.dir, "audit")
		rep, err = crowdtopk.VerifyAuditLog(auditDir)
		auditBytes = dirBytes(auditDir, "queries.jsonl")
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return rep, auditBytes, err
}

// dirBytes sums the sizes of the regular files in dir, but skip.
func dirBytes(dir, skip string) int64 {
	entries, _ := os.ReadDir(dir) // an unreadable directory sizes as what was read
	total := int64(0)
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() && e.Name() != skip {
			total += info.Size()
		}
	}
	return total
}

// outcome is one client request.
type outcome struct {
	req      service.Request
	st       service.Status
	lat      float64 // POST sent → SSE done received, ms
	submit   float64 // POST round trip, ms
	lag      float64 // finished_at → SSE done received, ms
	rejected bool    // 429
	err      error   // HTTP or protocol failure
}

// driveEpoch runs nproc closed-loop clients through the mix: client c
// sends requests c, c+nproc, ... one after the other.
func driveEpoch(d *daemon, mix []service.Request, tr *tracer) []outcome {
	clients := runtime.NumCPU()
	tp := &http.Transport{MaxIdleConnsPerHost: clients}
	defer tp.CloseIdleConnections()
	hc := &http.Client{Transport: tp, Timeout: 150 * time.Second}
	out := make([]outcome, len(mix))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(mix); i += clients {
				req := mix[i]
				req.Policy = policyName(req.Policy, tr)
				out[i] = doQuery(hc, d.url, req, tr)
			}
		}(c)
	}
	wg.Wait()
	return out
}

// doQuery submits one query and follows its event stream to the done
// event.
func doQuery(hc *http.Client, url string, req service.Request, tr *tracer) (o outcome) {
	o.req = req
	var root int32
	var t0 int64
	if tr != nil {
		root = tr.begin("http.query", "")
		t0 = tr.now()
		defer tr.end(root)
	}
	start := time.Now()
	body, _ := json.Marshal(req) // a Request always marshals
	resp, err := hc.Post(url+"/queries", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	var sub service.Status
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	o.submit = ms(time.Since(start))
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		o.rejected = true
		return o
	case resp.StatusCode != http.StatusAccepted:
		o.err = fmt.Errorf("POST /queries: %s", resp.Status)
		return o
	case err != nil:
		o.err = fmt.Errorf("POST /queries: %w", err)
		return o
	}
	if tr != nil {
		t1 := tr.now()
		tr.addChild("http.submit", root, sub.ID, t0, t1)
		t0 = t1
	}
	resp, err = hc.Get(url + "/queries/" + sub.ID + "/events")
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if done && strings.HasPrefix(line, "data: ") {
			received := time.Now()
			if err := json.Unmarshal([]byte(line[len("data: "):]), &o.st); err != nil {
				o.err = fmt.Errorf("done event: %w", err)
				return o
			}
			o.lat = ms(received.Sub(start))
			o.lag = ms(received.Sub(time.Unix(0, o.st.FinishedAtUnixNano)))
			if tr != nil {
				tr.addChild("http.events", root, sub.ID, t0, tr.now())
			}
			return o
		}
	}
	o.err = fmt.Errorf("query %s: event stream ended without a done event (%v)", sub.ID, sc.Err())
	return o
}

// daemonResult folds the outcomes into the report and returns the
// finished queries.
func daemonResult(rep *report, outs []outcome) []outcome {
	var fin []outcome
	for _, o := range outs {
		rep.attempted++
		switch {
		case o.rejected:
			rep.failed++
		case o.err != nil:
			rep.failed++
			rep.note("request failed: %v", o.err)
		default:
			if err := checkFinished(o.st, o.req, daemonItems); err != nil {
				rep.failed++
				rep.gate(err)
				continue
			}
			fin = append(fin, o)
		}
	}
	return fin
}

// quiesce checks the accounting invariant, stops the daemon and checks
// its audit directory; it returns the audit bytes per record.
func quiesce(rep *report, d *daemon) (float64, error) {
	// The service retires a query's slot just after its done event, so
	// wait for the last slot to free before reading the invariant.
	var acc service.Accounting
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(d.url + "/debug/accounting")
		if err != nil {
			return 0, err
		}
		err = json.NewDecoder(resp.Body).Decode(&acc)
		resp.Body.Close()
		if err != nil {
			return 0, fmt.Errorf("/debug/accounting: %w", err)
		}
		if (acc.Running == 0 && acc.Queued == 0) || time.Now().After(deadline) {
			break
		}
	}
	rep.gate(checkAccounting(acc))
	tmc := d.sess.TMC()
	vr, auditBytes, err := d.stop()
	if err != nil {
		return 0, err
	}
	rep.gate(checkVerify(vr, tmc))
	return ratio(float64(auditBytes), float64(vr.Records)), nil
}

// daemonRun is what a sequence of epochs produced.
type daemonRun struct {
	setups  []time.Duration
	windows []window  // one per epoch: serving time only
	fin     []outcome // finished queries
	all     []outcome
	epochs  int
	data    crowdtopk.Dataset
	tel     *crowdtopk.Telemetry
	peakRSS float64
	d       *daemon // the last daemon, still running
}

// serving is the run's serving time, boots and drains excluded.
func (r *daemonRun) serving() time.Duration {
	var d time.Duration
	for _, w := range r.windows {
		d += w.cost.wall
	}
	return d
}

// runEpochs boots a fresh daemon per epoch and drives the epoch's mix
// through it, until the epochs' serving time reaches seconds (at least
// minEpochs). Each boot is one set-up sample. With keepLast the last
// daemon is left running in run.d.
func runEpochs(cfg config, rep *report, tel *crowdtopk.Telemetry, tr *tracer, seconds time.Duration, minEpochs int, keepLast bool) (*daemonRun, error) {
	run := &daemonRun{tel: tel}
	var serving time.Duration
	for e := 0; e < minEpochs || serving < seconds; e++ {
		start := time.Now()
		d, err := startDaemon(cfg, e, run.tel, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		run.setups = append(run.setups, time.Since(start))
		run.data = d.data
		rss := startRSS()
		meter := startMeter()
		outs := driveEpoch(d, daemonMix(cfg.seed, e), tr)
		c := meter.stop()
		run.peakRSS = max(run.peakRSS, rss.peak())
		rep.note("epoch %d: %d requests in %.2fs, cpu %.2fs", e, len(outs), c.wall.Seconds(), c.cpu.Seconds())
		serving += c.wall
		run.windows = append(run.windows, window{c, len(outs)})
		run.all = append(run.all, outs...)
		run.fin = append(run.fin, daemonResult(rep, outs)...)
		run.epochs++
		if keepLast && serving >= seconds && e+1 >= minEpochs {
			run.d = d
			break
		}
		if _, err := quiesce(rep, d); err != nil {
			return nil, err
		}
	}
	return run, nil
}

func runDaemon(cfg config) (*report, error) {
	rep := newReport()
	if cfg.trace {
		return rep, traceDaemon(cfg, rep)
	}
	run, err := runEpochs(cfg, rep, crowdtopk.NewTelemetry(), nil, cfg.seconds, 1, false)
	if err != nil {
		return nil, err
	}
	for len(run.setups) < daemonSetups {
		start := time.Now()
		d, err := startDaemon(cfg, len(run.setups), run.tel, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		run.setups = append(run.setups, time.Since(start))
		if _, _, err := d.stop(); err != nil {
			return nil, err
		}
	}
	s := e2eSample{setups: run.setups, windows: run.windows, peakRSS: run.peakRSS}
	infimum := map[int]float64{}
	for _, o := range run.fin {
		k := o.req.K
		if _, ok := infimum[k]; !ok {
			infimum[k] = topk.InfimumCost(run.data, k, topk.InfimumParams{Alpha: 0.05, B: 500, I: 30, Eta: 30})
		}
		s.lat = append(s.lat, o.lat)
		s.tmc = append(s.tmc, float64(o.st.TMC))
		s.rounds = append(s.rounds, float64(o.st.Rounds))
		s.infimum += infimum[k]
		s.ndcg = append(s.ndcg, crowdtopk.Evaluate(run.data, o.st.TopK).NDCG)
	}
	if len(s.lat) == 0 {
		return nil, errors.New("no query finished")
	}
	rep.endToEnd(s)
	rep.note("%d epochs of %d requests", run.epochs, len(run.all)/run.epochs)
	return rep, nil
}

// traceDaemon serves epochs untraced for half the time, then the same
// epochs traced, stopping the last traced daemon only after the traced
// phase is measured.
func traceDaemon(cfg config, rep *report) error {
	u, err := beginUntraced()
	if err != nil {
		return err
	}
	// The untraced half's requests are not counted as attempted, but its
	// gates hold all the same.
	urep := newReport()
	untraced, err := runEpochs(cfg, urep, crowdtopk.NewTelemetry(), nil, cfg.seconds/2, 1, false)
	if err != nil {
		u.end(1)
		return err
	}
	u.end(len(untraced.fin))
	rep.gateErrs = append(rep.gateErrs, urep.gateErrs...)
	// Per query, both halves count serving time only, not the boots and
	// drains between epochs.
	u.perQuery = untraced.serving() / time.Duration(max(1, len(untraced.fin)))

	tr := newTracer()
	activeTracer.Store(tr)
	tel := crowdtopk.NewTelemetry()
	ph := beginTraced(tr, tel)
	run, err := runEpochs(cfg, rep, tel, tr, 0, untraced.epochs, true)
	if err != nil {
		return err
	}
	var submit, lag []float64
	rejected := 0
	for _, o := range run.all {
		if o.rejected {
			rejected++
		}
		if o.err == nil && !o.rejected {
			submit = append(submit, o.submit)
		}
	}
	for _, o := range run.fin {
		lag = append(lag, o.lag)
	}
	m := rep.metrics
	m["service.submit_ms_p50"] = quantile(submit, 0.5)
	m["service.done_lag_ms_p50"] = quantile(lag, 0.5)
	m["service.rejected_429"] = float64(rejected)
	m["session.open_ms"] = ms(run.d.open)
	if err := ph.finish(cfg, rep, len(run.fin), u, run.data); err != nil {
		run.d.stop()
		return err
	}
	m["trace.overhead"] = ratio(float64(run.serving())/float64(len(run.fin)), float64(u.perQuery))
	perRecord, err := quiesce(rep, run.d)
	m["auditlog.bytes_per_record"] = perRecord
	return err
}
