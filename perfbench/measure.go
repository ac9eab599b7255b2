package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processMeter brackets a measured phase with the process-wide meters the
// end-to-end metrics are made of: wall time, CPU time (user + system, all
// goroutines), bytes allocated and garbage collections. It reads the
// runtime's metrics without stopping the world, so it can close a window
// every few milliseconds.
type processMeter struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
	gcs   uint64
}

// runtimeSamples are the cumulative allocation and GC counters.
func runtimeSamples() (alloc, gcs uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func startMeter() processMeter {
	alloc, gcs := runtimeSamples()
	return processMeter{wall: time.Now(), cpu: cpuTime(), alloc: alloc, gcs: gcs}
}

// phaseCost is what a measured phase consumed.
type phaseCost struct {
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	gcs   uint64
}

func (m processMeter) stop() phaseCost {
	alloc, gcs := runtimeSamples()
	return phaseCost{
		wall:  time.Since(m.wall),
		cpu:   cpuTime() - m.cpu,
		alloc: alloc - m.alloc,
		gcs:   gcs - m.gcs,
	}
}

// window is one stretch of a measured phase and the queries it answered.
type window struct {
	cost    phaseCost
	queries int
}

// windowMeter cuts a measured phase into windows of a fixed number of
// queries. The throughput, CPU and allocation metrics are medians over
// windows: a burst of host contention (this benchmark runs on shared
// virtual machines whose steal time swings between 0 and 20%) or an
// unlucky garbage collection then slows a few windows, not the median.
type windowMeter struct {
	per     int
	cur     processMeter
	q0      int
	windows []window
}

func newWindowMeter(per int) *windowMeter {
	return &windowMeter{per: per, cur: startMeter()}
}

// after reports that q queries have finished so far; it closes the
// current window once it holds enough of them.
func (w *windowMeter) after(q int) {
	if q-w.q0 >= w.per {
		w.close(q)
	}
}

// close ends the current window at q queries and starts the next.
func (w *windowMeter) close(q int) {
	if q > w.q0 {
		w.windows = append(w.windows, window{w.cur.stop(), q - w.q0})
	}
	w.cur, w.q0 = startMeter(), q
}

// cpuTime is the CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler samples the resident set every 10 ms while a phase runs.
// The peak it reports is the 99th percentile of the samples: the
// kernel's high-water mark is a single sample whose height depends on
// where garbage collections happened to fall.
type rssSampler struct {
	stop chan struct{}
	done chan []float64
}

func startRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var mb []float64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			if v, ok := rssMB(); ok {
				mb = append(mb, v)
			}
			select {
			case <-r.stop:
				r.done <- mb
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// peak stops the sampler and returns the peak in MiB.
func (r *rssSampler) peak() float64 {
	close(r.stop)
	return quantile(<-r.done, 0.99)
}

var pageMB = float64(os.Getpagesize()) / (1 << 20)

// rssMB reads the current resident set size.
func rssMB() (float64, bool) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	return pages * pageMB, err == nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median of xs (0 for an empty sample).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// e2eSample is what the end-to-end metrics of an untraced run are
// computed from.
type e2eSample struct {
	setups  []time.Duration // repeated set-ups; the median is reported
	windows []window        // the measured phase
	lat     []float64       // per-query latency, ms
	tmc     []float64       // crowd cost of the fixed crowd-cost sample
	rounds  []float64
	infimum float64 // Σ Lemma 1 infimum over the crowd-cost sample
	ndcg    []float64
	peakRSS float64 // MiB, see rssSampler
}

func (r *report) endToEnd(s e2eSample) {
	setups := make([]float64, len(s.setups))
	for i, d := range s.setups {
		setups[i] = d.Seconds()
	}
	var rate, cpu, alloc []float64
	var wall time.Duration
	for _, w := range s.windows {
		q := float64(w.queries)
		rate = append(rate, q/w.cost.wall.Seconds())
		cpu = append(cpu, ms(w.cost.cpu)/q)
		alloc = append(alloc, float64(w.cost.alloc)/1024/q)
		wall += w.cost.wall
	}
	sumTMC := 0.0
	for _, t := range s.tmc {
		sumTMC += t
	}
	m := r.metrics
	m["setup_s"] = median(setups)
	m["queries_per_s"] = median(rate)
	m["latency_p50_ms"] = quantile(s.lat, 0.5)
	m["latency_p90_ms"] = quantile(s.lat, 0.9)
	m["cpu_ms_per_query"] = median(cpu)
	m["alloc_kb_per_query"] = median(alloc)
	m["peak_rss_mb"] = s.peakRSS
	m["tmc_per_query"] = mean(s.tmc)
	m["rounds_per_query"] = mean(s.rounds)
	m["tmc_over_infimum"] = ratio(sumTMC, s.infimum)
	m["ndcg"] = mean(s.ndcg)
	r.note("setups %v; %d queries in %.2fs over %d windows (p90 has %d samples beyond it); crowd-cost sample %d queries",
		setups, len(s.lat), wall.Seconds(), len(s.windows), len(s.lat)-int(0.9*float64(len(s.lat)))-1, len(s.tmc))
}
