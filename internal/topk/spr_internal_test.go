package topk

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"crowdtopk/internal/compare"
	"crowdtopk/internal/crowd"
	"crowdtopk/internal/dataset"
)

func TestBubbleMedianCost(t *testing.T) {
	// Appendix C: C(A,m) = (3m² + m − 2)/8 comparisons for bubble sort.
	for _, m := range []int{1, 3, 5, 7, 9, 11, 101} {
		want := (3*m*m + m - 2) / 8
		if got := bubbleMedianCost(m); got != want {
			t.Errorf("C(bubble,%d) = %d, want %d", m, got, want)
		}
	}
	// The formula must upper-bound the sum Σ_{i=1..⌈m/2⌉}(m−i) it was
	// derived from (Appendix C).
	for m := 1; m <= 201; m += 2 {
		sum := 0
		for i := 1; i <= (m+1)/2; i++ {
			sum += m - i
		}
		if bound := bubbleMedianCost(m); sum > bound {
			t.Errorf("m=%d: actual bubble comparisons %d exceed bound %d", m, sum, bound)
		}
	}
}

func TestPlanReferenceRespectsBudget(t *testing.T) {
	for _, n := range []int{25, 100, 537, 1225} {
		for _, k := range []int{1, 5, 10, 20} {
			if k >= n {
				continue
			}
			plan := planReference(n, k, 1.5)
			if plan.m < 1 || plan.m%2 != 1 {
				t.Errorf("n=%d k=%d: m=%d not odd positive", n, k, plan.m)
			}
			if plan.x < 1 || plan.x > n {
				t.Errorf("n=%d k=%d: x=%d out of range", n, k, plan.x)
			}
			if cost := plan.m*(plan.x-1) + bubbleMedianCost(plan.m); cost > n {
				t.Errorf("n=%d k=%d: sampling cost %d exceeds budget %d", n, k, cost, n)
			}
			if plan.prob < 0 || plan.prob > 1 {
				t.Errorf("n=%d k=%d: probability %v outside [0,1]", n, k, plan.prob)
			}
		}
	}
}

func TestSweetSpotProbSaneShape(t *testing.T) {
	// With more sampling procedures the median concentrates: probability at
	// (x*, m) should not collapse, and a decent plan must beat the wild
	// guess ck/N for realistic sizes.
	n, k, c := 1225, 10, 1.5
	plan := planReference(n, k, c)
	wild := c * float64(k) / float64(n)
	if plan.prob <= wild {
		t.Errorf("planned probability %v not above wild guess %v", plan.prob, wild)
	}
	if plan.prob < 0.3 {
		t.Errorf("planned probability %v suspiciously low", plan.prob)
	}
}

func TestSweetSpotProbMatchesMonteCarlo(t *testing.T) {
	// Validate the closed-form §5.1 probability against simulation on the
	// rank scale (sampling is rank-uniform, so no crowd is needed).
	n, k, c := 200, 10, 1.5
	x, m := 40, 5
	want := sweetSpotProb(n, k, x, m, c)

	rng := newTestRand(4242)
	const runs = 20000
	hits := 0
	ck := int(math.Floor(c * float64(k)))
	for run := 0; run < runs; run++ {
		medianOf := make([]int, m)
		for s := 0; s < m; s++ {
			best := n // ranks are 0-based, lower is better
			for t2 := 0; t2 < x; t2++ {
				if r := rng.Intn(n); r < best {
					best = r
				}
			}
			medianOf[s] = best
		}
		sort.Ints(medianOf)
		med := medianOf[m/2]
		// Sweet spot: o_k* ⪰ r ⪰ o_ck*, i.e. rank in [k-1, ck-1].
		if med >= k-1 && med <= ck-1 {
			hits++
		}
	}
	got := float64(hits) / runs
	if math.Abs(got-want) > 0.02 {
		t.Errorf("closed form %v vs Monte Carlo %v", want, got)
	}
}

func TestSelectReferenceLandsNearSweetSpot(t *testing.T) {
	// Over repetitions, the selected reference must be far from a uniform
	// draw: its average rank should sit near the sweet spot, well above k
	// times worse than random.
	const n, k = 200, 10
	sumRank := 0
	const runs = 20
	for rep := 0; rep < runs; rep++ {
		r, src := noisyRunner(n, 0.2, int64(900+rep))
		ref := NewSPR().selectReference(r, allItems(n), k)
		sumRank += src.TrueRank(ref)
	}
	avg := float64(sumRank) / runs
	if avg > float64(n)/4 {
		t.Errorf("average reference rank %v too far from sweet spot (uniform would be %v)", avg, float64(n)/2)
	}
}

// watchedPartition observes a partitionPlan as drive runs it: which
// reference each race was issued against, which items a verdict made
// losers, and each pair's workload at the moment its race went stale.
type watchedPartition struct {
	*partitionPlan
	async  bool
	open   map[int64]bool // races issued, neither decided nor detached
	refs   []int          // refs[e]: the reference after e upgrades
	lostAt map[int]int    // loser item -> epoch of the race it lost
	frozen map[[2]int]int // stale (item, ref) pair -> workload when stale
}

func watchPartition(p *partitionPlan, async bool) *watchedPartition {
	return &watchedPartition{partitionPlan: p, async: async, open: map[int64]bool{},
		refs: []int{p.ref}, lostAt: map[int]int{}, frozen: map[[2]int]int{}}
}

func (w *watchedPartition) ready() []match {
	ms := w.partitionPlan.ready()
	for _, m := range ms {
		w.open[m.id] = true
	}
	return ms
}

func (w *watchedPartition) freeze(rc race) {
	pair := [2]int{rc.item, w.refs[rc.epoch]}
	w.frozen[pair] = w.r.Workload(pair[0], pair[1])
}

func (w *watchedPartition) decide(id int64, o compare.Outcome) {
	rc := w.races[id]
	delete(w.open, id)
	epoch := w.changes
	w.partitionPlan.decide(id, o)
	if _, lost := w.lostAt[rc.item]; !lost && o == compare.SecondWins {
		w.lostAt[rc.item] = rc.epoch
	}
	if w.changes == epoch {
		return
	}
	w.refs = append(w.refs, w.ref)
	if !w.async {
		// A wave's purchases all finish before its barrier, so every race
		// the upgrade made stale has bought its last batch already.
		for id := range w.open {
			w.freeze(w.races[id])
		}
	}
}

func (w *watchedPartition) stale(id int64) bool {
	if !w.partitionPlan.stale(id) {
		return false
	}
	delete(w.open, id)
	w.freeze(w.races[id]) // detached: its chain is never submitted again
	return true
}

// TestPartitionInvariants drives Algorithm 4 in deterministic mode at
// Parallelism 1 and 8 and in async mode over fixtures whose reference
// gets upgraded (at seed 34, with races concluding SecondWins in the
// upgrade's own wave). In every mode the result is a partition consistent
// with the memoized verdicts, no loser races a later reference, and no
// stale race buys after the barrier (or completion) that made it stale;
// the deterministic runs agree in result and audit log.
func TestPartitionInvariants(t *testing.T) {
	for _, seed := range []int64{31, 34} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { testPartitionInvariants(t, seed) })
	}
}

func testPartitionInvariants(t *testing.T, seed int64) {
	const n, k = 50, 8
	modes := []struct {
		name        string
		parallelism int
		async       bool
	}{
		{"deterministic/p1", 1, false},
		{"deterministic/p8", 8, false},
		{"async/p8", 8, true},
	}
	var detRes []partitionResult
	var detLogs [][]crowd.Record
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			src := dataset.NewSynthetic(n, 0.25, seed)
			eng := crowd.NewEngine(src, rand.New(rand.NewSource(seed+2000)))
			eng.EnableLog()
			r := compare.NewRunner(eng, compare.NewStudent(0.05), compare.Params{
				B: 300, I: 30, Step: 30, Parallelism: mode.parallelism, Async: mode.async})
			ref := dataset.Order(src)[12] // a known mid reference
			w := watchPartition(newPartitionPlan(r, allItems(n), k, ref, 2), mode.async)
			drive(r, w)
			res := w.result()

			// The three groups plus the final reference partition the item set.
			seen := map[int]int{}
			for _, group := range [][]int{res.winners, res.ties, res.losers} {
				for _, o := range group {
					seen[o]++
				}
			}
			if !res.refInWinners {
				seen[res.ref]++
			}
			if len(seen) != n {
				t.Fatalf("partition covers %d items, want %d", len(seen), n)
			}
			for o, c := range seen {
				if c != 1 {
					t.Fatalf("item %d appears %d times in the partition", o, c)
				}
			}

			// Confirmed winners beat the final reference per the memo;
			// confirmed losers lose to it.
			for _, o := range res.winners {
				if res.refInWinners && o == res.ref {
					continue
				}
				if out, ok := r.Concluded(o, res.ref); ok && out != compare.FirstWins {
					t.Errorf("winner %d concluded %v against reference", o, out)
				}
			}
			for _, o := range res.losers {
				if out, ok := r.Concluded(o, res.ref); ok && out != compare.SecondWins {
					t.Errorf("loser %d concluded %v against reference", o, out)
				}
			}
			if res.refChanges < 1 || res.refChanges > 2 {
				t.Errorf("refChanges = %d, want an upgrade within the cap of 2", res.refChanges)
			}

			// An item that lost a race — fresh or stale — stays a loser
			// (Lemma 4): it never races a later reference.
			for o, e := range w.lostAt {
				for _, later := range w.refs[e+1:] {
					if got := r.Workload(o, later); got != 0 {
						t.Errorf("loser %d (lost at epoch %d) bought %d samples against later reference %d", o, e, got, later)
					}
				}
			}
			// A stale race buys nothing after it went stale.
			for pair, at := range w.frozen {
				if got := r.Workload(pair[0], pair[1]); got != at {
					t.Errorf("stale race %v: workload %d after going stale at %d", pair, got, at)
				}
			}
			if len(w.frozen) == 0 {
				t.Errorf("no race went stale; the fixture does not exercise staleness")
			}

			if !mode.async {
				detRes = append(detRes, res)
				detLogs = append(detLogs, eng.Log())
			}
		})
	}
	if len(detRes) == 2 {
		if !reflect.DeepEqual(detRes[0], detRes[1]) {
			t.Errorf("deterministic partition diverged across Parallelism\n p=1: %+v\n p=8: %+v", detRes[0], detRes[1])
		}
		if !reflect.DeepEqual(detLogs[0], detLogs[1]) {
			t.Errorf("deterministic audit logs diverged across Parallelism (%d vs %d records, first difference at %d)",
				len(detLogs[0]), len(detLogs[1]), firstDiff(detLogs[0], detLogs[1]))
		}
	}
}

func TestPartitionNoRefChangeWhenDisabled(t *testing.T) {
	const n, k = 40, 5
	r, src := noisyRunner(n, 0.25, 32)
	ref := dataset.Order(src)[8]
	res := partition(r, allItems(n), k, ref, 0)
	if res.refChanges != 0 {
		t.Errorf("refChanges = %d with maxRefChanges=0", res.refChanges)
	}
	if res.ref != ref {
		t.Errorf("reference changed from %d to %d despite cap 0", ref, res.ref)
	}
}

func TestPartitionPerfectReferencePrunesEverything(t *testing.T) {
	// Noiseless data with the true o_k* as reference: exactly the k-1
	// better items win, everyone else loses, no ties.
	const n, k = 30, 6
	r, src := exactRunner(n, 33)
	order := dataset.Order(src)
	res := partition(r, allItems(n), k, order[k-1], 0)
	if len(res.winners) != k-1+1 || !res.refInWinners {
		// k-1 strict winners plus the reference added back (line 13).
		t.Fatalf("winners = %v (refInWinners=%v), want %d strict winners + ref",
			res.winners, res.refInWinners, k-1)
	}
	if len(res.ties) != 0 {
		t.Errorf("ties = %v, want none on noiseless data", res.ties)
	}
	if len(res.losers) != n-k {
		t.Errorf("losers = %d, want %d", len(res.losers), n-k)
	}
}

func TestAdjacentSortExact(t *testing.T) {
	r, src := exactRunner(25, 34)
	order := dataset.Order(src)
	// Shuffle, sort by crowd, expect the exact order.
	items := append([]int(nil), order...)
	rng := newTestRand(35)
	rng.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
	got := sortByCrowd(r, items)
	for i := range got {
		if got[i] != order[i] {
			t.Fatalf("sorted[%d] = %d, want %d", i, got[i], order[i])
		}
	}
}

func TestAdjacentSortAlmostSortedIsCheap(t *testing.T) {
	// Sorting an already sorted sequence must cost at most one comparison
	// per adjacent pair (near-linear best case, §5.3).
	r, src := exactRunner(30, 36)
	order := dataset.Order(src)
	tmc0 := r.Engine().TMC()
	sortByCrowd(r, order)
	perPair := float64(r.Engine().TMC()-tmc0) / float64(len(order)-1)
	if perPair > float64(r.Params().I)+1 {
		t.Errorf("already-sorted input cost %.1f tasks/pair, want ≈ I", perPair)
	}
}

func TestMaxItemAndMaxItemsExact(t *testing.T) {
	r, src := exactRunner(20, 37)
	order := dataset.Order(src)
	if got := maxItem(r, order); got != order[0] {
		t.Errorf("maxItem = %d, want %d", got, order[0])
	}
	// Multi-tournament variant agrees, including duplicate samples.
	winners := maxItems(r, [][]int{order, order[5:], {order[3]}})
	if winners[0] != order[0] || winners[1] != order[5] || winners[2] != order[3] {
		t.Errorf("maxItems = %v", winners)
	}
}

func TestCompareAllDedupesAndOrients(t *testing.T) {
	r, _ := exactRunner(10, 38)
	pairs := [][2]int{{0, 1}, {1, 0}, {0, 1}, {2, 2}}
	outs := compareAll(r, pairs)
	if outs[0] != outs[1].Flip() || outs[0] != outs[2] {
		t.Errorf("duplicate orientations disagree: %v", outs)
	}
	if outs[3] != compare.Tie {
		t.Errorf("identical pair outcome = %v, want Tie", outs[3])
	}
	// Dedup means the pair's workload is that of a single comparison.
	if w := r.Workload(0, 1); w > r.Params().B {
		t.Errorf("deduped pair workload %d exceeds a single budget", w)
	}
}

func TestSweetSpotProbProperty(t *testing.T) {
	f := func(ni, ki, xi, mi uint8) bool {
		n := int(ni)%500 + 20
		k := int(ki)%10 + 1
		if 2*k >= n {
			return true
		}
		x := int(xi)%n + 1
		m := 2*(int(mi)%10) + 1
		p := sweetSpotProb(n, k, x, m, 1.5)
		return p >= -1e-9 && p <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
