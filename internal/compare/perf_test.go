package compare

import (
	"testing"

	"crowdtopk/internal/crowd"
)

// TestCompareColdStartCappedLatency pins the cold-start accounting fix:
// when a global spending cap truncates the initial draw, latency must be
// counted from the samples actually granted, not from the ceil(I/Step)
// rounds a full cold start would have taken — and the re-entered
// cold-start branch must not re-Tick rounds for a draw that granted
// nothing.
func TestCompareColdStartCappedLatency(t *testing.T) {
	r := newRunner(0, 0.3, Params{B: 1000, I: 30, Step: 30}, 11)
	r.Engine().SetSpendingCap(10)
	if got := r.Compare(0, 1); got != Tie {
		t.Fatalf("Compare under exhausted cap = %v, want Tie", got)
	}
	if w := r.Workload(0, 1); w != 10 {
		t.Fatalf("workload = %d, want the 10 granted samples", w)
	}
	// 10 granted samples fit one Step-30 batch: exactly one round. The
	// old accounting charged one full cold-start round per loop entry and
	// reported 2.
	if rounds := r.Engine().Rounds(); rounds != 1 {
		t.Errorf("rounds = %d, want 1", rounds)
	}

	// A cap that bites mid-comparison: 30 cold samples (1 round), then a
	// truncated 20-sample step batch (1 round), then a zero-grant draw
	// that must not tick.
	r2 := newRunner(0, 0.3, Params{B: 1000, I: 30, Step: 30}, 12)
	r2.Engine().SetSpendingCap(50)
	if got := r2.Compare(0, 1); got != Tie {
		t.Fatalf("Compare under mid-run cap = %v, want Tie", got)
	}
	if w := r2.Workload(0, 1); w != 50 {
		t.Fatalf("workload = %d, want 50", w)
	}
	if rounds := r2.Engine().Rounds(); rounds != 2 {
		t.Errorf("rounds = %d, want 2", rounds)
	}
}

// TestCompareColdStartPartialGrantRoundsFromGranted covers the granted-
// based rounds formula itself: with Step = 7 and a cap of 25, the granted
// cold-start samples occupy ceil(25/7) = 4 rounds, where the old
// need-based accounting charged ceil(30/7) = 5.
func TestCompareColdStartPartialGrantRoundsFromGranted(t *testing.T) {
	r := newRunner(0, 0.3, Params{B: 1000, I: 30, Step: 7}, 13)
	r.Engine().SetSpendingCap(25)
	if got := r.Compare(0, 1); got != Tie {
		t.Fatalf("Compare = %v, want Tie", got)
	}
	if w := r.Workload(0, 1); w != 25 {
		t.Fatalf("workload = %d, want 25", w)
	}
	if rounds := r.Engine().Rounds(); rounds != 4 {
		t.Errorf("rounds = %d, want ceil(25/7) = 4", rounds)
	}
}

// warmView returns a decided-looking bag view that exercises every branch
// of the tests without touching an engine.
func warmView() crowd.BagView {
	return crowd.BagView{N: 60, Mean: 0.4, SD: 0.2, BinN: 58, BinMean: 0.8}
}

// TestPolicyTestsAllocationFree asserts the stopping rules allocate
// nothing once their critical-value / half-width caches are warm — they
// run millions of times inside SPR's inner loops.
func TestPolicyTestsAllocationFree(t *testing.T) {
	v := warmView()
	policies := map[string]Tester{
		"student":        NewStudent(0.05),
		"stein":          NewStein(0.05),
		"hoeffding":      NewHoeffding(0.05),
		"hoeffding-pref": NewHoeffdingPref(0.05),
	}
	for name, p := range policies {
		p.Test(v) // warm the caches
		if allocs := testing.AllocsPerRun(100, func() { p.Test(v) }); allocs != 0 {
			t.Errorf("%s.Test allocates %.1f objects/op on a warm cache, want 0", name, allocs)
		}
	}
}

// TestConcludedAllocationFree asserts the memo lookup allocates nothing,
// concluded or not.
func TestConcludedAllocationFree(t *testing.T) {
	r := newRunner(0.6, 0.05, Params{B: 1000, I: 30, Step: 30}, 21)
	if got := r.Compare(0, 1); got != FirstWins {
		t.Fatalf("Compare = %v, want FirstWins", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Concluded(0, 1) }); allocs != 0 {
		t.Errorf("Concluded (hit) allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Concluded(0, 1) }); allocs != 0 {
		t.Errorf("Concluded (flipped hit) allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Concluded(1, 0) }); allocs != 0 {
		t.Errorf("Concluded (miss orientation) allocates %.1f objects/op, want 0", allocs)
	}
}

// undecided is a Tester that never reaches a verdict, so every Advance on
// its pair buys a batch.
type undecided struct{}

func (undecided) Name() string                 { return "undecided" }
func (undecided) MinSamples() int              { return 2 }
func (undecided) Test(v crowd.BagView) Outcome { return Tie }

// TestAdvanceAllocations pins the wave step's allocation count with
// telemetry off: one Advance on an undecided pair tests, buys one batch
// and tests again for exactly one allocation — the engine's published
// view snapshot. The step's purchase closure must stay on the stack.
func TestAdvanceAllocations(t *testing.T) {
	r := NewRunner(pairEngine(0, 0.3, 31), undecided{}, Params{B: 0, I: 30, Step: 30})
	r.Advance(0, 1) // cold start: creates the pair and its stream
	if allocs := testing.AllocsPerRun(100, func() {
		if _, done := r.Advance(0, 1); done {
			t.Fatal("Advance finished an undecided pair")
		}
	}); allocs > 1 {
		t.Errorf("Advance allocates %.1f objects/op on an undecided pair, want <= 1", allocs)
	}
}
