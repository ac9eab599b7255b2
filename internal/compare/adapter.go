package compare

import (
	"math"

	"crowdtopk/internal/crowd"
)

// FixedStep adapts a plain verdict Tester to the full Policy interface
// with the paper's fixed sampling schedule: buy the initial workload I in
// one cold-start purchase, then Step samples per batch until the tester
// concludes or the per-pair budget runs dry (§5.5's batch size η). It is
// the exact schedule the Runner hard-wired before the policy layer
// existed; wrapping any of the five legacy estimators in it reproduces
// their pre-refactor purchase sequence sample for sample.
type FixedStep struct {
	T    Tester
	I    int // cold-start workload (Params.I)
	Step int // batch size η (Params.Step)
}

// NewFixedStep wraps t in the fixed I/Step schedule.
func NewFixedStep(t Tester, i, step int) *FixedStep {
	if t == nil {
		panic("compare: NewFixedStep requires a non-nil tester")
	}
	if i < 2 || step < 1 {
		panic("compare: NewFixedStep requires I >= 2 and Step >= 1")
	}
	return &FixedStep{T: t, I: i, Step: step}
}

// Name implements Policy: the schedule's name, not the wrapped tester's.
func (f *FixedStep) Name() string { return "fixed" }

// MinSamples implements Tester.
func (f *FixedStep) MinSamples() int { return f.T.MinSamples() }

// Test implements Tester by forwarding to the wrapped estimator.
func (f *FixedStep) Test(v crowd.BagView) Outcome { return f.T.Test(v) }

// Bootstrap implements Policy: whatever is missing of the initial I.
func (f *FixedStep) Bootstrap(v crowd.BagView) int { return f.I - v.N }

// Next implements Policy: one batch of Step, clamped to the remaining
// budget. An empty budget declines the purchase, which the Runner turns
// into the budget-exhausted tie the fixed schedule always concluded with.
func (f *FixedStep) Next(v crowd.BagView, left int) int {
	if left < f.Step {
		return left
	}
	return f.Step
}

// HalfWidth implements HalfWidther by forwarding to the wrapped tester
// when it can report one; infinite otherwise (the Runner skips infinite
// widths when recording confidence trajectories).
func (f *FixedStep) HalfWidth(v crowd.BagView) float64 {
	if hw, ok := f.T.(HalfWidther); ok {
		return hw.HalfWidth(v)
	}
	return math.Inf(1)
}
