package main

import (
	"fmt"
	"slices"

	"crowdtopk"
	"crowdtopk/internal/service"
)

// The correctness gates are pure functions of what a run observed, so
// the self-test (gates_test.go) can feed each one a corrupted input and
// watch it fire.

// answer is the part of a query result a determinism gate compares.
type answer struct {
	TopK        []int
	TMC, Rounds int64
}

func answerOf(r crowdtopk.Result) answer { return answer{r.TopK, r.TMC, r.Rounds} }

// checkTopK: a top-k answer holds k distinct items of the catalogue.
func checkTopK(topK []int, k, n int) error {
	if len(topK) != k {
		return fmt.Errorf("top-k has %d items, want %d", len(topK), k)
	}
	seen := make(map[int]bool, k)
	for _, o := range topK {
		if o < 0 || o >= n {
			return fmt.Errorf("top-k item %d outside [0,%d)", o, n)
		}
		if seen[o] {
			return fmt.Errorf("top-k repeats item %d", o)
		}
		seen[o] = true
	}
	return nil
}

// checkSameAnswer: a rerun (another parallelism, the traced run, a
// replayed session) bought the same microtasks and returned the same
// top-k.
func checkSameAnswer(what string, got, want answer) error {
	if got.TMC != want.TMC || got.Rounds != want.Rounds || !slices.Equal(got.TopK, want.TopK) {
		return fmt.Errorf("%s: got top-k %v (tmc %d, rounds %d), want %v (tmc %d, rounds %d)",
			what, got.TopK, got.TMC, got.Rounds, want.TopK, want.TMC, want.Rounds)
	}
	return nil
}

// checkNoPurchase: the session's timed phase answered from concluded
// evidence only.
func checkNoPurchase(before, after int64) error {
	if after != before {
		return fmt.Errorf("timed phase bought %d microtasks, want 0", after-before)
	}
	return nil
}

// checkAccounting: at quiescence the daemon's cost invariant holds,
// Σ query TMC == session TMC == audit-log length.
func checkAccounting(a service.Accounting) error {
	if !a.Balanced || a.SessionTMC != a.SumQueryTMC || int64(a.AuditLen) != a.SessionTMC || a.Running != 0 || a.Queued != 0 {
		return fmt.Errorf("accounting unbalanced at quiescence: %+v", a)
	}
	return nil
}

// checkVerify: the audit directory verifies after shutdown and holds
// every microtask the session bought.
func checkVerify(rep *crowdtopk.AuditVerifyReport, tmc int64) error {
	if !rep.OK {
		return fmt.Errorf("audit log fails verification at %s", rep.FirstBad)
	}
	if int64(rep.Records) != tmc {
		return fmt.Errorf("audit log holds %d records, session bought %d", rep.Records, tmc)
	}
	return nil
}

// checkFinished: a finished daemon query has k items, or is the budget
// partial its max_cost asked for.
func checkFinished(st service.Status, req service.Request, n int) error {
	if st.State != "done" {
		return fmt.Errorf("query %s ended %q", st.ID, st.State)
	}
	budgetPartial := st.Error != "" && st.BudgetExhausted && req.MaxCost > 0
	if st.Error != "" && !budgetPartial {
		return fmt.Errorf("query %s failed: %s", st.ID, st.Error)
	}
	if req.MaxCost > 0 && st.TMC > req.MaxCost {
		return fmt.Errorf("query %s spent %d over its max_cost %d", st.ID, st.TMC, req.MaxCost)
	}
	k := req.K
	if budgetPartial && len(st.TopK) < k {
		k = len(st.TopK)
	}
	if err := checkTopK(st.TopK, k, n); err != nil {
		return fmt.Errorf("query %s: %w", st.ID, err)
	}
	return nil
}
