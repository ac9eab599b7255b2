package crowdtopk

import (
	"reflect"
	"testing"

	"crowdtopk/internal/topk"
)

// TestPolicyGridAgainstInfimum races every comparison policy × algorithm
// on two datasets and scores each cell the paper's way: TMC against the
// Lemma 1 infimum, at measured NDCG. Each cell runs twice with the same
// seed and must land the same TMC and top-k (an adaptive schedule must
// not leak nondeterminism), and at least one adaptive cell (voi or pac)
// must beat fixed-step Student on TMC/infimum at equal-or-better NDCG.
func TestPolicyGridAgainstInfimum(t *testing.T) {
	const (
		k          = 8
		budget     = 300
		confidence = 0.95
	)
	datasets := []struct {
		name string
		d    Dataset
	}{
		{"easy-n40", SyntheticDataset(40, 0.15, 221)},
		{"noisy-n40", SyntheticDataset(40, 0.35, 222)},
	}
	policies := []PolicyName{FixedPolicy, VoIPolicy, PACPolicy}
	infP := topk.InfimumParams{Alpha: 1 - confidence, B: budget, I: 30, Eta: 30}

	var wins []string
	for _, ds := range datasets {
		inf := topk.InfimumCost(ds.d, k, infP)
		for _, alg := range []Algorithm{SPR, HeapSort} {
			var fixedRatio, fixedNDCG float64
			for _, pol := range policies {
				cell := ds.name + "/" + string(alg) + "/" + string(pol)
				var reps [2]Result
				for r := range reps {
					res, err := Query(ds.d, Options{
						Algorithm: alg, K: k, Policy: pol, Confidence: confidence,
						Budget: budget, Seed: 223, Parallelism: 1,
					})
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					reps[r] = res
				}
				if reps[1].TMC != reps[0].TMC || !reflect.DeepEqual(reps[1].TopK, reps[0].TopK) {
					t.Errorf("%s: same-seed reps diverged: tmc %d top-k %v vs tmc %d top-k %v",
						cell, reps[0].TMC, reps[0].TopK, reps[1].TMC, reps[1].TopK)
				}
				ratio := float64(reps[0].TMC) / inf
				ndcg := Evaluate(ds.d, reps[0].TopK).NDCG
				t.Logf("%-24s tmc %6d  infimum %7.1f  ratio %5.2f  ndcg %.4f", cell, reps[0].TMC, inf, ratio, ndcg)
				if pol == FixedPolicy {
					fixedRatio, fixedNDCG = ratio, ndcg
				} else if ratio < fixedRatio && ndcg >= fixedNDCG {
					wins = append(wins, cell)
				}
			}
		}
	}
	t.Logf("adaptive wins over fixed: %v", wins)
	if len(wins) == 0 {
		t.Error("no adaptive policy beat fixed-step Student on TMC/infimum at equal-or-better NDCG in any cell")
	}
}
