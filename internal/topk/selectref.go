package topk

import (
	"fmt"
	"math"
	"sort"

	"crowdtopk/internal/compare"
)

// refPlan is a solution of the paper's Problem (2): take m independent
// sampling procedures of x items each, and use the median of their maxima
// as the reference.
type refPlan struct {
	x, m int
	// prob is Pr{o_k* ⪰ r ⪰ o_ck* | x, m}, the probability the median of
	// maxima lands in the sweet spot.
	prob float64
}

// bubbleMedianCost is C(A, m) for bubble sort (Appendix C): the worst-case
// number of comparisons to surface the median of m numbers,
// (3m² + m − 2)/8. The paper's Problem (2) budget uses this bound.
func bubbleMedianCost(m int) int {
	return (3*m*m + m - 2) / 8
}

// MedianCostBound returns the Appendix C / Table 10 worst-case comparison
// bound for surfacing the median of m numbers with the named algorithm:
// "bubble" and "selection" share (3m²+m−2)/8, "merge" is 3m·log₂m, "heap"
// is m + 2m·log₂(m/2), and "quick" is m(m−1)/2. m must be positive.
func MedianCostBound(algorithm string, m int) float64 {
	if m < 1 {
		panic(fmt.Sprintf("topk: MedianCostBound requires m >= 1, got %d", m))
	}
	fm := float64(m)
	switch algorithm {
	case "bubble", "selection":
		return float64(bubbleMedianCost(m))
	case "merge":
		if m == 1 {
			return 0
		}
		return 3 * fm * math.Log2(fm)
	case "heap":
		if m < 2 {
			return 0
		}
		return fm + 2*fm*math.Log2(fm/2)
	case "quick":
		return fm * (fm - 1) / 2
	default:
		panic(fmt.Sprintf("topk: unknown median algorithm %q", algorithm))
	}
}

// sweetSpotProb evaluates Pr{o_k* ⪰ r ⪰ o_ck* | x, m} from §5.1:
//
//	1 − Σ_{i=⌈m/2⌉}^m C(m,i)·pⁱ(1−p)^{m−i} − Σ_{i=⌈(m+1)/2⌉}^m C(m,i)·q^{m−i}(1−q)ⁱ
//
// where p = Pr{max of x samples ⪰ o_{k−1}*} penalizes overshooting the
// sweet spot and q = Pr{max ⪰ o_{ck}*} rewards reaching it.
func sweetSpotProb(n, k, x, m int, c float64) float64 {
	p := 1 - math.Pow(1-float64(k-1)/float64(n), float64(x))
	ck := int(math.Floor(c * float64(k)))
	if ck > n {
		ck = n
	}
	q := 1 - math.Pow(1-float64(ck)/float64(n), float64(x))

	overshoot := binomUpperTail(m, p, (m+1)/2)     // i = ⌈m/2⌉ .. m
	undershoot := binomLowerTailQ(m, q, (m+2)/2-1) // i = ⌈(m+1)/2⌉ .. m of C(m,i) q^{m-i}(1-q)^i
	return 1 - overshoot - undershoot
}

// binomUpperTail returns Σ_{i=lo}^m C(m,i)·pⁱ(1−p)^{m−i}.
func binomUpperTail(m int, p float64, lo int) float64 {
	s := 0.0
	for i := lo; i <= m; i++ {
		s += binomPMF(m, i, p)
	}
	return s
}

// binomLowerTailQ returns Σ_{i=lo+1}^m C(m,i)·q^{m−i}(1−q)ⁱ — the second
// penalty sum of §5.1, which is a binomial tail in the *failure*
// probability 1−q.
func binomLowerTailQ(m int, q float64, lo int) float64 {
	s := 0.0
	for i := lo + 1; i <= m; i++ {
		s += binomPMF(m, i, 1-q)
	}
	return s
}

func binomPMF(m, i int, p float64) float64 {
	if p <= 0 {
		if i == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if i == m {
			return 1
		}
		return 0
	}
	lg := lchoose(m, i) + float64(i)*math.Log(p) + float64(m-i)*math.Log1p(-p)
	return math.Exp(lg)
}

func lchoose(n, k int) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// planReference solves Problem (2) by grid search: maximize the sweet-spot
// probability subject to the sampling budget m(x−1) + C(bubble, m) ≤ n
// comparisons, so reference selection never dominates the O(N) partition
// cost. m is kept odd so the median is a single item.
func planReference(n, k int, c float64) refPlan {
	best := refPlan{x: 1, m: 1, prob: -1}
	for m := 1; ; m += 2 {
		budget := n - bubbleMedianCost(m)
		if budget < 0 {
			break
		}
		x := budget/m + 1
		if x < 1 {
			break
		}
		if x > n {
			x = n
		}
		if p := sweetSpotProb(n, k, x, m, c); p > best.prob {
			best = refPlan{x: x, m: m, prob: p}
		}
	}
	return best
}

// selectReference implements Algorithm 3 (SELECTREFERENCE) on the given
// item subset: m sampling procedures of x random items each (with
// replacement), one crowd tournament per sample to find its max (the m
// tournaments run in parallel — §5.5), then a crowd bubble sort of the m
// maxima to surface their median. When prior scores are available the
// sampling is skipped entirely (§7).
//
// Selection comparisons run on a reduced per-pair budget with sample-mean
// fallback: an incorrect judgment here "will only affect the efficiency"
// of the query, never its correctness (§5.4), and the sampled maxima are
// all near-top items whose full-budget comparisons would dominate the
// entire query cost — exactly the difficult pairs SPR exists to avoid.
func (s *SPR) selectReference(r *compare.Runner, items []int, k int) int {
	if len(items) == 1 {
		return items[0]
	}
	if s.PriorScores != nil {
		return priorReference(s.PriorScores, items, k, s.C)
	}
	plan := planReference(len(items), k, s.C)
	rng := r.Rand()

	selB := s.SelectionBudget
	switch {
	case selB == 0:
		selB = 2 * r.Params().I
		if b := r.Params().B; b > 0 && b < selB {
			selB = b
		}
	case selB < 0:
		selB = r.Params().B
	case selB < r.Params().I:
		selB = r.Params().I
	}
	// Derive, not NewRunner: the sub-phase shares the query's scheduler
	// handle and accounting (its purchases are this query's cost) but
	// gets a private conclusion memo — selection's reduced-budget ties
	// must not pollute the main query's verdict table.
	selR := r.Derive(selB)

	samples := make([][]int, plan.m)
	for s := range samples {
		// Sample x items with replacement and dedupe: comparing an item
		// with itself is meaningless and the max is unaffected.
		seen := make(map[int]bool, plan.x)
		for t := 0; t < plan.x; t++ {
			o := items[rng.Intn(len(items))]
			if !seen[o] {
				seen[o] = true
				samples[s] = append(samples[s], o)
			}
		}
	}
	// The m sampling procedures are independent, so their tournaments run
	// level-synchronized in the same parallel waves (§5.5).
	maxima := maxItems(selR, samples)

	// Median of the maxima via crowd sorting (Appendix C uses bubble
	// sort; our odd-even variant has the same comparison bound and fewer
	// rounds).
	sorted := sortByCrowd(selR, maxima)
	return sorted[len(sorted)/2]
}

// priorReference picks the reference from prior scores: the item whose
// prior rank lies in the middle of the sweet spot [o_k*, o_ck*]. No crowd
// cost; the priors need only be roughly monotone with quality.
func priorReference(prior []float64, items []int, k int, c float64) int {
	ranked := append([]int(nil), items...)
	sort.SliceStable(ranked, func(a, b int) bool {
		return prior[ranked[a]] > prior[ranked[b]]
	})
	ck := int(math.Floor(c * float64(k)))
	target := (k - 1 + ck - 1) / 2
	if target >= len(ranked) {
		target = len(ranked) - 1
	}
	if target < 0 {
		target = 0
	}
	return ranked[target]
}
