package topk

import (
	"slices"

	"crowdtopk/internal/compare"
)

// partitionResult is the three-way split of Algorithm 4: winners beat the
// final reference at confidence 1−α, losers lose to it, and ties exhausted
// their pairwise budget undecided. The final reference is added into
// winners when winners would otherwise fall short of k (Algorithm 4,
// line 13).
type partitionResult struct {
	winners []int
	ties    []int
	losers  []int
	// ref is the final reference item (it may differ from the initial one
	// after reference changes).
	ref int
	// refInWinners reports whether ref was added back into winners.
	refInWinners bool
	// refChanges counts how many times the reference was upgraded.
	refChanges int
}

// partition implements Algorithm 4 (PARTITION): every item is compared
// with the reference incrementally — one batch per still-tied item per
// round, all items advancing in parallel — deferring difficult
// comparisons as long as possible. Whenever k confirmed winners
// accumulate, the reference may be upgraded to the estimated k-th best
// winner (Lines 9-12; at most maxRefChanges times, cf. Table 4), which
// reactivates the still-tied comparisons against a reference closer to
// o_k* (Lemma 4). The races are a partitionPlan run by drive, so the
// partition uses the worker pool and the barrier of either scheduling
// mode like every other comparison phase.
func partition(r *compare.Runner, items []int, k, ref, maxRefChanges int) partitionResult {
	p := newPartitionPlan(r, items, k, ref, maxRefChanges)
	drive(r, p)
	return p.result()
}

// partitionPlan is Algorithm 4 as a plan: each item races the reference
// as one match, and a decided race classifies the item. A match issued
// against a reference that has since been upgraded is stale. A stale
// race still undecided is dropped by the driver and its item re-issued
// against the current reference (its samples against the old one stay
// banked). A stale race that concluded SecondWins keeps its item a
// loser — by Lemma 4 the new reference beats the old one, so the item
// loses to it too; any other stale verdict is re-raced.
//
// Races are issued in ascending item order, whatever order their items
// became due in, so chain-creation order — and with it the order a
// barrier applies verdicts in — depends only on the set of items due. A
// recursion's input (the outer partition's losers) and a repeat query
// meeting memoized verdicts list the same items in other orders than the
// run that first bought them.
type partitionPlan struct {
	r             *compare.Runner
	k, maxChanges int
	ref, changes  int
	winners       []int
	ties          []int // pairwise budget exhausted undecided
	losers        []int
	todo          []int  // items to race against ref at the next ready
	races         []race // every race issued, by match id
}

func newPartitionPlan(r *compare.Runner, items []int, k, ref, maxRefChanges int) *partitionPlan {
	p := &partitionPlan{r: r, k: k, maxChanges: maxRefChanges, ref: ref,
		todo: make([]int, 0, len(items)), races: make([]race, 0, len(items))}
	for _, o := range items {
		if o != ref {
			p.todo = append(p.todo, o)
		}
	}
	return p
}

// result is the partition once the plan has been driven to completion.
func (p *partitionPlan) result() partitionResult {
	res := partitionResult{winners: p.winners, ties: p.ties, losers: p.losers, ref: p.ref, refChanges: p.changes}
	if len(res.winners) < p.k {
		// Line 13: the reference itself is a top-k candidate.
		res.winners = append(res.winners, p.ref)
		res.refInWinners = true
	}
	return res
}

// race is one issued match: the item and the number of reference
// changes when it was issued.
type race struct{ item, epoch int }

func (p *partitionPlan) ready() []match {
	slices.Sort(p.todo)
	ms := make([]match, len(p.todo))
	for idx, o := range p.todo {
		ms[idx] = match{id: int64(len(p.races)), i: o, j: p.ref}
		p.races = append(p.races, race{o, p.changes})
	}
	p.todo = p.todo[:0]
	return ms
}

func (p *partitionPlan) stale(id int64) bool {
	rc := p.races[id]
	if rc.epoch == p.changes {
		return false
	}
	p.todo = append(p.todo, rc.item)
	return true
}

func (p *partitionPlan) decide(id int64, o compare.Outcome) {
	rc := p.races[id]
	if rc.epoch != p.changes {
		if o == compare.SecondWins {
			p.losers = append(p.losers, rc.item)
		} else {
			p.todo = append(p.todo, rc.item)
		}
		return
	}
	switch o {
	case compare.FirstWins:
		p.winners = append(p.winners, rc.item)
	case compare.SecondWins:
		p.losers = append(p.losers, rc.item)
	default:
		p.ties = append(p.ties, rc.item)
	}
	if len(p.winners) != p.k || p.changes >= p.maxChanges {
		return
	}
	// Lines 9-12: the estimated k-th best winner r' satisfies
	// o_k* ⪰ r' ≻ r, a strictly better reference (Lemma 4).
	newRef, ok := estimatedKth(p.r, p.winners, p.ref)
	if !ok {
		return // no winner has evidence against this ref yet
	}
	p.changes++
	p.losers = append(p.losers, p.ref)
	p.winners = slices.DeleteFunc(p.winners, func(o int) bool { return o == newRef })
	p.ref = newRef
	// Budget-exhausted ties get a fresh race against the new reference;
	// races in flight against the old one go stale.
	p.todo = append(p.todo, p.ties...)
	p.ties = nil
}

// estimatedKth returns the winner with the k-th best (here: smallest,
// since all winners beat the reference) estimated preference mean against
// the current reference — the paper's r', satisfying o_k* ⪰ r' ≻ r.
// Two guards keep the upgrade honest. Only winners with purchased evidence
// against the current reference are candidates: after an earlier upgrade
// the winner set mixes items concluded against older references, and an
// unsampled pair's zero mean would otherwise always win the argmin and
// promote an item whose relation to the current reference is unknown,
// breaking the r' ≻ r chain. And the candidate means must discriminate:
// when every candidate shows the same mean (e.g. exactly +1 on noiseless
// data) the argmin carries no ranking information and an arbitrary upgrade
// could overshoot past o_k*, so the upgrade is skipped. The second result
// is false when no informative candidate exists.
func estimatedKth(r *compare.Runner, winners []int, ref int) (int, bool) {
	best := -1
	var bestMean, maxMean float64
	for _, w := range winners {
		v := r.Engine().View(w, ref)
		if v.N == 0 {
			continue
		}
		if best < 0 {
			best, bestMean, maxMean = w, v.Mean, v.Mean
			continue
		}
		if v.Mean < bestMean {
			best, bestMean = w, v.Mean
		}
		if v.Mean > maxMean {
			maxMean = v.Mean
		}
	}
	if best < 0 || bestMean == maxMean {
		return ref, false
	}
	return best, true
}
