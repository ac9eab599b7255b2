package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"crowdtopk"
)

// TestWarmStoreMix is the judgment store's fleet contract: traffic that
// half-repeats itself answers the repeated half from stored verdicts at
// near-zero cost without changing any answer. A fixed 8-query mix (4
// algorithms × k∈{5,8}, the k=5 half executed and committed beforehand)
// runs cold and then warm, each query on a fresh session so the store is
// the only channel of reuse. Every warm top-k must equal its cold run's,
// warm TMC must be at most 20% of cold, and one repeat query replayed
// through the service must balance /debug/accounting with every
// comparison explained by a store hit.
func TestWarmStoreMix(t *testing.T) {
	d := crowdtopk.SyntheticDataset(60, 0.25, 70)
	opts := func(alg crowdtopk.Algorithm, k int, s crowdtopk.JudgmentStore) crowdtopk.Options {
		return crowdtopk.Options{
			K: k, Algorithm: alg, Confidence: 0.95, Budget: 400, Seed: 75, JudgmentStore: s,
		}
	}
	type query struct {
		alg        crowdtopk.Algorithm
		k          int
		cold, warm crowdtopk.Result
	}
	var mix []*query
	for _, k := range []int{5, 8} {
		for _, alg := range []crowdtopk.Algorithm{
			crowdtopk.HeapSort, crowdtopk.TourTree, crowdtopk.QuickSelect, crowdtopk.SPR,
		} {
			mix = append(mix, &query{alg: alg, k: k})
		}
	}
	run := func(q *query, s crowdtopk.JudgmentStore) crowdtopk.Result {
		t.Helper()
		res, err := crowdtopk.Query(d, opts(q.alg, q.k, s))
		if err != nil {
			t.Fatalf("%s k=%d: %v", q.alg, q.k, err)
		}
		return res
	}

	store := crowdtopk.NewMemoryJudgmentStore()
	for _, q := range mix {
		q.cold = run(q, nil)
	}
	for _, q := range mix {
		if q.k == 5 {
			run(q, store) // the history the fleet has already paid for
		}
	}
	var cold, warm int64
	for _, q := range mix {
		q.warm = run(q, store)
		cold += q.cold.TMC
		warm += q.warm.TMC
		t.Logf("%-12s k=%d  cold %6d  warm %6d  top-k %v", q.alg, q.k, q.cold.TMC, q.warm.TMC, q.warm.TopK)
		if !reflect.DeepEqual(q.warm.TopK, q.cold.TopK) {
			t.Errorf("%s k=%d: warm top-k %v, cold %v", q.alg, q.k, q.warm.TopK, q.cold.TopK)
		}
	}
	t.Logf("warm %d / cold %d = %.1f%% (gate 20%%), store holds %d verdicts",
		warm, cold, 100*float64(warm)/float64(cold), store.Len())
	if warm*5 > cold {
		t.Errorf("warm TMC %d is above 20%% of cold %d", warm, cold)
	}

	// A pure repeat is answered entirely from the store, so the service's
	// ledger is exact: zero TMC, zero misses, zero stale verdicts.
	sopts := opts(crowdtopk.HeapSort, 0, store) // sessions take K per query
	tel := crowdtopk.NewTelemetry()
	sopts.Telemetry = tel
	sess, err := crowdtopk.NewSession(d, sopts)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.EnableAuditLog()
	srv := New(Config{Session: sess, Telemetry: tel, AuditEnabled: true})
	defer srv.Shutdown(context.Background())
	hs := httptest.NewServer(srv)
	defer hs.Close()
	st, code := postQuery(t, hs.URL, Request{K: 5, Algorithm: string(crowdtopk.HeapSort)})
	if code != http.StatusAccepted {
		t.Fatalf("POST /queries: %d", code)
	}
	if st = waitDone(t, hs.URL, st.ID); st.State != "done" || st.Error != "" {
		t.Fatalf("service query finished %q: %s", st.State, st.Error)
	}
	resp, err := http.Get(hs.URL + "/debug/accounting")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var acct Accounting
	if err := json.NewDecoder(resp.Body).Decode(&acct); err != nil {
		t.Fatal(err)
	}
	t.Logf("/debug/accounting: tmc=%d hits=%d misses=%d stale=%d balanced=%v",
		acct.SessionTMC, acct.StoreHits, acct.StoreMisses, acct.StoreStale, acct.Balanced)
	if !acct.Balanced || acct.SessionTMC != 0 || acct.StoreMisses != 0 || acct.StoreStale != 0 || acct.StoreHits == 0 {
		t.Errorf("repeat query not balanced and fully explained by store hits: %+v", acct)
	}
}
