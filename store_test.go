package crowdtopk

import (
	"reflect"
	"testing"
)

func TestWarmStartFromMemoryStore(t *testing.T) {
	// The outcome-driven algorithms (no sampling sub-phase, no reference
	// upgrades) replay warm byte-identically: every comparison is answered
	// from the store, so a repeat query costs exactly zero.
	d := SyntheticDataset(60, 0.25, 70)
	for _, alg := range []Algorithm{HeapSort, TourTree, QuickSelect} {
		store := NewMemoryJudgmentStore()
		opts := Options{K: 8, Algorithm: alg, Confidence: 0.95, Budget: 400, Seed: 71, JudgmentStore: store}
		cold, err := Query(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if cold.TMC <= 0 {
			t.Fatalf("%s: cold query cost nothing", alg)
		}
		if store.Len() == 0 {
			t.Fatalf("%s: cold query committed nothing to the store", alg)
		}
		warm, err := Query(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(warm.TopK, cold.TopK) {
			t.Errorf("%s: warm TopK %v differs from cold %v", alg, warm.TopK, cold.TopK)
		}
		if warm.TMC != 0 {
			t.Errorf("%s: warm TMC = %d, want 0 (every pair stored)", alg, warm.TMC)
		}
	}
}

func TestWarmStartSPRSavesAcrossStores(t *testing.T) {
	// SPR's sampling sub-phase re-buys its reduced-budget evidence (see
	// compare.Runner.Concluded), so a warm SPR run is cheap, not free, and
	// — like an in-session repeat — its answer can differ on boundary
	// ties. Assert the aggregate contract over forty seeds: heavy
	// savings, near-total answer overlap. Five seeds sat on the overlap
	// threshold, too few to tell a reshuffled boundary tie from a
	// regression.
	d := SyntheticDataset(60, 0.25, 70)
	var coldTotal, warmTotal int64
	overlap, want := 0, 0
	for seed := int64(71); seed <= 110; seed++ {
		store := NewMemoryJudgmentStore()
		opts := Options{K: 8, Confidence: 0.95, Budget: 400, Seed: seed, JudgmentStore: store}
		cold, err := Query(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := Query(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		coldTotal += cold.TMC
		warmTotal += warm.TMC
		overlap += overlapCount(warm.TopK, cold.TopK)
		want += len(cold.TopK)
	}
	if warmTotal*2 > coldTotal {
		t.Errorf("warm SPR total %d not under 50%% of cold %d", warmTotal, coldTotal)
	}
	if overlap*10 < want*9 {
		t.Errorf("warm/cold overlap %d/%d below 90%%", overlap, want)
	}
}

func TestWarmStartAcrossSessionsSharingFileStore(t *testing.T) {
	d := SyntheticDataset(50, 0.25, 72)
	path := t.TempDir() + "/judgments.jsonl"

	// Session 1 pays for its evidence and commits conclusions to the file.
	store1, err := OpenFileJudgmentStore(path)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewSession(d, Options{Algorithm: HeapSort, Confidence: 0.95, Budget: 400, Seed: 73, JudgmentStore: store1})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s1.TopK(6)
	if err != nil {
		t.Fatal(err)
	}
	ss1 := s1.StoreStats()
	if ss1.Commits == 0 {
		t.Fatal("session 1 committed nothing")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	// Session 2 — a fresh process in spirit — reopens the file and answers
	// the same query nearly for free.
	store2, err := OpenFileJudgmentStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if int64(store2.Len()) != ss1.Commits {
		t.Fatalf("reloaded store has %d records, session 1 committed %d", store2.Len(), ss1.Commits)
	}
	s2, err := NewSession(d, Options{Algorithm: HeapSort, Confidence: 0.95, Budget: 400, Seed: 73, JudgmentStore: store2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	warm, err := s2.TopK(6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.TopK, cold.TopK) {
		t.Errorf("warm TopK %v differs from cold %v", warm.TopK, cold.TopK)
	}
	if warm.TMC != 0 {
		t.Errorf("warm TMC = %d, want 0 (session 1 paid for every comparison)", warm.TMC)
	}
	ss2 := s2.StoreStats()
	if ss2.Hits == 0 {
		t.Error("session 2 reported no store hits")
	}
	// Sub-phase re-verifications may refresh a few records, but the store
	// must not grow: session 2 concluded no pair session 1 had not.
	if int64(store2.Len()) != ss1.Commits {
		t.Errorf("store grew from %d to %d records on a repeat query", ss1.Commits, store2.Len())
	}
}

func TestWarmStartStatsAndValidation(t *testing.T) {
	d := SyntheticDataset(40, 0.25, 74)
	store := NewMemoryJudgmentStore()
	tel := NewTelemetry()
	res, err := Query(d, Options{K: 5, Confidence: 0.95, Budget: 400, Seed: 75,
		JudgmentStore: store, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st == nil {
		t.Fatal("no stats with telemetry enabled")
	}
	if st.StoreCommits == 0 || st.StoreSize == 0 {
		t.Errorf("stats did not record store traffic: %+v", st)
	}
	if st.StoreCommits != int64(store.Len()) {
		t.Errorf("StoreCommits %d != store size %d after one query", st.StoreCommits, store.Len())
	}

	if _, err := Query(d, Options{K: 5, JudgmentTTL: -1}); err == nil {
		t.Error("negative JudgmentTTL accepted")
	}
}

func TestJudgeCommitsToStore(t *testing.T) {
	d := SyntheticDataset(20, 0.2, 76)
	store := NewMemoryJudgmentStore()
	opts := Options{Confidence: 0.95, Budget: 400, Seed: 77, JudgmentStore: store}
	j1, err := Judge(d, 0, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != 1 {
		t.Fatalf("store has %d records after Judge, want 1", store.Len())
	}
	// A second process judging the same pair reads it for free.
	j2, err := Judge(d, 0, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Outcome != j1.Outcome {
		t.Errorf("warm Judge outcome %v, cold %v", j2.Outcome, j1.Outcome)
	}
	if j2.Workload != j1.Workload || j2.Mean != j1.Mean {
		t.Errorf("warm Judge view (%d, %v) differs from cold (%d, %v)",
			j2.Workload, j2.Mean, j1.Workload, j1.Mean)
	}
}
