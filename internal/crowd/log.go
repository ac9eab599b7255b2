package crowd

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
)

// Record is one purchased microtask in an engine's audit log: which pair
// was compared (or which item graded), what the worker answered, and in
// which batch round the answer arrived. Money in a crowdsourcing system is
// real; the log makes every spent cent attributable and every query
// replayable.
type Record struct {
	// Round is the latency-clock value when the microtask was purchased.
	Round int64 `json:"round"`
	// I and J identify the compared pair (I < J canonical orientation).
	// For graded microtasks J is -1.
	I int `json:"i"`
	J int `json:"j"`
	// Value is the worker's answer: a preference in [-1, 1] oriented
	// toward I for pairwise tasks, or the grade on the oracle's native
	// scale for graded tasks.
	Value float64 `json:"value"`
}

// IsGraded reports whether the record is a graded (absolute rating)
// microtask.
func (r Record) IsGraded() bool { return r.J < 0 }

// EnableLog switches on microtask recording. Recording costs one slice
// append per microtask; it is off by default.
func (e *Engine) EnableLog() { e.logging.Store(true) }

// RecordSink receives each freshly logged batch of microtask records,
// synchronously, in log order. The slice is only valid for the duration
// of the call — implementations that retain records must copy. Calls are
// serialized by the engine (made under its log mutex), so a sink needs
// no locking of its own against the engine, and records of one pair
// always arrive in purchase order. Records bought inside a parallel
// fan-out (a deterministic comparison wave, a PBR draw wave) are held
// per pair and reach the sink at the fan-out's barrier, pair by pair in
// the fan-out's order (Engine.HoldLog). A slow sink applies backpressure to
// the purchase path; persistent sinks should buffer (see
// internal/auditlog, whose Log blocks only when its bounded commit
// queue is full).
type RecordSink interface {
	Record(recs []Record)
}

// SetLogSink streams every logged record to sink (enabling logging as a
// side effect). Pass nil to detach. The in-memory log keeps accumulating
// regardless, so TMC == len(Log()) continues to hold.
func (e *Engine) SetLogSink(sink RecordSink) {
	e.logMu.Lock()
	e.sink = sink
	e.logMu.Unlock()
	if sink != nil {
		e.logging.Store(true)
	}
}

// Log returns the recorded microtasks in purchase order. The slice is
// shared; callers must not modify it, and must not call Log while
// purchases are in flight. Records of one pair are always in purchase
// order, which is all replay needs. A parallel fan-out commits its
// records at its barrier in its own pair order, so a deterministic query
// logs identically at every Parallelism; records of concurrent queries
// interleave as they actually ran.
func (e *Engine) Log() []Record {
	e.logMu.Lock()
	defer e.logMu.Unlock()
	return e.log
}

// WriteLog serializes the audit log as a JSON array.
func (e *Engine) WriteLog(w io.Writer) error {
	e.logMu.Lock()
	defer e.logMu.Unlock()
	enc := json.NewEncoder(w)
	return enc.Encode(e.log)
}

// ReadLog parses a JSON audit log previously written by WriteLog. The log
// is untrusted input — it may have been truncated by a crash or corrupted
// at rest — so ReadLog rejects malformed JSON, trailing garbage after the
// record array, and records whose values could poison a replay: NaN or
// infinite values, pairwise preferences outside [-1, 1], self-pairs,
// negative item indices, or negative rounds.
func ReadLog(r io.Reader) ([]Record, error) {
	dec := json.NewDecoder(r)
	var recs []Record
	if err := dec.Decode(&recs); err != nil {
		return nil, fmt.Errorf("crowd: decoding audit log: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("crowd: audit log has trailing data after the record array")
	}
	for idx, rec := range recs {
		if err := ValidateRecord(rec); err != nil {
			return nil, fmt.Errorf("crowd: audit log record %d: %w", idx, err)
		}
	}
	return recs, nil
}

// ValidateRecord checks one audit-log record's invariants. It is shared
// with the segmented persistent log (internal/auditlog), which validates
// each record line at both write and reload time.
func ValidateRecord(rec Record) error {
	if rec.Round < 0 {
		return fmt.Errorf("negative round %d", rec.Round)
	}
	if rec.I < 0 {
		return fmt.Errorf("negative item index %d", rec.I)
	}
	if math.IsNaN(rec.Value) || math.IsInf(rec.Value, 0) {
		return fmt.Errorf("non-finite value %v", rec.Value)
	}
	if rec.IsGraded() {
		if rec.J != -1 {
			return fmt.Errorf("graded record has J=%d, want -1", rec.J)
		}
		return nil
	}
	if rec.I == rec.J {
		return fmt.Errorf("pairwise record compares item %d with itself", rec.I)
	}
	if rec.Value < -1 || rec.Value > 1 {
		return fmt.Errorf("pairwise value %v outside [-1,1]", rec.Value)
	}
	return nil
}

// Replay is an Oracle that serves the answers of a recorded audit log:
// each Preference call pops the next recorded answer for that pair. It
// lets a query (or a cheaper variant of it) be re-run against the exact
// judgments a real crowd already gave, without spending again. Replay is
// safe for concurrent use, so a recorded run can be replayed under
// parallel comparison waves; answers are grouped per pair, so the
// cross-pair interleaving of the original run does not matter.
type Replay struct {
	n       int
	mu      sync.Mutex
	pending map[pairKey][]float64
	grades  map[int][]float64
}

// NewReplay builds a replay oracle over n items from an audit log.
func NewReplay(n int, log []Record) *Replay {
	rp := &Replay{
		n:       n,
		pending: make(map[pairKey][]float64),
		grades:  make(map[int][]float64),
	}
	for _, rec := range log {
		if rec.IsGraded() {
			rp.grades[rec.I] = append(rp.grades[rec.I], rec.Value)
			continue
		}
		k := keyOf(rec.I, rec.J)
		v := rec.Value
		if rec.I != k.lo {
			v = -v
		}
		rp.pending[k] = append(rp.pending[k], v)
	}
	return rp
}

// NumItems implements Oracle.
func (rp *Replay) NumItems() int { return rp.n }

// Remaining returns how many unused pairwise answers the replay still
// holds for the pair (i, j).
func (rp *Replay) Remaining(i, j int) int {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return len(rp.pending[keyOf(i, j)])
}

// Preference implements Oracle. It panics when the log holds no more
// answers for the pair — a replayed run that demands judgments the
// original never bought is a logic error the caller must see.
func (rp *Replay) Preference(_ *rand.Rand, i, j int) float64 {
	k := keyOf(i, j)
	rp.mu.Lock()
	q := rp.pending[k]
	if len(q) == 0 {
		rp.mu.Unlock()
		panic(fmt.Sprintf("crowd: replay exhausted for pair (%d,%d)", k.lo, k.hi))
	}
	v := q[0]
	rp.pending[k] = q[1:]
	rp.mu.Unlock()
	if i != k.lo {
		return -v
	}
	return v
}

// Preferences implements BatchOracle: the whole batch pops under one lock
// acquisition instead of len(dst). Replay ignores rng (the answers are
// recorded), so the stream-equivalence contract holds trivially.
func (rp *Replay) Preferences(_ *rand.Rand, i, j int, dst []float64) {
	k := keyOf(i, j)
	rp.mu.Lock()
	q := rp.pending[k]
	if len(q) < len(dst) {
		rp.mu.Unlock()
		panic(fmt.Sprintf("crowd: replay exhausted for pair (%d,%d)", k.lo, k.hi))
	}
	copy(dst, q[:len(dst)])
	rp.pending[k] = q[len(dst):]
	rp.mu.Unlock()
	if i != k.lo {
		for t := range dst {
			dst[t] = -dst[t]
		}
	}
}

// Grade implements Grader by replaying recorded grades for the item.
func (rp *Replay) Grade(_ *rand.Rand, i int) float64 {
	v, ok := rp.takeGrade(i)
	if !ok {
		panic(fmt.Sprintf("crowd: replay exhausted for grades of item %d", i))
	}
	return v
}

// take pops up to n recorded answers for (i, j), oriented toward i, into
// a fresh slice; ok is false when the log holds none. It is the
// non-panicking primitive ReplayThenLive resumes from.
func (rp *Replay) take(i, j, n int) ([]float64, bool) {
	buf := make([]float64, n)
	got := rp.takeUpTo(i, j, buf)
	if got == 0 {
		return nil, false
	}
	return buf[:got], true
}

// takeUpTo fills a prefix of dst with recorded answers for (i, j),
// oriented toward i, and returns how many it supplied.
func (rp *Replay) takeUpTo(i, j int, dst []float64) int {
	k := keyOf(i, j)
	rp.mu.Lock()
	q := rp.pending[k]
	n := len(dst)
	if n > len(q) {
		n = len(q)
	}
	copy(dst[:n], q[:n])
	rp.pending[k] = q[n:]
	rp.mu.Unlock()
	if i != k.lo {
		for t := range dst[:n] {
			dst[t] = -dst[t]
		}
	}
	return n
}

// takeGrade pops one recorded grade for item i; ok is false when the log
// holds none.
func (rp *Replay) takeGrade(i int) (float64, bool) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	q := rp.grades[i]
	if len(q) == 0 {
		return 0, false
	}
	rp.grades[i] = q[1:]
	return q[0], true
}
