package auditlog

import (
	"testing"

	"crowdtopk/internal/crowd"
)

// BenchmarkAppendCommit measures the full logging cost of one purchased
// batch: the producer-side copy and enqueue plus the committer's encode,
// hash and write, amortized by draining everything at the end. This is
// the number the `make overhead` batched-logging gate rests on — on a
// single-core machine the committer's CPU time is the whole durability
// tax.
func BenchmarkAppendCommit(b *testing.B) {
	dir := b.TempDir()
	// CompactEvery -1: Close only seals, so the deferred shutdown does
	// not re-read the benchmark's multi-million-record segment.
	l, err := Open(dir, Options{Sync: SyncOff, SegmentMaxRecords: 1 << 20, SegmentMaxBytes: 1 << 40, CompactEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	batch := make([]crowd.Record, 10)
	for i := range batch {
		batch[i] = crowd.Record{Round: int64(i), I: 3, J: 7, Value: float64(i)/9.5 - 0.5}
	}
	b.SetBytes(int64(len(batch)))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		l.Append(batch)
	}
	if err := l.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if got := l.Committed(); got != int64(b.N*len(batch)) {
		b.Fatalf("committed %d records, want %d", got, b.N*len(batch))
	}
}
