package auditlog

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzSegmentReload throws arbitrary bytes at the segment parser — the
// code every boot trusts with whatever a crash left on disk. The parser
// must never panic, must keep validLen inside the input, and everything
// it accepts must re-parse identically after truncating to validLen
// (recovery's idempotence: recovering a recovered file is a no-op).
func FuzzSegmentReload(f *testing.F) {
	dir := f.TempDir()
	l, err := Open(dir, Options{SegmentMaxRecords: 4, CompactEvery: -1, Sync: SyncOff})
	if err != nil {
		f.Fatal(err)
	}
	appendAll(f, l, mkRecords(10))
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	seqs, _ := listSegments(dir)
	for _, seq := range seqs {
		data, err := os.ReadFile(filepath.Join(dir, segmentFile(seq)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)               // a whole sealed segment
		f.Add(data[:len(data)/2]) // torn mid-file
		f.Add(data[:len(data)-1]) // torn final newline
	}
	f.Add([]byte{})
	f.Add([]byte("{\"kind\":\"header\",\"seq\":1,\"prev\":\"\",\"base\":0}\n"))
	f.Add([]byte("not json at all\nstill not\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := parseSegment("seg-000001.log", data)
		if err != nil {
			return // refused outright — fine, just must not panic
		}
		if ps.validLen < 0 || ps.validLen > int64(len(data)) {
			t.Fatalf("validLen %d outside input of %d bytes", ps.validLen, len(data))
		}
		if len(ps.leaves) > 0 && len(ps.leaves) != len(ps.records)+1 {
			t.Fatalf("%d leaves for %d records", len(ps.leaves), len(ps.records))
		}
		// Idempotence: the valid prefix must re-parse to the same shape.
		ps2, err := parseSegment("seg-000001.log", data[:ps.validLen])
		if err != nil {
			t.Fatalf("valid prefix refused on re-parse: %v", err)
		}
		if ps2.torn {
			t.Fatal("valid prefix re-parsed as torn")
		}
		if len(ps2.records) != len(ps.records) {
			t.Fatalf("re-parse found %d records, first parse %d", len(ps2.records), len(ps.records))
		}
		for i := range ps.records {
			if ps2.records[i] != ps.records[i] {
				t.Fatalf("record %d changed across re-parse", i)
			}
		}
	})
}
