package auditlog

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"crowdtopk/internal/crowd"
)

// On-disk layout of an audit-log directory:
//
//	seg-000001.log          sealed segment (header, records, seal)
//	seg-000002.log          active segment (header, records, no seal yet)
//	checkpoint-000004.json  fold of segments 1..4 (one entry per pair)
//	MANIFEST.json           roots + chain heads, atomically rewritten
//	LOCK                    flock sidecar (one writer process)
//
// A segment is JSONL: the first line is its header, then one line per
// record, and — once rotated out — a final seal line. The seal commits to
// a SHA-256 Merkle root over the header line and every record line
// exactly as written, and to the running chain root
//
//	chain_k = SHA256(chain_{k-1} || root_k)
//
// so each segment's integrity covers its whole history: silently editing
// any sealed byte changes that segment's recomputed root, and rewriting
// the seal to match changes the chain every later segment (and the
// manifest) committed to.

const (
	manifestName = "MANIFEST.json"
	lockName     = "LOCK"
)

func segmentFile(seq int) string     { return fmt.Sprintf("seg-%06d.log", seq) }
func checkpointFile(upTo int) string { return fmt.Sprintf("checkpoint-%06d.json", upTo) }

// segmentSeq parses the sequence number out of a segment file name, or -1.
func segmentSeq(name string) int {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".log") {
		return -1
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".log"))
	if err != nil || n < 1 {
		return -1
	}
	return n
}

// checkpointSeq parses the fold horizon out of a checkpoint file name, or -1.
func checkpointSeq(name string) int {
	if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ".json") {
		return -1
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "checkpoint-"), ".json"))
	if err != nil || n < 1 {
		return -1
	}
	return n
}

// segmentHeader is the first line of every segment.
type segmentHeader struct {
	Kind string `json:"kind"` // "header"
	Seq  int    `json:"seq"`
	// Prev is the chain root after the predecessor segment (hex), ""
	// for the genesis segment.
	Prev string `json:"prev"`
	// Base is the global index of the segment's first record.
	Base int64 `json:"base"`
}

// segmentSeal is the last line of a sealed segment.
type segmentSeal struct {
	Kind  string `json:"kind"` // "seal"
	Count int    `json:"count"`
	// Root is the Merkle root over the header line and the record lines.
	Root string `json:"root"`
	// Chain is SHA256(prev-chain || root), the value the next segment's
	// header (and the manifest) commit to.
	Chain string `json:"chain"`
}

// lineProbe sniffs a line's kind without committing to a shape. Record
// lines carry no "kind" field and probe empty.
type lineProbe struct {
	Kind string `json:"kind"`
}

// leafHash is the Merkle leaf of one line as written (no newline).
func leafHash(line []byte) [32]byte { return sha256.Sum256(line) }

// merkleArity is the fan-in of interior Merkle nodes. Wider than binary
// because the tree buys per-segment attribution, not per-leaf proofs:
// interior digests cost ~N/(arity-1) instead of ~N, and sealing a
// default 4096-record segment hashes ~585 interior nodes instead of
// ~4095 — committer CPU the `make overhead` batched-logging gate budgets
// for.
const merkleArity = 8

// merkleRoot folds leaf hashes merkleArity at a time; a lone child is
// promoted unchanged. The empty tree has the zero root (only a segment
// with no header could produce it, which never exists on disk).
func merkleRoot(leaves [][32]byte) [32]byte {
	if len(leaves) == 0 {
		return [32]byte{}
	}
	level := leaves
	var buf [merkleArity * 32]byte
	for len(level) > 1 {
		next := make([][32]byte, 0, (len(level)+merkleArity-1)/merkleArity)
		for i := 0; i < len(level); i += merkleArity {
			end := i + merkleArity
			if end > len(level) {
				end = len(level)
			}
			if end-i == 1 {
				next = append(next, level[i])
				continue
			}
			n := 0
			for _, h := range level[i:end] {
				copy(buf[n:], h[:])
				n += 32
			}
			next = append(next, sha256.Sum256(buf[:n]))
		}
		level = next
	}
	return level[0]
}

// chainRoot advances the cross-segment hash chain.
func chainRoot(prev, root [32]byte) [32]byte {
	var buf [64]byte
	copy(buf[:32], prev[:])
	copy(buf[32:], root[:])
	return sha256.Sum256(buf[:])
}

// genesisChain is the chain value before the first segment: all zeroes,
// rendered as "" in headers.
var genesisChain [32]byte

func hexChain(c [32]byte) string {
	if c == genesisChain {
		return ""
	}
	return hex.EncodeToString(c[:])
}

func parseChain(s string) ([32]byte, error) {
	if s == "" {
		return genesisChain, nil
	}
	var c [32]byte
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != 32 {
		return c, fmt.Errorf("auditlog: malformed hash %q", s)
	}
	copy(c[:], b)
	return c, nil
}

// parsedSegment is one segment file decoded with the raw line hashes
// retained, so sealing and verification hash exactly the bytes on disk.
type parsedSegment struct {
	file    string
	header  segmentHeader
	records []crowd.Record
	leaves  [][32]byte // header + record lines, in file order
	seal    *segmentSeal

	// validLen is the byte length of the well-formed prefix. torn reports
	// trailing bytes past it that failed to parse — the signature of a
	// crash mid-append, recoverable by truncating to validLen.
	validLen int64
	torn     bool
}

// errCorrupt marks damage that truncation cannot explain: a bad line with
// committed records after it, content after a seal, a malformed header.
// Open refuses to silently drop data behind it; Verify attributes it.
type corruptError struct {
	file   string
	reason string
}

func (e *corruptError) Error() string {
	return fmt.Sprintf("auditlog: %s: %s", e.file, e.reason)
}

// readSegment parses one segment file. A torn tail (crash mid-append) is
// tolerated and reported via the torn flag; corruption that truncation
// cannot explain returns a *corruptError.
func readSegment(path string) (*parsedSegment, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("auditlog: read %s: %w", path, err)
	}
	return parseSegment(filepath.Base(path), data)
}

func parseSegment(name string, data []byte) (*parsedSegment, error) {
	ps := &parsedSegment{file: name}
	off := 0
	lineNo := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// Unterminated tail: the write (or the disk) stopped mid-line.
			ps.torn = true
			break
		}
		line := data[off : off+nl]
		ok, reason := ps.consumeLine(lineNo, line)
		if !ok {
			// A bad line is recoverable only when nothing valid follows it:
			// then it is the torn tail of a crashed append. A valid record
			// after it means committed data would be dropped — refuse.
			if segmentHasValidLineAfter(data[off+nl+1:]) {
				return nil, &corruptError{file: name, reason: reason}
			}
			ps.torn = true
			break
		}
		off += nl + 1
		ps.validLen = int64(off)
		lineNo++
	}
	if ps.torn && ps.seal != nil {
		// Bytes after a seal are never a torn append — nothing is written
		// to a segment after sealing.
		return nil, &corruptError{file: name, reason: "trailing data after seal"}
	}
	if lineNo == 0 && !ps.torn && len(data) > 0 {
		return nil, &corruptError{file: name, reason: "no parsable content"}
	}
	return ps, nil
}

// consumeLine folds one line into the parse state. It reports whether the
// line was accepted and, if not, why.
func (ps *parsedSegment) consumeLine(lineNo int, line []byte) (bool, string) {
	if len(line) == 0 {
		return false, "empty line"
	}
	var probe lineProbe
	if err := json.Unmarshal(line, &probe); err != nil {
		return false, fmt.Sprintf("line %d: %v", lineNo+1, err)
	}
	switch {
	case lineNo == 0:
		if probe.Kind != "header" {
			return false, "first line is not a segment header"
		}
		if err := json.Unmarshal(line, &ps.header); err != nil {
			return false, fmt.Sprintf("header: %v", err)
		}
		if ps.header.Seq < 1 || ps.header.Base < 0 {
			return false, "header out of range"
		}
		ps.leaves = append(ps.leaves, leafHash(line))
	case probe.Kind == "seal":
		if ps.seal != nil {
			return false, "duplicate seal"
		}
		var seal segmentSeal
		if err := json.Unmarshal(line, &seal); err != nil {
			return false, fmt.Sprintf("seal: %v", err)
		}
		ps.seal = &seal
	case probe.Kind != "":
		return false, fmt.Sprintf("unknown line kind %q", probe.Kind)
	case ps.seal != nil:
		return false, "record after seal"
	default:
		var rec crowd.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return false, fmt.Sprintf("record %d: %v", len(ps.records), err)
		}
		if err := crowd.ValidateRecord(rec); err != nil {
			return false, fmt.Sprintf("record %d: %v", len(ps.records), err)
		}
		ps.records = append(ps.records, rec)
		ps.leaves = append(ps.leaves, leafHash(line))
	}
	return true, ""
}

// segmentHasValidLineAfter reports whether any complete line in rest
// parses as segment content — the test separating a torn tail from
// mid-file corruption.
func segmentHasValidLineAfter(rest []byte) bool {
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return false
		}
		line := rest[:nl]
		rest = rest[nl+1:]
		if len(line) == 0 {
			continue
		}
		var probe lineProbe
		if json.Unmarshal(line, &probe) != nil {
			continue
		}
		if probe.Kind == "seal" || probe.Kind == "header" {
			return true
		}
		var rec crowd.Record
		if json.Unmarshal(line, &rec) == nil && crowd.ValidateRecord(rec) == nil {
			return true
		}
	}
	return false
}

// listSegments returns the segment sequence numbers present in dir,
// ascending.
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("auditlog: %w", err)
	}
	var seqs []int
	for _, ent := range ents {
		if seq := segmentSeq(ent.Name()); seq > 0 {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// listCheckpoints returns the checkpoint horizons present in dir,
// ascending.
func listCheckpoints(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("auditlog: %w", err)
	}
	var seqs []int
	for _, ent := range ents {
		if seq := checkpointSeq(ent.Name()); seq > 0 {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}
