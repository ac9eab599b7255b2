package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The CPU profile of the traced run is attributed to layers by the
// innermost stack frame that belongs to this module. Decoding needs only
// a handful of fields of the pprof protobuf, so the benchmark reads them
// itself instead of depending on a profile library.

// cpuLayers lists the attribution buckets in report order.
var cpuLayers = []string{"crowd", "dataset", "compare", "topk", "sched", "stats",
	"auditlog", "jstore", "service", "obs", "runtime", "other"}

// layerOf maps a fully qualified function name to its layer: "" for a
// frame outside the module, "other" for module code outside the named
// layers (the root package, the benchmark itself, helpers).
func layerOf(fn string) string {
	const internal = "crowdtopk/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		pkg := fn[len(internal):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range cpuLayers[:10] {
			if pkg == l {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(fn, "crowdtopk.") || strings.HasPrefix(fn, "crowdtopk/") || strings.HasPrefix(fn, "main."):
		return "other"
	}
	return ""
}

// cpuProfile is the decoded part of a pprof profile: per sample, its
// stack as function names, leaf first (inlined frames expanded,
// innermost first).
type cpuProfile struct {
	stacks  [][]string
	weights []int64
}

// attribute returns each layer's share of the profile's samples.
func (p *cpuProfile) attribute() map[string]float64 {
	total := int64(0)
	byLayer := map[string]int64{}
	for s, stack := range p.stacks {
		layer := "runtime"
		for _, fn := range stack {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		byLayer[layer] += p.weights[s]
		total += p.weights[s]
	}
	out := map[string]float64{}
	for _, l := range cpuLayers {
		out[l] = ratio(float64(byLayer[l]), float64(total))
	}
	return out
}

// hotspots returns the n heaviest (leaf function, innermost module
// frame) pairs with their sample shares, for the benchmark's notes.
func (p *cpuProfile) hotspots(n int) []string {
	total := int64(0)
	w := map[string]int64{}
	for s, stack := range p.stacks {
		total += p.weights[s]
		if len(stack) == 0 {
			continue
		}
		caller := "-"
		for _, fn := range stack {
			if layerOf(fn) != "" {
				caller = fn
				break
			}
		}
		w[stack[0]+" <- "+caller] += p.weights[s]
	}
	keys := make([]string, 0, len(w))
	for k := range w {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return w[keys[a]] > w[keys[b]] })
	var out []string
	for _, k := range keys[:min(n, len(keys))] {
		out = append(out, fmt.Sprintf("%5.1f%%  %s", 100*ratio(float64(w[k]), float64(total)), k))
	}
	return out
}

// inclusiveShare returns the share of samples whose stack contains a
// frame whose name has the given prefix.
func (p *cpuProfile) inclusiveShare(prefix string) float64 {
	total, hit := int64(0), int64(0)
	for s, stack := range p.stacks {
		total += p.weights[s]
		for _, fn := range stack {
			if strings.HasPrefix(fn, prefix) {
				hit += p.weights[s]
				break
			}
		}
	}
	return ratio(float64(hit), float64(total))
}

// parseProfile decodes a gzipped pprof profile as written by
// runtime/pprof.
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]int64{}    // function id → string index
		strs    []string
	)
	err = eachField(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					if b == nil {
						s.locs = append(s.locs, v)
						return nil
					}
					return eachPacked(b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					if b == nil {
						s.vals = append(s.vals, int64(v))
						return nil
					}
					return eachPacked(b, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		var stack []string
		for _, l := range s.locs {
			for _, fid := range locFns[l] {
				if i := fnName[fid]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		w := int64(1)
		if len(s.vals) > 0 {
			w = s.vals[0]
		}
		p.stacks = append(p.stacks, stack)
		p.weights = append(p.weights, w)
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the fields of one protobuf message. Varint fields come
// as v with b == nil; length-delimited ones as b.
func eachField(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if b == nil {
				b = []byte{}
			}
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

func eachPacked(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
