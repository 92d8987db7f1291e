package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is read with a minimal decoder of the pprof protobuf
// format (github.com/google/pprof/proto/profile.proto), since the module
// takes no dependencies. Only the fields needed to charge samples to
// functions are decoded.

// pbuf walks protobuf wire-format fields.
type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = errors.New("profile: truncated varint")
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("profile: varint overflow")
	return 0
}

// field returns the next field's number, wire type, varint value (types 0
// and 1) or payload (type 2). Fixed 32- and 64-bit payloads are skipped.
func (p *pbuf) field() (num int, typ int, v uint64, data []byte, ok bool) {
	if len(p.b) == 0 || p.err != nil {
		return 0, 0, 0, nil, false
	}
	key := p.varint()
	num, typ = int(key>>3), int(key&7)
	switch typ {
	case 0:
		v = p.varint()
	case 1:
		if len(p.b) < 8 {
			p.err = errors.New("profile: truncated fixed64")
			return 0, 0, 0, nil, false
		}
		p.b = p.b[8:]
	case 2:
		n := p.varint()
		if uint64(len(p.b)) < n {
			p.err = errors.New("profile: truncated field")
			return 0, 0, 0, nil, false
		}
		data, p.b = p.b[:n], p.b[n:]
	case 5:
		if len(p.b) < 4 {
			p.err = errors.New("profile: truncated fixed32")
			return 0, 0, 0, nil, false
		}
		p.b = p.b[4:]
	default:
		p.err = fmt.Errorf("profile: unsupported wire type %d", typ)
		return 0, 0, 0, nil, false
	}
	return num, typ, v, data, p.err == nil
}

// uints decodes a repeated uint64 field, packed (type 2) or not.
func uints(typ int, v uint64, data []byte, dst []uint64) ([]uint64, error) {
	if typ == 0 {
		return append(dst, v), nil
	}
	q := pbuf{b: data}
	for len(q.b) > 0 && q.err == nil {
		dst = append(dst, q.varint())
	}
	return dst, q.err
}

// cpuProfile is a decoded profile: each sample's stack as function names,
// leaf first, with its CPU time in nanoseconds.
type cpuProfile struct {
	stacks [][]string
	nanos  []int64
}

// parseProfile decodes a gzip-compressed (or raw) pprof CPU profile.
func parseProfile(raw []byte) (*cpuProfile, error) {
	if len(raw) > 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> string index
		strs    []string
	)
	p := pbuf{b: raw}
	for {
		num, _, _, data, ok := p.field()
		if !ok {
			break
		}
		switch num {
		case 2: // Sample
			var s sample
			q := pbuf{b: data}
			for {
				n, t, v, d, ok := q.field()
				if !ok {
					break
				}
				var err error
				switch n {
				case 1:
					s.locs, err = uints(t, v, d, s.locs)
				case 2:
					s.vals, err = uints(t, v, d, s.vals)
				}
				if err != nil {
					return nil, err
				}
			}
			if q.err != nil {
				return nil, q.err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			q := pbuf{b: data}
			for {
				n, _, v, d, ok := q.field()
				if !ok {
					break
				}
				switch n {
				case 1:
					id = v
				case 4: // Line: function_id = 1
					l := pbuf{b: d}
					for {
						ln, _, lv, _, ok := l.field()
						if !ok {
							break
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
					if l.err != nil {
						return nil, l.err
					}
				}
			}
			if q.err != nil {
				return nil, q.err
			}
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			q := pbuf{b: data}
			for {
				n, _, v, _, ok := q.field()
				if !ok {
					break
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			if q.err != nil {
				return nil, q.err
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	prof := &cpuProfile{}
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		prof.stacks = append(prof.stacks, stack)
		// A CPU profile's sample values are (samples, cpu nanoseconds).
		prof.nanos = append(prof.nanos, int64(s.vals[len(s.vals)-1]))
	}
	return prof, nil
}

// frameLayer maps a function name to the program layer it belongs to:
// "sesa/internal/core.(*Core).issue" is "core", and the root package
// ("sesa.(*System).Run") is "sesa". Functions outside the program yield "".
func frameLayer(fn string) string {
	switch {
	case strings.HasPrefix(fn, "sesa/internal/"):
		rest := fn[len("sesa/internal/"):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			return rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "sesa."):
		return "sesa"
	}
	return ""
}

// stackLayer charges a stack (leaf first) to the innermost program frame's
// layer. Stacks with no program frame go to "bench" when the benchmark's own
// code (package main) is on them, else to "runtime" (GC, scheduler, and
// idle network polling).
func stackLayer(stack []string) string {
	for _, fn := range stack {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
	}
	return "runtime"
}

// buckets sums CPU seconds per layer.
func (p *cpuProfile) buckets() map[string]float64 {
	out := map[string]float64{}
	for i, st := range p.stacks {
		out[stackLayer(st)] += float64(p.nanos[i]) / 1e9
	}
	return out
}
