package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stack is one CPU-profile sample: its frames, innermost first (inlined
// frames expanded), and the CPU nanoseconds it stands for.
type stack struct {
	frames []string
	nanos  int64
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes. Only the fields attribution needs are read: samples, locations
// with their lines, functions and the string table.
func parseCPUProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, u := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stack{nanos: s.values[len(s.values)-1]} // [count, cpu ns]
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("pprof: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type and value: v for varints, b for length-delimited.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

const modulePrefix = "secddr/internal/"

// gcFrames are runtime functions whose presence anywhere in a stack marks
// the sample as garbage-collector work, including assists that run inside
// an allocating simulator frame.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.sweepone", "runtime.scanobject", "runtime.gcStart",
}

// attribute assigns one sample to a layer: "gc" when the stack holds a
// garbage-collector frame; else the innermost secddr/internal/<module>
// frame's module, so standard-library and runtime code counts against the
// module that called it; else "service" for net/http serving goroutines,
// which run outside any module frame; else "other".
func attribute(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if f == g {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		if m, ok := moduleOf(f); ok {
			return m
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "net/http.") {
			return "service"
		}
	}
	return "other"
}

// moduleOf returns the secddr/internal module a function belongs to, e.g.
// "memctrl" for "secddr/internal/memctrl.(*Controller).Tick".
func moduleOf(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

// layerShares returns each layer's share of the profiled CPU time.
func layerShares(stacks []stack) map[string]float64 {
	var total int64
	by := make(map[string]int64)
	for _, s := range stacks {
		by[attribute(s.frames)] += s.nanos
		total += s.nanos
	}
	out := make(map[string]float64, len(by))
	if total == 0 {
		return out
	}
	for k, v := range by {
		out[k] = float64(v) / float64(total)
	}
	return out
}
