package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A reader for the one corner of the pprof format the CPU budget needs:
// the gzip'd profile.proto message's samples, locations, functions and
// string table (github.com/google/pprof/proto/profile.proto). It exists so
// the benchmark stays standard-library only.

var errProto = errors.New("malformed profile proto")

// protoBuf walks one protobuf message.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// field reads the next field: its number, and either its varint value or
// its length-delimited bytes. Fixed-width fields are skipped over and
// reported with neither.
func (p *protoBuf) field() (num int, val uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = p.varint()
	case 1:
		err = p.skip(8)
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, nil, errProto
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		err = p.skip(4)
	default:
		err = errProto
	}
	return num, val, data, err
}

func (p *protoBuf) skip(n int) error {
	if n > len(p.b) {
		return errProto
	}
	p.b = p.b[n:]
	return nil
}

// repeatedVarints appends a repeated integer field's values, whether it
// came packed (data) or as one plain varint (val).
func repeatedVarints(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	p := protoBuf{data}
	for len(p.b) > 0 {
		v, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// cpuSample is one profile sample: its call stack as function names, leaf
// first with inlined frames expanded, and its first value (the sample
// count of a CPU profile).
type cpuSample struct {
	stack []string
	count int64
}

// readProfile decodes a gzip'd pprof profile into its samples.
func readProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → string table index
		strs      []string
	)
	p := protoBuf{raw}
	for len(p.b) > 0 {
		num, _, data, err := p.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var s rawSample
			var values []uint64
			q := protoBuf{data}
			for len(q.b) > 0 {
				n, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					if s.locs, err = repeatedVarints(s.locs, v, d); err != nil {
						return nil, err
					}
				case 2:
					if values, err = repeatedVarints(values, v, d); err != nil {
						return nil, err
					}
				}
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			q := protoBuf{data}
			for len(q.b) > 0 {
				n, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					r := protoBuf{d}
					for len(r.b) > 0 {
						ln, lv, _, err := r.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			locFuncs[id] = funcs
		case 5: // Function
			var id, name uint64
			q := protoBuf{data}
			for len(q.b) > 0 {
				n, v, _, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		cs := cpuSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("%w: string index %d of %d", errProto, idx, len(strs))
				}
				cs.stack = append(cs.stack, strs[idx])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

const internalPrefix = "asyncft/internal/"

// Buckets a sample can land in besides the cpuLayers.
const (
	bucketGC      = "go_runtime.gc_cpu_share"
	bucketSyscall = "go_runtime.syscall_cpu_share"
	bucketRuntime = "go_runtime.other_cpu_share"
	bucketBench   = "bench.cpu_share"
)

// gcFrames mark a stack as garbage-collector work wherever they appear:
// background workers and the marking or sweeping an allocation was made to
// assist with.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkTermination",
	"runtime.sweepone", "runtime.(*mspan).sweep",
}

func isGCFrame(fn string) bool {
	for _, g := range gcFrames {
		if strings.HasPrefix(fn, g) {
			return true
		}
	}
	return false
}

func isSyscallFrame(fn string) bool {
	return strings.HasPrefix(fn, "syscall.") ||
		strings.HasPrefix(fn, "internal/runtime/syscall.") ||
		strings.HasPrefix(fn, "runtime/internal/syscall.")
}

// bucketOf assigns one stack to exactly one bucket, self-time style:
// collector work first; then kernel time (a raw system call at the leaf),
// whoever made the call; then the innermost frame that belongs to a
// package under internal/; then the benchmark's own frames (package main,
// and any internal package outside cpuLayers, which only probes reach);
// what is left is the Go runtime's scheduler, timers and netpoller.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if isGCFrame(fn) {
			return bucketGC
		}
	}
	if len(stack) > 0 && isSyscallFrame(stack[0]) {
		return bucketSyscall
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg := rest
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, l := range cpuLayers {
				if l == pkg {
					return l + ".cpu_share"
				}
			}
			return bucketBench
		}
		if strings.HasPrefix(fn, "main.") {
			return bucketBench
		}
	}
	return bucketRuntime
}

// cpuShares aggregates a gzip'd CPU profile into one share per bucket;
// every bucket is present and the shares sum to 1 (all zero for an empty
// profile).
func cpuShares(gz []byte) (map[string]float64, error) {
	shares := map[string]float64{bucketGC: 0, bucketSyscall: 0, bucketRuntime: 0, bucketBench: 0}
	for _, l := range cpuLayers {
		shares[l+".cpu_share"] = 0
	}
	samples, err := readProfile(gz)
	if err != nil {
		return nil, err
	}
	var total float64
	for _, s := range samples {
		shares[bucketOf(s.stack)] += float64(s.count)
		total += float64(s.count)
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, nil
}
