package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// A minimal profile.proto writer for the test.

func putVarint(b *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func putVarintField(b *bytes.Buffer, num int, v uint64) {
	putVarint(b, uint64(num)<<3)
	putVarint(b, v)
}

func putBytesField(b *bytes.Buffer, num int, data []byte) {
	putVarint(b, uint64(num)<<3|2)
	putVarint(b, uint64(len(data)))
	b.Write(data)
}

func packed(vals ...uint64) []byte {
	var b bytes.Buffer
	for _, v := range vals {
		putVarint(&b, v)
	}
	return b.Bytes()
}

// synthProfile builds a gzip'd profile whose samples are the given stacks
// (leaf first), each with the given count. Every function gets its own
// location, except that inline lists two functions in one location.
func synthProfile(t *testing.T, stacks [][]string, counts []uint64) []byte {
	t.Helper()
	var prof bytes.Buffer
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	funcID := map[string]uint64{}
	for i, stack := range stacks {
		var locs []uint64
		for _, fn := range stack {
			id, ok := funcID[fn]
			if !ok {
				id = uint64(len(funcID) + 1)
				funcID[fn] = id
				var f bytes.Buffer
				putVarintField(&f, 1, id)
				putVarintField(&f, 2, intern(fn))
				putBytesField(&prof, 5, f.Bytes())
				var line bytes.Buffer
				putVarintField(&line, 1, id)
				var loc bytes.Buffer
				putVarintField(&loc, 1, id)
				putBytesField(&loc, 4, line.Bytes())
				putBytesField(&prof, 4, loc.Bytes())
			}
			locs = append(locs, id)
		}
		var s bytes.Buffer
		if i%2 == 0 {
			putBytesField(&s, 1, packed(locs...))
		} else {
			for _, l := range locs { // unpacked repeated field
				putVarintField(&s, 1, l)
			}
		}
		putBytesField(&s, 2, packed(counts[i], counts[i]*10_000_000))
		putBytesField(&prof, 2, s.Bytes())
	}
	for _, s := range strs {
		putBytesField(&prof, 6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestCPUSharesFromSyntheticProfile(t *testing.T) {
	stacks := [][]string{
		// innermost internal frame wins over outer ones
		{"crypto/sha256.block", "asyncft/internal/rbc.(*state).handle", "asyncft/internal/acs.startBroadcasts.func1"},
		// kernel time goes to the syscall bucket whoever called
		{"internal/runtime/syscall.Syscall6", "syscall.write", "asyncft/internal/transport.(*TCP).writeLoop"},
		// an allocation's assist is collector work
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc", "asyncft/internal/wire.(*Writer).Bytes"},
		{"runtime.gcBgMarkWorker.func2", "runtime.systemstack"},
		// the benchmark's own frames
		{"main.(*load).await", "main.(*load).runOpen.func1"},
		// scheduler
		{"runtime.futex", "runtime.findRunnable", "runtime.schedule"},
		{"asyncft/internal/runtime.(*Node).Dispatch", "main.(*boundary).handler.func1"},
	}
	counts := []uint64{30, 20, 10, 10, 5, 15, 10}
	shares, err := cpuShares(synthProfile(t, stacks, counts))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"rbc.cpu_share": 0.30, bucketSyscall: 0.20, bucketGC: 0.20,
		bucketBench: 0.05, bucketRuntime: 0.15, "runtime.cpu_share": 0.10,
	}
	var sum float64
	for name, got := range shares {
		sum += got
		if math.Abs(got-want[name]) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want[name])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if len(shares) != len(cpuLayers)+4 {
		t.Errorf("%d buckets, want one per layer plus four", len(shares))
	}
}

func TestCPUSharesRejectsGarbage(t *testing.T) {
	if _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Error("garbage decoded as a profile")
	}
	empty, err := cpuShares(synthProfile(t, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range empty {
		if v != 0 {
			t.Errorf("empty profile gave %s = %v", name, v)
		}
	}
}
