package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"asyncft/internal/wire"
)

var layerNames = [numLayers]string{"rbc", "acs", "ba", "weakcoin", "svss", "other"}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		session string
		want    int
	}{
		{"bench/abc/s/0/slot/17/rbc/2", layerRBC},
		{"bench/abc/s/0/slot/17/rbc/2/r/1/99", layerRBC}, // pull reply
		{"bench/fba/4/acast/3", layerRBC},
		{"bench/abc/s/3/slot/0/fp", layerACS},
		{"bench/abc/s/0/slot/5/cs/ba/1", layerBA},
		{"bench/fba/4/fc/cf/0/final", layerBA},
		{"bench/fba/4/cs/ba/2/wc/1", layerWeakcoin},
		{"bench/fba/4/cs/ba/2/wc/1/sh/0", layerSVSS},
		{"bench/fba/4/cs/ba/2/wc/1/sh/0/rec", layerSVSS},
		{"bench/fba/4/fc/cf/1/r/2/sh/3", layerSVSS},
		{"bench/fba/4/fc/cf/1/r/2/cs/ba/0", layerBA},
		{"mpc/prep/1/g/0/d/2/3", layerSVSS},
		{"mpc/mul/1/rec", layerSVSS},
		{"bench/abc/s/0/slot/5", layerOther},
		{"bench/abc/s/0/slot/5/cs", layerOther},
		{"sync/ledger/head", layerOther},
		{"", layerOther},
	} {
		if got := classify(tc.session); got != tc.want {
			t.Errorf("classify(%q) = %s, want %s", tc.session, layerNames[got], layerNames[tc.want])
		}
	}
}

// TestEveryLabelClassified reads the SubSession call sites under internal/
// and fails when one uses a label the classifier's table does not list, so
// a new sub-protocol cannot silently land in "other".
func TestEveryLabelClassified(t *testing.T) {
	call := regexp.MustCompile(`SubSession\(([^\n]*)\)`)
	literal := regexp.MustCompile(`^"([^"]+)"$`)
	seen := map[string]string{}
	root := filepath.Join("..", "internal")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Experiment drivers and analyzer fixtures name whole runs, not
			// sub-protocols.
			if name := d.Name(); name == "experiments" || name == "analysis" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range call.FindAllStringSubmatch(string(src), -1) {
			args := strings.Split(m[1], ",")
			for _, a := range args[1:] { // args[0] is the parent session
				a = strings.TrimSpace(a)
				a = strings.TrimRight(a, ")") // a call nested in an outer one
				if lm := literal.FindStringSubmatch(a); lm != nil {
					seen[lm[1]] = path
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) < 10 {
		t.Fatalf("found only %d labels under %s; the scan is broken", len(seen), root)
	}
	for label, path := range seen {
		if _, ok := labelLayer[label]; !ok {
			t.Errorf("label %q (%s) is missing from labelLayer", label, path)
		}
	}
}

type recordingSender struct {
	mu   sync.Mutex
	got  []wire.Envelope
	at   []time.Time
	done chan struct{}
	want int
}

func (r *recordingSender) Send(env wire.Envelope) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.got = append(r.got, env)
	r.at = append(r.at, time.Now())
	if len(r.got) == r.want {
		close(r.done)
	}
}

func TestDelaySenderHoldsAndKeepsOrder(t *testing.T) {
	const delay = 20 * time.Millisecond
	const perLink = 50
	inner := &recordingSender{done: make(chan struct{}), want: 2*perLink + 1}
	stop := make(chan struct{})
	d := newDelaySender(0, 3, inner, delay, stop)
	start := time.Now()
	d.Send(wire.Envelope{From: 0, To: 0, Type: 255}) // self: not delayed
	for i := 0; i < perLink; i++ {
		d.Send(wire.Envelope{From: 0, To: 1, Type: uint8(i)})
		d.Send(wire.Envelope{From: 0, To: 2, Type: uint8(i)})
	}
	select {
	case <-inner.done:
	case <-time.After(5 * time.Second):
		t.Fatal("delayed envelopes never came out")
	}
	close(stop)
	d.wait()
	inner.mu.Lock()
	defer inner.mu.Unlock()
	if inner.got[0].Type != 255 || inner.at[0].Sub(start) > delay/2 {
		t.Errorf("self-send was delayed: first out is type %d after %v", inner.got[0].Type, inner.at[0].Sub(start))
	}
	next := map[int]uint8{}
	for i, env := range inner.got[1:] {
		if env.Type != next[env.To] {
			t.Fatalf("link to %d: envelope %d came out when %d was due", env.To, env.Type, next[env.To])
		}
		next[env.To]++
		if held := inner.at[i+1].Sub(start); held < delay {
			t.Fatalf("envelope to %d released after %v, before the %v delay", env.To, held, delay)
		}
	}
}
