package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asyncft/internal/runtime"
	"asyncft/internal/wire"
)

// Layers an envelope can be charged to. The names are the package names
// under internal/ whose protocol owns the session the envelope travels on.
const (
	layerRBC = iota
	layerACS
	layerBA
	layerWeakcoin
	layerSVSS
	layerOther
	numLayers
)

// labelLayer maps every SubSession label used under internal/ to the layer
// that sends on sessions ending in it. Labels that only group children
// (a slot, a shard, a coin round) carry no traffic of their own and map to
// layerOther; classify never stops at them because a deeper label decides
// first. wrap_test.go fails when internal/ grows a label missing here.
var labelLayer = map[string]int{
	// reliable broadcast: acs slot broadcasts, FBA's A-Casts
	"rbc":   layerRBC,
	"acast": layerRBC,
	// acs fast-path confirmation round
	"fp": layerACS,
	// binary agreement instances (CommonSubset's and CoinFlip's final one)
	"ba":    layerBA,
	"final": layerBA,
	// weak coin ATTACH traffic
	"wc": layerWeakcoin,
	// SVSS share phases (coin rounds, weak coin, mpc/reconfig dealing) and
	// every reconstruction session (svss.RecSuffix)
	"sh":  layerSVSS,
	"d":   layerSVSS,
	"rec": layerSVSS,
	// grouping labels and layers the benchmark does not run
	"cs": layerOther, "slot": layerOther, "s": layerOther, "r": layerOther,
	"fc": layerOther, "cf": layerOther, "bit": layerOther, "e": layerOther,
	"re": layerOther, "prep": layerOther, "in": layerOther, "g": layerOther,
	"mul": layerOther, "out": layerOther, "pool": layerOther, "deal": layerOther,
	"reshare": layerOther, "check": layerOther, "open": layerOther,
	"open-r": layerOther, "open-ms": layerOther, "open-z": layerOther,
}

// classify charges a session to the layer of its innermost deciding label:
// …/slot/7/rbc/2 → rbc, …/rbc/2/r/1/99 (a pull reply) → rbc, …/fp → acs,
// …/cs/ba/3 → ba, …/ba/3/wc/1 → weakcoin, …/wc/1/sh/0 and …/sh/0/rec → svss.
func classify(session string) int {
	for end := len(session); end > 0; {
		start := strings.LastIndexByte(session[:end], '/') + 1
		if l, ok := labelLayer[session[start:end]]; ok && l != layerOther {
			return l
		}
		end = start - 1
	}
	return layerOther
}

// delaySender injects a fixed one-way delay on every non-self envelope: the
// workload's stand-in for a real network hop. Envelopes wait in one FIFO per
// destination, so per-link order is preserved exactly as TCP preserves it.
// Payloads are never touched after Send — the contract network.Router has.
type delaySender struct {
	self  int
	inner runtime.Sender
	delay time.Duration
	links []*delayLink
	wg    sync.WaitGroup
}

type delayedEnvelope struct {
	release time.Time
	env     wire.Envelope
}

type delayLink struct {
	mu     sync.Mutex
	queue  []delayedEnvelope
	notify chan struct{} // capacity 1; poked on enqueue
}

func newDelaySender(self, n int, inner runtime.Sender, delay time.Duration, stop <-chan struct{}) *delaySender {
	d := &delaySender{self: self, inner: inner, delay: delay, links: make([]*delayLink, n)}
	for to := 0; to < n; to++ {
		if to == self {
			continue
		}
		l := &delayLink{notify: make(chan struct{}, 1)}
		d.links[to] = l
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			l.pump(inner, stop)
		}()
	}
	return d
}

func (d *delaySender) Send(env wire.Envelope) {
	if env.To == d.self || env.To < 0 || env.To >= len(d.links) {
		d.inner.Send(env)
		return
	}
	l := d.links[env.To]
	l.mu.Lock()
	l.queue = append(l.queue, delayedEnvelope{release: time.Now().Add(d.delay), env: env})
	l.mu.Unlock()
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

// wait returns once every pump goroutine has exited (after stop closed).
func (d *delaySender) wait() { d.wg.Wait() }

func (l *delayLink) pump(inner runtime.Sender, stop <-chan struct{}) {
	var batch []delayedEnvelope
	for {
		l.mu.Lock()
		batch, l.queue = l.queue, batch[:0]
		l.mu.Unlock()
		if len(batch) == 0 {
			select {
			case <-l.notify:
				continue
			case <-stop:
				return
			}
		}
		for i := range batch {
			if d := time.Until(batch[i].release); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-stop:
					t.Stop()
					return
				}
			}
			inner.Send(batch[i].env)
			batch[i] = delayedEnvelope{}
		}
	}
}

// boundary times and classifies the two calls that cross between a party's
// protocol stack and its transport: Sender.Send going out and the Dispatch
// handler coming in. One boundary is shared by all parties of a cluster, so
// its counters are cluster totals. It is only installed in traced runs;
// untraced runs hand the transport and node.Dispatch over directly.
type boundary struct {
	msgs  [numLayers]atomic.Uint64
	bytes [numLayers]atomic.Uint64

	sendBusyNs     atomic.Int64 // non-self Send calls only (self-sends run Dispatch inline)
	dispatchCalls  atomic.Uint64
	dispatchBusyNs atomic.Int64
}

type boundarySender struct {
	b     *boundary
	self  int
	inner runtime.Sender
}

func (s *boundarySender) Send(env wire.Envelope) {
	l := classify(env.Session)
	s.b.msgs[l].Add(1)
	s.b.bytes[l].Add(uint64(wire.EnvelopeSize(env)))
	if env.To == s.self {
		s.inner.Send(env)
		return
	}
	t0 := time.Now()
	s.inner.Send(env)
	s.b.sendBusyNs.Add(int64(time.Since(t0)))
}

func (b *boundary) handler(inner func(wire.Envelope)) func(wire.Envelope) {
	return func(env wire.Envelope) {
		t0 := time.Now()
		inner(env)
		b.dispatchBusyNs.Add(int64(time.Since(t0)))
		b.dispatchCalls.Add(1)
	}
}

// boundarySnap is a point-in-time copy of a boundary's counters.
type boundarySnap struct {
	msgs, bytes    [numLayers]uint64
	sendBusyNs     int64
	dispatchCalls  uint64
	dispatchBusyNs int64
}

func (b *boundary) snapshot() boundarySnap {
	var s boundarySnap
	if b == nil {
		return s
	}
	for l := 0; l < numLayers; l++ {
		s.msgs[l] = b.msgs[l].Load()
		s.bytes[l] = b.bytes[l].Load()
	}
	s.sendBusyNs = b.sendBusyNs.Load()
	s.dispatchCalls = b.dispatchCalls.Load()
	s.dispatchBusyNs = b.dispatchBusyNs.Load()
	return s
}

func (s boundarySnap) sub(o boundarySnap) boundarySnap {
	for l := 0; l < numLayers; l++ {
		s.msgs[l] -= o.msgs[l]
		s.bytes[l] -= o.bytes[l]
	}
	s.sendBusyNs -= o.sendBusyNs
	s.dispatchCalls -= o.dispatchCalls
	s.dispatchBusyNs -= o.dispatchBusyNs
	return s
}
