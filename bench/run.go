package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"
)

// Counters read from every party's registry at the window's edges; a
// snapshot holds each one summed over parties and label values.
var summedCounters = []string{
	"transport_frames_out_total", "transport_bytes_out_total", "transport_flush_batches_total",
	"runtime_sessions_total",
	"rbc_deliveries_total", "rbc_pulls_sent_total", "rbc_reconstruct_failures_total",
	"acs_fastpath_hits_total", "acs_fastpath_fallbacks_total",
	"ba_rounds_total", "ba_decisions_total", "ba_coin_invocations_total",
	"shard_requeued_total", "serve_rejected_total", "serve_accepted_total",
}

// sum adds up a registry family over all live parties; label "" takes every
// label value, otherwise only that one.
func (c *cluster) sum(name, label string) float64 {
	var total float64
	for _, id := range c.live {
		vals, _ := c.parties[id].reg.Snapshot(name)
		for l, v := range vals {
			if label == "" || l == label {
				total += v
			}
		}
	}
	return total
}

// maxGauge is the largest value of a gauge family over parties and labels.
func (c *cluster) maxGauge(name string) float64 {
	var max float64
	for _, id := range c.live {
		vals, _ := c.parties[id].reg.Snapshot(name)
		for _, v := range vals {
			if v > max {
				max = v
			}
		}
	}
	return max
}

// slots is the number of logical slots committed so far: ledger slots at
// the first live party over all shards, or FBA decisions.
func (c *cluster) slots() int {
	if c.w.fba {
		return int(c.decisions.Load())
	}
	n := 0
	for s := 0; s < c.w.shards; s++ {
		n += c.parties[c.live[0]].eng.Store(s).Next()
	}
	return n
}

// snap is the process and cluster state at one edge of the window.
type snap struct {
	at       time.Time
	cpu      time.Duration
	mallocs  uint64
	slots    int
	counters map[string]float64
	coded    float64 // rbc_deliveries_total{mode="coded"}
	bdry     boundarySnap
}

func (c *cluster) snapshot() snap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snap{
		at: time.Now(), cpu: processCPU(), mallocs: ms.Mallocs, slots: c.slots(),
		counters: make(map[string]float64, len(summedCounters)),
		coded:    c.sum("rbc_deliveries_total", "coded"),
		bdry:     c.bdry.snapshot(),
	}
	for _, name := range summedCounters {
		s.counters[name] = c.sum(name, "")
	}
	return s
}

// heapPoint is the live heap right after a forced collection, with the
// slot count at that moment and the benchmark's own record memory.
type heapPoint struct {
	alloc uint64
	slots int
	slab  int64
}

func (c *cluster) heapPoint() heapPoint {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapPoint{alloc: ms.HeapAlloc, slots: c.slots(), slab: slabBytes.Load()}
}

// sample is one measured op: due inside the window.
type sample struct {
	latencyNs int64 // valid iff acked
	acked     bool
	op        *opRec // nil in the fba workload
}

// measurement is what one window yields before metrics are derived.
type measurement struct {
	c     *cluster
	start time.Time // load start; op times count from here
	// The window as measured: [winStart, winEnd) in ns since start.
	winStart, winEnd int64

	before, after   snap
	heapA, heapB    heapPoint
	samples         []sample
	ackedInWindow   int
	late            []int64 // open loop: generator lateness of measured ops
	queueDepthMax   int64   // traced runs: sampled shard_queue_depth peak
	gcPauseMaxNs    uint64
	goroutinesAtEnd int
	profile         []byte // traced runs: gzip'd CPU profile of the window

	load *load    // ledger workloads
	fba  []fbaRec // fba workload
}

// gcLead is how long before the window the heap baseline's forced
// collection starts, so that it is over when the window opens.
const gcLead = 400 * time.Millisecond

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// measure drives c through a warm-up of length warm and one window, and
// checks the outputs. With traced set it also profiles the window and
// samples queue depths.
func measure(c *cluster, seed int64, warm, window time.Duration, traced bool) (*measurement, error) {
	m := &measurement{c: c}
	var drvErr error
	var halt func()
	done := make(chan struct{})
	if c.w.fba {
		var stopped atomic.Bool
		halt = func() { stopped.Store(true) }
		m.start = time.Now()
		go func() {
			defer close(done)
			m.fba, drvErr = runFBA(c, seed, m.start, &stopped)
		}()
	} else {
		// The schedule runs a second past the nominal window so that load
		// is still arriving when the closing snapshot is taken.
		m.load = newLoad(c, seed, warm+window+time.Second)
		halt = m.load.halt
		m.start = m.load.start
		go func() {
			defer close(done)
			m.load.run()
		}()
	}

	sleepUntil(m.start.Add(warm - gcLead))
	m.heapA = c.heapPoint()
	sleepUntil(m.start.Add(warm))

	var prof bytes.Buffer
	windowOver := make(chan struct{})
	depthDone := make(chan struct{})
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			halt()
			<-done
			return nil, err
		}
		go func() {
			defer close(depthDone)
			m.sampleQueueDepth(windowOver)
		}()
	} else {
		close(depthDone)
	}
	m.before = c.snapshot()
	sleepUntil(m.before.at.Add(window))
	m.after = c.snapshot()
	close(windowOver)
	if traced {
		pprof.StopCPUProfile()
		m.profile = prof.Bytes()
	}
	m.goroutinesAtEnd = runtime.NumGoroutine()
	halt()
	m.heapB = c.heapPoint()
	<-done
	<-depthDone
	m.winStart = int64(m.before.at.Sub(m.start))
	m.winEnd = int64(m.after.at.Sub(m.start))
	m.gcPauseMaxNs = maxGCPause(m.before.at, m.after.at)

	if drvErr != nil {
		return nil, drvErr
	}
	if c.w.fba {
		if err := checkFBA(m.fba); err != nil {
			return nil, err
		}
		for i := range m.fba {
			r := &m.fba[i]
			if !r.timedOut && r.end >= m.winStart && r.end < m.winEnd {
				m.ackedInWindow++
			}
			if r.start >= m.winStart && r.start < m.winEnd {
				m.samples = append(m.samples, sample{latencyNs: r.end - r.start, acked: !r.timedOut})
			}
		}
		return m, nil
	}
	if err := settle(c.ctx, c, m.load); err != nil {
		return nil, err
	}
	if err := checkLedger(c, m.load); err != nil {
		return nil, err
	}
	m.load.each(func(op *opRec) {
		if op.state == opAcked && op.ack >= m.winStart && op.ack < m.winEnd {
			m.ackedInWindow++
		}
		if op.due < m.winStart || op.due >= m.winEnd {
			return
		}
		m.samples = append(m.samples, sample{latencyNs: op.latencyNs(), acked: op.state == opAcked, op: op})
		if !c.w.closed() && op.state != opPending {
			m.late = append(m.late, op.sub-op.due)
		}
	})
	return m, nil
}

// ops visits every op of the run as (due, ack, acked), ledger or fba.
func (m *measurement) ops(f func(due, ack int64, acked bool)) {
	for i := range m.fba {
		f(m.fba[i].start, m.fba[i].end, !m.fba[i].timedOut)
	}
	if m.load != nil {
		m.load.each(func(op *opRec) { f(op.due, op.ack, op.state == opAcked) })
	}
}

// head is the median latency and the goodput over the first d of the
// window: what a shorter window on the same cluster would have measured.
func (m *measurement) head(d time.Duration) (p50ms, goodput float64) {
	from, to := m.winStart, m.winStart+int64(d)
	var lat []int64
	ackedIn := 0
	m.ops(func(due, ack int64, acked bool) {
		if !acked {
			return
		}
		if ack >= from && ack < to {
			ackedIn++
		}
		if due >= from && due < to {
			lat = append(lat, ack-due)
		}
	})
	return percentile(nsToMs(lat), 50), float64(ackedIn) / d.Seconds()
}

// sampleQueueDepth polls the admission queues' depth gauge until the window
// is over; the gauge is instantaneous, so a peak needs sampling.
func (m *measurement) sampleQueueDepth(windowOver <-chan struct{}) {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if d := int64(m.c.maxGauge("shard_queue_depth")); d > m.queueDepthMax {
			m.queueDepthMax = d
		}
		select {
		case <-tick.C:
		case <-windowOver:
			return
		}
	}
}

// maxGCPause is the longest stop-the-world pause that ended in [from, to).
func maxGCPause(from, to time.Time) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var max uint64
	n := len(ms.PauseNs)
	for i := 0; i < n && uint32(i) < ms.NumGC; i++ {
		idx := (int(ms.NumGC) - 1 - i + n) % n
		end := time.Unix(0, int64(ms.PauseEnd[idx]))
		if end.Before(from) {
			break
		}
		if end.Before(to) && ms.PauseNs[idx] > max {
			max = ms.PauseNs[idx]
		}
	}
	return max
}

// latenciesMs returns the measured ops' latencies, sorted, in milliseconds,
// and how many measured ops were never acked.
func (m *measurement) latenciesMs() (ms []float64, failed int) {
	var lat []int64
	for _, s := range m.samples {
		if s.acked {
			lat = append(lat, s.latencyNs)
		} else {
			failed++
		}
	}
	return nsToMs(lat), failed
}

// endToEnd derives the end-to-end metrics of one window. setupS is the
// median set-up time of the run.
func (m *measurement) endToEnd(setupS float64) (metrics map[string]float64, attempted, failed int) {
	ms, failed := m.latenciesMs()
	secs := m.after.at.Sub(m.before.at).Seconds()
	acked := float64(m.ackedInWindow)
	heap := float64(m.heapB.alloc) - float64(m.heapA.alloc) - float64(m.heapB.slab-m.heapA.slab)
	return map[string]float64{
		"setup_s":           setupS,
		"goodput_ops_s":     acked / secs,
		"latency_p50_ms":    percentile(ms, 50),
		"latency_mean_ms":   mean(ms),
		"allocs_per_op":     ratio(float64(m.after.mallocs-m.before.mallocs), acked),
		"wire_bytes_per_op": ratio(m.delta("transport_bytes_out_total"), acked),
		"heap_kb_per_slot":  ratio(heap/1024, float64(m.heapB.slots-m.heapA.slots)),
	}, len(m.samples), failed
}

// delta is a summed counter's growth over the window.
func (m *measurement) delta(name string) float64 {
	return m.after.counters[name] - m.before.counters[name]
}

// setUps is how many times a run sets the cluster up; setup_s is their
// median and the last cluster is the one measured.
const setUps = 5

// result is one run's outcome in the contract's shape.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runUntraced is the end-to-end run: set up setUps times, measure one
// window on the last cluster with tracing off, wrappers absent and no
// profile. The measured cluster is left running: the caller exits, and
// closing a cluster with a crashed peer waits out the transport's 2 s
// flush grace.
func runUntraced(w workload, seed int64, window time.Duration) (map[string]float64, int, int, error) {
	var c *cluster
	var times []float64
	for i := 0; i < setUps; i++ {
		if c != nil {
			c.close()
		}
		// Every set-up starts on a collected heap, whatever the last
		// cluster's teardown left behind.
		runtime.GC()
		var d time.Duration
		var err error
		if c, d, err = setUp(w, seed, false); err != nil {
			return nil, 0, 0, err
		}
		times = append(times, d.Seconds())
	}
	m, err := measure(c, seed, warmup, window, false)
	if err != nil {
		return nil, 0, 0, err
	}
	metrics, attempted, failed := m.endToEnd(median(times))
	return metrics, attempted, failed, nil
}

// runTraced is the per-layer run: the isolated layer probes, then a full
// window with the span recorder, the boundary wrappers and a CPU profile
// on. Tracing overhead is taken against an untraced reference run a quarter
// as long, made in a child process so that both clusters start on a fresh
// heap. Like runUntraced it leaves the measured cluster running.
func runTraced(w workload, seed int64, seconds int, outDir string) (map[string]float64, int, int, error) {
	// Probes go first, while the process is still small: a cluster leaves
	// gigabytes of heap and tens of thousands of goroutines behind, and a
	// probe run after it would measure the collector.
	probes := runProbes()
	refSeconds := (seconds + 3) / 4
	ref, err := runChild(w, seed, refSeconds, false, false)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("reference run: %w", err)
	}

	c, _, err := setUp(w, seed, true)
	if err != nil {
		return nil, 0, 0, err
	}
	m, err := measure(c, seed, warmup, time.Duration(seconds)*time.Second, true)
	if err != nil {
		return nil, 0, 0, err
	}
	layers, err := m.perLayer()
	if err != nil {
		return nil, 0, 0, err
	}
	// The traced window's first stretch against the reference window of the
	// same length: clusters of the same age, since latency drifts up as a
	// cluster accumulates sessions.
	p50, goodput := m.head(time.Duration(refSeconds) * time.Second)
	layers["trace.overhead_p50_ratio"] = ratio(p50, ref.Metrics["latency_p50_ms"].Value)
	layers["trace.overhead_goodput_ratio"] = ratio(goodput, ref.Metrics["goodput_ops_s"].Value)
	if outDir != "" {
		if err := m.writeTrace(outDir); err != nil {
			return nil, 0, 0, err
		}
	}
	for name, v := range probes {
		layers[name] = v
	}
	_, failed := m.latenciesMs()
	return layers, len(m.samples), failed, nil
}
