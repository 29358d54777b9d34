package main

import "time"

// Cluster shape shared by every workload: the smallest optimally resilient
// cluster, n = 3t+1 with t = 1.
const (
	numParties = 4
	numFaults  = 1
)

// warmup runs before every measured window and is excluded from all
// metrics: TCP links are dialed and pipelines warm by then.
const warmup = 2 * time.Second

// hopDelay is the one-way delay the open-loop ledger workloads on a healthy
// cluster inject on every hop (small_closed injects 2 ms, which keeps the
// process a third busy, and fba_closed 1 ms, which still leaves it 50
// decisions a window). With instant delivery a slot's time is processor
// time only: latency and goodput then follow the host's speed of the
// moment, which on a shared 2-core box wanders by a fifth within the hour.
const hopDelay = 5 * time.Millisecond

// workload is one named traffic mix. Everything the program under test sees
// is derived from these fields and the seed.
type workload struct {
	name string
	why  string // one line, also BENCHMARK.json's "why"

	fba bool // back-to-back core.FBA decisions instead of a ledger

	shards  int
	payload int           // bytes per op, including the 8-byte op id
	delay   time.Duration // one-way delay injected per hop
	crashed int           // party that is never started; -1 = none

	// Closed loop: clients callers, each submitting its next op when the
	// previous one is acked. Open loop (clients == 0): Poisson arrivals at
	// rate ops/s, timed from when each op was due.
	clients int
	rate    float64
}

func (w workload) closed() bool { return w.clients > 0 }

// live lists the parties that run.
func (w workload) live() []int {
	var ids []int
	for i := 0; i < numParties; i++ {
		if i != w.crashed {
			ids = append(ids, i)
		}
	}
	return ids
}

// workloads is the benchmark's fixed set, in BENCHMARK.json order.
var workloads = []workload{
	{
		name:   "small_closed",
		why:    "pipeline capacity: 1024 closed-loop clients keep batches full (64 ops x 4), so per-op codec, queue, ack, digest-chain and framing work dominates; 2 ms per hop",
		shards: 1, payload: 32, delay: 2 * time.Millisecond, crashed: -1, clients: 1024,
	},
	{
		name:   "sharded_open_delay",
		why:    "latency-bound multi-shard path: 4 shards at 2000 ops/s, 5 ms per hop, so hop counts and cross-session dispatch show and CPU does not",
		shards: 4, payload: 128, delay: hopDelay, crashed: -1, rate: 2000,
	},
	{
		name:   "large_open",
		why:    "byte-heavy dispersal: 4 KiB ops at 1000 ops/s take the coded rbc path (rs, SHA-256, field packing) that small ops bypass; 5 ms per hop",
		shards: 1, payload: 4096, delay: hopDelay, crashed: -1, rate: 1000,
	},
	{
		name:   "crash1_open",
		why:    "fault run: party 3 never starts, no slot is unanimous, every slot waits FastPathWait then runs CommonSubset and BCA; no injected delay",
		shards: 1, payload: 32, crashed: 3, rate: 400,
	},
	{
		name: "fba_closed",
		why:  "the paper's Algorithm 3 with the SVSS weak coin, one decision in flight, 1 ms per hop: svss, weakcoin, field, classic ba and core run only here",
		fba:  true, payload: 32, delay: time.Millisecond, crashed: -1, clients: 1,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
