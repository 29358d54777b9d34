package main

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"asyncft/internal/shard"
)

// numStreams client stream ids are drawn per run; ops pick one uniformly,
// and shard.Route spreads the streams over the shards.
const numStreams = 1024

// ackTimeout is how long after the window's end an op may still be acked
// before it counts as failed.
const ackTimeout = 10 * time.Second

// Outcome of one op.
const (
	opPending  uint8 = iota
	opAcked          // committed; pos is valid
	opRejected       // refused at admission (shard.ErrOverloaded)
	opFailed         // admitted but never committed, or no ack in time
)

// opRec is one client operation. Times are nanoseconds since the load
// started. id is carried in the first 8 payload bytes.
type opRec struct {
	id            uint64
	due, sub, ack int64
	pos           shard.Pos
	party         uint8
	state         uint8
}

// latencyNs is what the client waited: from when the op was due (open
// loop; due == sub in a closed loop) to its ack.
func (o *opRec) latencyNs() int64 { return o.ack - o.due }

// recSlab hands out op records that never move, in chunks, so collectors
// can hold pointers while a closed loop keeps creating ops.
type recSlab struct{ chunks [][]opRec }

const (
	slabChunk = 1 << 16
	opRecSize = int64(unsafe.Sizeof(opRec{}))
)

// slabBytes counts record memory allocated by closed loops, so the heap
// metric can leave the benchmark's own bookkeeping out.
var slabBytes atomic.Int64

func (s *recSlab) next() *opRec {
	n := len(s.chunks)
	if n == 0 || len(s.chunks[n-1]) == slabChunk {
		s.chunks = append(s.chunks, make([]opRec, 0, slabChunk))
		slabBytes.Add(slabChunk * opRecSize)
		n++
	}
	c := &s.chunks[n-1]
	*c = append(*c, opRec{})
	return &(*c)[len(*c)-1]
}

// loadPlan is everything the seed decides about a ledger run.
type loadPlan struct {
	seed    int64
	streams [][]byte
	pad     []byte   // payload filler after the 8-byte op id
	due     []int64  // open loop: arrival offsets over warm-up + window
	stream  []uint16 // open loop: stream of each arrival
}

// poissonSchedule draws arrival offsets of a Poisson process of the given
// rate over span, from rng. A fixed interval would phase-lock with the slot
// pipeline and make the median bimodal.
func poissonSchedule(rng *rand.Rand, rate float64, span time.Duration) []int64 {
	var due []int64
	t := 0.0
	limit := span.Seconds()
	for {
		t += -math.Log(1-rng.Float64()) / rate
		if t >= limit {
			return due
		}
		due = append(due, int64(t*1e9))
	}
}

func newLoadPlan(w workload, seed int64, span time.Duration) *loadPlan {
	rng := rand.New(rand.NewSource(seed))
	p := &loadPlan{seed: seed, streams: make([][]byte, numStreams), pad: make([]byte, w.payload-8)}
	for i := range p.streams {
		p.streams[i] = make([]byte, 8)
		binary.BigEndian.PutUint64(p.streams[i], rng.Uint64())
	}
	rng.Read(p.pad)
	if !w.closed() {
		p.due = poissonSchedule(rng, w.rate, span)
		p.stream = make([]uint16, len(p.due))
		for i := range p.stream {
			p.stream[i] = uint16(rng.Intn(numStreams))
		}
	}
	return p
}

// opID reads the op id out of a committed payload; probe ops and anything
// else too short carry none.
func opID(payload []byte) (uint64, bool) {
	if len(payload) < 8 {
		return 0, false
	}
	return binary.BigEndian.Uint64(payload), true
}

// inflight is an admitted op waiting for its ack.
type inflight struct {
	op   *opRec
	done <-chan shard.SubmitResult
}

// load drives one ledger cluster and owns the op records.
type load struct {
	c     *cluster
	plan  *loadPlan
	start time.Time
	// halt sets haltedAt (ns since start, 0 = running): no op due later is
	// submitted, and acks are awaited until expired closes, ackTimeout
	// later.
	haltedAt atomic.Int64
	expired  chan struct{}

	ops   []opRec    // open loop: one per scheduled arrival, preallocated
	slabs []*recSlab // closed loop: one per party
	ids   atomic.Uint64
}

// ackQueueCap bounds one (party, shard) ack FIFO. The engine admits at most
// its QueueCap (1024) ops per shard before rejecting, so the FIFO never
// fills.
const ackQueueCap = 2048

func (l *load) sinceStart(t time.Time) int64 { return int64(t.Sub(l.start)) }

// each visits every op record.
func (l *load) each(f func(*opRec)) {
	for i := range l.ops {
		f(&l.ops[i])
	}
	for _, s := range l.slabs {
		if s == nil {
			continue
		}
		for _, c := range s.chunks {
			for i := range c {
				f(&c[i])
			}
		}
	}
}

// count is the number of op records, which is also one more than the
// highest op id.
func (l *load) count() int {
	n := 0
	l.each(func(*opRec) { n++ })
	return n
}

// submit hands op to its party's engine. It returns the ack channel, or nil
// when the op was refused at admission (state is set then). buf is the
// payload scratch; the engine copies it.
func (l *load) submit(op *opRec, stream, buf []byte) <-chan shard.SubmitResult {
	binary.BigEndian.PutUint64(buf, op.id)
	op.sub = l.sinceStart(time.Now())
	done, err := l.c.parties[op.party].eng.SubmitAsync(stream, buf)
	switch {
	case err == nil:
		return done
	case errors.Is(err, shard.ErrOverloaded):
		op.state = opRejected
	default:
		op.state = opFailed
	}
	return nil
}

// await blocks for f's ack until the drain deadline and records it.
func (l *load) await(f inflight) {
	select {
	case r := <-f.done:
		f.op.ack = l.sinceStart(time.Now())
		if r.Err != nil {
			f.op.state = opFailed
			return
		}
		f.op.pos = r.Pos
		f.op.state = opAcked
	case <-l.expired:
		f.op.state = opFailed
	}
}

// runOpen submits the plan's arrivals on schedule from one goroutine. Acks
// are read by one collector per (party, shard) in submission order — a
// shard acks one party's ops in the order it admitted them, so reading in
// that order stamps each ack as it arrives without a goroutine per op.
func (l *load) runOpen() {
	w := l.c.w
	queues := make(map[[2]int]chan inflight)
	var collectors sync.WaitGroup
	for _, id := range l.c.live {
		for s := 0; s < w.shards; s++ {
			q := make(chan inflight, ackQueueCap)
			queues[[2]int{id, s}] = q
			collectors.Add(1)
			go func() {
				defer collectors.Done()
				for f := range q {
					l.await(f)
				}
			}()
		}
	}
	buf := make([]byte, w.payload)
	copy(buf[8:], l.plan.pad)
	for i := range l.ops {
		op := &l.ops[i]
		sleepUntil(l.start.Add(time.Duration(op.due)))
		if h := l.haltedAt.Load(); h != 0 && op.due >= h {
			break
		}
		stream := l.plan.streams[l.plan.stream[i]]
		done := l.submit(op, stream, buf)
		if done != nil {
			queues[[2]int{int(op.party), shard.Route(stream, w.shards)}] <- inflight{op: op, done: done}
		}
	}
	for _, q := range queues {
		close(q)
	}
	collectors.Wait()
}

// runClosed runs the workload's clients, split evenly over the live
// parties. One goroutine per party plays all of that party's clients: it
// submits one op per client, then submits a client's next op each time an
// ack arrives, until halted. The closed-loop workload has one shard, so
// acks arrive in submission order and the FIFO read stamps them on arrival.
// A client whose op is refused at admission retires; that shows as a failed
// op, and the clients are far fewer than the admission queue holds.
func (l *load) runClosed() {
	w := l.c.w
	perParty := w.clients / len(l.c.live)
	l.slabs = make([]*recSlab, numParties)
	var wg sync.WaitGroup
	for _, id := range l.c.live {
		id := id
		slab := &recSlab{}
		l.slabs[id] = slab
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(l.plan.seed*1000003 + int64(id)))
			buf := make([]byte, w.payload)
			copy(buf[8:], l.plan.pad)
			fifo := make(chan inflight, perParty)
			submit := func() {
				op := slab.next()
				op.id = l.ids.Add(1) - 1
				op.party = uint8(id)
				done := l.submit(op, l.plan.streams[rng.Intn(numStreams)], buf)
				op.due = op.sub
				if done != nil {
					fifo <- inflight{op: op, done: done}
				}
			}
			for i := 0; i < perParty; i++ {
				submit()
			}
			for len(fifo) > 0 {
				l.await(<-fifo)
				if l.haltedAt.Load() == 0 {
					submit()
				}
			}
		}()
	}
	wg.Wait()
}

// newLoad prepares the load for cluster c, starting now. An open loop's
// schedule covers span; a closed loop runs until halted.
func newLoad(c *cluster, seed int64, span time.Duration) *load {
	l := &load{c: c, plan: newLoadPlan(c.w, seed, span), expired: make(chan struct{})}
	l.ops = make([]opRec, len(l.plan.due))
	for i := range l.ops {
		l.ops[i] = opRec{id: uint64(i), due: l.plan.due[i], party: uint8(c.live[i%len(c.live)])}
	}
	l.start = time.Now()
	return l
}

// halt ends submission and starts the drain timeout.
func (l *load) halt() {
	l.haltedAt.Store(l.sinceStart(time.Now()))
	time.AfterFunc(ackTimeout, func() { close(l.expired) })
}

// run drives the load to completion: the schedule is exhausted or the load
// halted, and every admitted op is acked or timed out.
func (l *load) run() {
	if l.c.w.closed() {
		l.runClosed()
	} else {
		l.runOpen()
	}
}
