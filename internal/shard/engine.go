package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"asyncft/internal/acs"
	"asyncft/internal/core"
	"asyncft/internal/obs"
	"asyncft/internal/runtime"
	"asyncft/internal/statesync"
)

// ErrOverloaded is the backpressure signal: the target shard's admission
// queue is full. The op was NOT admitted; the client should retry later.
// The serving plane maps it to HTTP 429.
var ErrOverloaded = errors.New("shard: queue full")

// ErrFinished reports a submission against an engine whose run already
// completed (all slots committed): no future slot can carry the op.
var ErrFinished = errors.New("shard: run finished")

// ErrUncommitted reports an admitted op whose engine ran out of slots
// before the op landed in a committed batch. The op is NOT on the ledger;
// an at-least-once client may resubmit against a new run.
var ErrUncommitted = errors.New("shard: run ended before op committed")

// Options configure an Engine. Shards, Slots, Width, Session, the Core
// protocol configuration and whether Input is set must be identical at
// every party of the run; From, Sync and the serving knobs (QueueCap,
// MaxOps, DrainWait) are party-local.
type Options struct {
	// Session roots the run; shard s runs under SubSession(Session, "s", s).
	Session string
	// Shards is the number of independent ledger shards S (≥ 1).
	Shards int
	// Slots is the number of slots each shard runs.
	Slots int
	// From is this party's start cursor, in [0, Slots): a restarted
	// replica runs slots [From, Slots) live while, per shard, state
	// transfer from its peers installs the prefix [0, From) it missed —
	// concurrently, and both must finish before Run returns. 0 is a
	// replica that was there from the start.
	From int
	// Input, when non-nil, supplies this party's batch for slot k of every
	// shard in place of the admission queue (which then admits nothing):
	// the ledger carries the returned bytes verbatim. Nil batches
	// contribute nothing. It is called at slot admission, concurrently for
	// the slots and shards in flight.
	Input func(slot int) []byte
	// Width bounds each shard's slot pipeline (0 = all slots at once).
	// Serving deployments want a small bound (e.g. 2): slots admitted
	// later drain ops submitted later, which is what keeps acks flowing.
	// It is also the distance that counts as pipelining rather than
	// lagging: a slot is retired once a quorum is more than Width past it
	// (see Engine.retire), so a run with Width 0 retires nothing.
	Width int
	// QueueCap bounds each shard's admission queue (queued + in-flight
	// ops); a full queue rejects with ErrOverloaded. Default 1024.
	QueueCap int
	// MaxOps bounds the ops drained into one slot batch. Default 64,
	// capped at MaxOpsPerBatch; batches are additionally bounded by
	// acs.MaxPayloadSize in bytes.
	MaxOps int
	// DrainWait is how long, from its admission, a slot whose shard queue
	// is empty waits for an op to arrive before contributing an empty
	// batch — the serving pacing knob. 0 means the 50ms default; negative
	// disables waiting.
	DrainWait time.Duration
	// OnSlotCommit, when non-nil, observes every committed slot (in slot
	// order per shard) with its flattened op list — the hook scenario
	// tests report progress through. Called from the shard's watcher
	// goroutine; keep it fast.
	OnSlotCommit func(shard, slot int, ops []Op)
	// Core is the protocol configuration. FastPath (and with it the BCA
	// agreement engine and guided coins) is forced on: it is the fastest
	// sound slot path, and the one every ledger run takes.
	Core core.Config
	// Sync tunes state transfer: the snapshot server every shard runs out
	// of its store, and this party's catch-up — of the prefix below From,
	// and of whatever a quorum committed while it was behind.
	Sync statesync.Options
}

func (o Options) withDefaults() Options {
	if o.QueueCap <= 0 {
		o.QueueCap = 1024
	}
	if o.MaxOps <= 0 {
		o.MaxOps = 64
	}
	if o.MaxOps > MaxOpsPerBatch {
		o.MaxOps = MaxOpsPerBatch
	}
	if o.DrainWait == 0 {
		o.DrainWait = 50 * time.Millisecond
	}
	o.Core.FastPath = true
	return o
}

// SubmitResult is the outcome of one admitted submission.
type SubmitResult struct {
	// Pos is the op's committed position (valid iff Err is nil).
	Pos Pos
	// Err is ErrUncommitted (or a cancellation) when the run ended
	// without committing the op.
	Err error
}

// pending is one admitted op waiting for its committed position.
type pending struct {
	op       Op
	slot     int // slot currently carrying the op; -1 while queued
	enqueued time.Time
	done     chan SubmitResult // buffered(1); exactly one send, ever
}

// shardState is one shard's serving-side state: the bounded admission
// queue, the in-flight map keyed by (origin, seq), and the scan cursor
// the commit watcher advances over the shard's store.
type shardState struct {
	idx   int
	sess  string
	store *acs.Store
	// srv serves the store to lagging peers and tracks the cursors the
	// peers announce: what retire and catchUp decide on.
	srv *statesync.Server

	mu       sync.Mutex
	queue    []*pending
	inflight map[[2]int]*pending
	scanned  int // slots [0, scanned) have been flattened and acked
	// turn is the lowest slot that has not taken its batch yet: slots
	// drain the queue in slot order. turned is closed and replaced when it
	// moves.
	turn   int
	turned chan struct{}

	closed bool // the run's final sweep passed; nothing is admitted after it

	arrival chan struct{} // capacity 1; poked on enqueue

	committed *obs.Counter // shard_slots_committed{shard}
	opsTotal  *obs.Counter // shard_ops_committed_total{shard}
	depth     *obs.Gauge   // shard_queue_depth{shard}
}

// Engine runs S independent ledger shards over one party's environment
// and serves client submissions into them. One Engine per party; all
// parties must run engines with identical cluster-wide Options.
type Engine struct {
	env *runtime.Env
	o   Options

	shards []*shardState

	mu  sync.Mutex
	seq int

	finished chan struct{}

	accepted *obs.Counter   // serve_accepted_total
	rejected *obs.Counter   // serve_rejected_total
	requeued *obs.Counter   // shard_requeued_total
	latency  *obs.Histogram // serve_submit_commit_seconds
}

// New builds the engine (no goroutines yet; call Run).
func New(env *runtime.Env, o Options) (*Engine, error) {
	if o.Shards < 1 {
		return nil, fmt.Errorf("shard: need Shards ≥ 1, got %d", o.Shards)
	}
	if o.Slots < 1 {
		return nil, fmt.Errorf("shard: need Slots ≥ 1, got %d", o.Slots)
	}
	if o.From < 0 || o.From >= o.Slots {
		return nil, fmt.Errorf("shard: need 0 ≤ From < Slots, got %d", o.From)
	}
	if o.Session == "" {
		return nil, fmt.Errorf("shard: empty session")
	}
	o = o.withDefaults()
	reg := o.Core.Metrics
	e := &Engine{
		env:      env,
		o:        o,
		finished: make(chan struct{}),
		accepted: reg.Counter("serve_accepted_total", "client ops admitted by the serving plane"),
		rejected: reg.Counter("serve_rejected_total", "client ops rejected with backpressure (queue full)"),
		requeued: reg.Counter("shard_requeued_total", "admitted ops re-proposed after their slot committed without them"),
		latency:  reg.Histogram("serve_submit_commit_seconds", "submit-to-commit latency of acked ops", nil),
	}
	slotsVec := reg.CounterVec("shard_slots_committed", "slots committed per shard", "shard")
	opsVec := reg.CounterVec("shard_ops_committed_total", "client ops committed per shard", "shard")
	depthVec := reg.GaugeVec("shard_queue_depth", "admission queue depth per shard", "shard")
	for s := 0; s < o.Shards; s++ {
		sess, store := Session(o.Session, s), acs.NewStore()
		e.shards = append(e.shards, &shardState{
			idx:       s,
			sess:      sess,
			store:     store,
			srv:       statesync.NewServer(env, sess, store, o.Sync),
			inflight:  make(map[[2]int]*pending),
			turn:      o.From,
			turned:    make(chan struct{}),
			arrival:   make(chan struct{}, 1),
			committed: slotsVec.WithIndex(s),
			opsTotal:  opsVec.WithIndex(s),
			depth:     depthVec.WithIndex(s),
		})
	}
	return e, nil
}

// Session names shard s's atomic-broadcast session under root — the one
// place the naming convention lives (statesync servers, adversarial
// session-targeted tests and the engine must agree on it).
func Session(root string, s int) string {
	return runtime.SubSession(root, "s", s)
}

// Shards returns the configured shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Store returns shard s's slot store — the statesync serving surface and
// the bit-identity witness tests compare across parties.
func (e *Engine) Store(s int) *acs.Store { return e.shards[s].store }

// Ledger returns shard s's deduplicated committed ledger.
func (e *Engine) Ledger(s int) []acs.Entry { return e.shards[s].store.Ledger() }

// Run executes all shards to completion: per shard, a snapshot server
// over the shard's store, the acs.RunFrom pipeline of slots [From, Slots),
// state transfer of whatever this party is behind on, the release of
// slots a quorum holds, and a commit watcher that acks submissions as
// their slots commit. It returns when every shard holds all its slots
// (nil) or any shard failed (the first error; the rest are cancelled).
// Pending submissions that no slot committed resolve with ErrUncommitted.
//
// ctx bounds the run; helperCtx (the cluster-lifetime context) keeps
// broadcast and coin helpers alive for slower peers, as everywhere else —
// until their slot is retired — and the snapshot servers with them, so
// lagging and resumed peers keep pulling verified chunks after this
// party's run returned.
func (e *Engine) Run(ctx, helperCtx context.Context) error {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var watchers sync.WaitGroup
	for _, sh := range e.shards {
		sh := sh
		go sh.srv.Run(helperCtx)
		go e.retire(helperCtx, sh)
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			e.watch(runCtx, sh)
		}()
	}

	errc := make(chan error, len(e.shards))
	for _, sh := range e.shards {
		sh := sh
		go func() {
			err := e.runShard(runCtx, helperCtx, sh)
			if err != nil {
				err = fmt.Errorf("shard %d: %w", sh.idx, err)
			}
			errc <- err
		}()
	}
	var firstErr error
	for range e.shards {
		if err := <-errc; err != nil && firstErr == nil {
			firstErr = err
			cancel() // fail fast: the run is over either way
		}
	}
	close(e.finished)
	watchers.Wait()
	// Final sweep: ack everything the watchers had not scanned yet, then
	// fail whatever no committed slot carried.
	for _, sh := range e.shards {
		e.drainCommitted(sh)
	}
	err := firstErr
	if err == nil {
		err = ErrUncommitted
	} else {
		err = fmt.Errorf("%w (%v)", ErrUncommitted, firstErr)
	}
	for _, sh := range e.shards {
		e.failPending(sh, err)
	}
	return firstErr
}

// runShard drives one shard's store to Slots: the live slots from the
// start cursor on, and beside them state transfer of whatever the party
// is behind on. Both must finish; a transfer still running when the live
// slots fail is cancelled.
func (e *Engine) runShard(ctx, helperCtx context.Context, sh *shardState) error {
	syncCtx, stopSync := context.WithCancel(ctx)
	defer stopSync()
	syncErr := make(chan error, 1)
	go func() { syncErr <- e.catchUp(syncCtx, sh) }()
	input := e.o.Input
	if input == nil {
		input = func(k int) []byte { return e.takeBatch(ctx, sh, k) }
	}
	if err := acs.RunFrom(ctx, helperCtx, e.env, sh.sess, e.o.From, e.o.Slots, e.o.Width, input, e.o.Core, sh.store); err != nil {
		stopSync()
		<-syncErr
		return err
	}
	if err := <-syncErr; err != nil {
		return fmt.Errorf("state transfer: %w", err)
	}
	return nil
}

// window is the pipeline's width in slots: how far apart two parties'
// cursors can be while both are merely pipelining. A party is behind only
// when a quorum is more than a window past its cursor; retire and catchUp
// draw the line in the same place, so whatever one party may have retired,
// a party that lacks it knows to fetch.
func (e *Engine) window() int {
	if e.o.Width > 0 {
		return e.o.Width
	}
	return e.o.Slots
}

// retire releases sh's slots at this party as a quorum's stores come to
// hold them. Slot k goes once this party has committed every slot up to k
// and n−t parties (this one among them) have announced a cursor more than
// a window above k: at most t of the announcers lie, so t+1 nonfaulty
// stores hold the slot, and a party that lacks it fetches it from them
// (catchUp) instead of from this party's helpers. The t faulty parties
// cannot push the cursor past what those stores hold, and cannot hold it
// back once n−t nonfaulty parties are past — one silent party does not
// keep the slots alive. It runs until helperCtx ends, like the helpers it
// retires.
func (e *Engine) retire(ctx context.Context, sh *shardState) {
	quorum := e.env.N - e.env.T
	retired := 0
	for {
		advanced, reported := sh.store.Advanced(), sh.srv.Reported()
		below := sh.srv.Held(quorum) - e.window()
		if next := sh.store.Next(); next < below {
			below = next
		}
		if below > retired {
			acs.Retire(e.env, sh.sess, below)
			retired = below
		}
		select {
		case <-advanced:
		case <-reported:
		case <-ctx.Done():
			return
		}
	}
}

// catchUp is the other side of retire: it transfers the slots this party
// is behind on into sh's store, concurrently with the live slots, until
// the store holds the whole run (nil) or ctx ends (its error). The peers that are
// ahead may have retired those slots, so their protocol helpers cannot be
// counted on; their stores can. acs.RunFrom cancels this party's own run
// of a slot the transfer installs first, and drainCommitted re-queues the
// ops that run was carrying.
//
// The party is behind when Held(2t+1) is more than a window past its
// cursor, and that is the target: t+1 nonfaulty stores hold everything
// below it, so the transfer completes whatever else happens. When only
// t+1 parties are known to be that far ahead — a faulty party can announce
// to some and not to others, so the slot at the cursor may already be
// retired at a party that heard more — it asks for that one slot: at
// least one nonfaulty store has it, the request completes as soon as t+1
// do, and if the slot commits by its own protocol first the request is
// dropped.
func (e *Engine) catchUp(ctx context.Context, sh *shardState) error {
	t := e.env.T
	for {
		advanced, reported := sh.store.Advanced(), sh.srv.Reported()
		next := sh.store.Next()
		if next >= e.o.Slots {
			return nil
		}
		behind := next + e.window()
		target := 0
		if held := sh.srv.Held(2*t + 1); held > behind {
			target = held
		} else if sh.srv.Held(t+1) > behind {
			target = next + 1
		}
		if next < e.o.From && target < e.o.From {
			target = e.o.From // a restarted replica's missing prefix
		}
		if target > next {
			if err := statesync.Sync(ctx, e.env, sh.sess, sh.store, target, e.o.Sync); err != nil {
				return err
			}
			continue
		}
		select {
		case <-advanced:
		case <-reported:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Submit routes one client op to its shard, applies admission control,
// and blocks until the op's slot commits (returning its position) or ctx
// is done. The stream id picks the shard via Route; callers needing the
// shard before commit can compute it the same way.
func (e *Engine) Submit(ctx context.Context, stream, payload []byte) (Pos, error) {
	done, err := e.SubmitAsync(stream, payload)
	if err != nil {
		return Pos{}, err
	}
	select {
	case r := <-done:
		return r.Pos, r.Err
	case <-ctx.Done():
		return Pos{}, ctx.Err()
	}
}

// SubmitAsync is the non-blocking form of Submit: it admits the op (or
// rejects it synchronously — ErrOverloaded on a full queue is the
// backpressure path) and returns the channel its SubmitResult will
// arrive on. Exactly one result is ever delivered per admitted op: whether
// an op racing the end of the run was admitted (and then resolves, with
// ErrUncommitted at worst) or hit ErrFinished is decided under the same
// lock the run's final sweep closes the shard under.
func (e *Engine) SubmitAsync(stream, payload []byte) (<-chan SubmitResult, error) {
	if len(stream) == 0 || len(stream) > MaxStreamBytes {
		return nil, fmt.Errorf("shard: stream id must be 1..%d bytes, got %d", MaxStreamBytes, len(stream))
	}
	if len(payload) > MaxOpPayloadBytes {
		return nil, fmt.Errorf("shard: payload %d bytes exceeds cap %d", len(payload), MaxOpPayloadBytes)
	}
	if e.o.Input != nil {
		return nil, fmt.Errorf("shard: run is fed by Options.Input, not the admission queue")
	}
	sh := e.shards[Route(stream, len(e.shards))]
	e.mu.Lock()
	seq := e.seq
	e.seq++
	e.mu.Unlock()
	p := &pending{
		op: Op{
			Origin:  e.env.ID,
			Seq:     seq,
			Stream:  append([]byte(nil), stream...),
			Payload: append([]byte(nil), payload...),
		},
		slot:     -1,
		enqueued: time.Now(),
		done:     make(chan SubmitResult, 1),
	}
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return nil, ErrFinished
	}
	if len(sh.queue)+len(sh.inflight) >= e.o.QueueCap {
		sh.mu.Unlock()
		e.rejected.Inc()
		return nil, ErrOverloaded
	}
	sh.queue = append(sh.queue, p)
	sh.depth.Set(int64(len(sh.queue)))
	sh.mu.Unlock()
	e.accepted.Inc()
	select {
	case sh.arrival <- struct{}{}:
	default:
	}
	return p.done, nil
}

// takeBatch drains up to MaxOps queued ops (bounded in bytes by the
// A-Cast cap) into slot k's batch, marking them in flight. A shard's slots
// take their batches in slot order: with Width slots admitted together on
// an empty queue, the next op to arrive rides the lowest of them, which
// is the one whose commit its ack has to wait for anyway.
//
// A slot waits for an op only while the party is idle on this shard —
// nothing queued and nothing of its own in flight — and at most DrainWait
// from its admission, so an idle party's empty batches go out together.
// When a lower slot is already carrying the party's ops the slot goes at
// once with what is queued, possibly nothing: the other parties' batches
// should not wait for this one, and what arrives meanwhile rides the next
// slot. An empty return means the slot carries no contribution from this
// party; a slot the store already holds (state transfer got there first)
// takes nothing.
func (e *Engine) takeBatch(ctx context.Context, sh *shardState, k int) []byte {
	admitted := time.Now()
	sh.mu.Lock()
	for sh.turn != k {
		turned := sh.turned
		sh.mu.Unlock()
		select {
		case <-turned:
		case <-ctx.Done():
			return nil // the run is over; the slots below are returning too
		}
		sh.mu.Lock()
	}
	// Only the slot whose turn it is waits for arrivals: the poke wakes one
	// receiver, and it must be the one that can act.
	idle := func() bool { return len(sh.queue) == 0 && len(sh.inflight) == 0 && k >= sh.store.Next() }
	if left := e.o.DrainWait - time.Since(admitted); left > 0 && idle() {
		budget := time.NewTimer(left)
		defer budget.Stop()
		for expired := false; !expired && idle(); {
			advanced := sh.store.Advanced()
			sh.mu.Unlock()
			select {
			case <-sh.arrival:
			case <-advanced:
			case <-budget.C:
				expired = true
			case <-ctx.Done():
				return nil
			}
			sh.mu.Lock()
		}
	}
	sh.turn = k + 1
	close(sh.turned)
	sh.turned = make(chan struct{})
	if k < sh.store.Next() {
		sh.mu.Unlock()
		return nil
	}
	n := 0
	size := 0
	for n < len(sh.queue) && n < e.o.MaxOps {
		p := sh.queue[n]
		// Conservative per-op wire bound: three varints never exceed 30B.
		opSize := len(p.op.Stream) + len(p.op.Payload) + 40
		if size+opSize > acs.MaxPayloadSize {
			break
		}
		size += opSize
		n++
	}
	if n == 0 {
		sh.mu.Unlock()
		return nil
	}
	ops := make([]Op, n)
	for i := 0; i < n; i++ {
		p := sh.queue[i]
		p.slot = k
		sh.inflight[[2]int{p.op.Origin, p.op.Seq}] = p
		ops[i] = p.op
	}
	sh.queue = append(sh.queue[:0], sh.queue[n:]...)
	sh.depth.Set(int64(len(sh.queue)))
	sh.mu.Unlock()
	return EncodeOps(ops)
}

// watch acks submissions as sh's store cursor advances. The final sweep
// in Run covers anything left when the watcher exits.
func (e *Engine) watch(ctx context.Context, sh *shardState) {
	for {
		adv := sh.store.Advanced()
		e.drainCommitted(sh)
		select {
		case <-adv:
		case <-ctx.Done():
			return
		case <-e.finished:
			return
		}
	}
}

// drainCommitted flattens every newly contiguous committed slot of sh,
// acks the in-flight ops the slot carried, and re-queues in-flight ops
// the slot committed WITHOUT (their batch lost the contributor race) so
// a later slot re-proposes them. Safe to call from the watcher and the
// final sweep concurrently.
func (e *Engine) drainCommitted(sh *shardState) {
	for {
		sh.mu.Lock()
		k := sh.scanned
		sh.mu.Unlock()
		if k >= sh.store.Next() {
			return
		}
		var ops []Op
		if e.o.Input == nil { // Input batches are opaque bytes, not op batches
			entries, _ := sh.store.Slot(k)
			ops = SlotOps(entries)
		}

		sh.mu.Lock()
		if sh.scanned != k { // lost a race with a concurrent drain
			sh.mu.Unlock()
			continue
		}
		sh.scanned = k + 1
		type ack struct {
			p   *pending
			pos Pos
		}
		var acks []ack
		for i, op := range ops {
			key := [2]int{op.Origin, op.Seq}
			if p := sh.inflight[key]; p != nil {
				delete(sh.inflight, key)
				acks = append(acks, ack{p: p, pos: Pos{Shard: sh.idx, Slot: k, Index: i}})
			}
		}
		var lost []*pending
		for key, p := range sh.inflight {
			if p.slot == k {
				delete(sh.inflight, key)
				lost = append(lost, p)
			}
		}
		if len(lost) > 0 {
			// Re-propose in admission order, ahead of newer arrivals.
			sort.Slice(lost, func(i, j int) bool { return lost[i].op.Seq < lost[j].op.Seq })
			for _, p := range lost {
				p.slot = -1
			}
			sh.queue = append(lost, sh.queue...)
			sh.depth.Set(int64(len(sh.queue)))
		}
		sh.mu.Unlock()

		sh.committed.Inc()
		sh.opsTotal.Add(uint64(len(ops)))
		e.requeued.Add(uint64(len(lost)))
		for _, a := range acks {
			e.latency.ObserveSince(a.p.enqueued)
			a.p.done <- SubmitResult{Pos: a.pos}
		}
		if len(lost) > 0 {
			select {
			case sh.arrival <- struct{}{}:
			default:
			}
		}
		if e.o.OnSlotCommit != nil {
			e.o.OnSlotCommit(sh.idx, k, ops)
		}
	}
}

// failPending closes sh to admission and resolves every still-unacked
// submission with err.
func (e *Engine) failPending(sh *shardState, err error) {
	sh.mu.Lock()
	sh.closed = true
	left := append([]*pending(nil), sh.queue...)
	for _, p := range sh.inflight {
		left = append(left, p)
	}
	sh.queue = nil
	sh.inflight = make(map[[2]int]*pending)
	sh.depth.Set(0)
	sh.mu.Unlock()
	for _, p := range left {
		p.done <- SubmitResult{Err: err}
	}
}
