// Package acs implements agreement on a common subset (ACS) driving
// asynchronous atomic broadcast: total-order broadcast in the BKR/
// HoneyBadgerBFT lineage, assembled from the repository's A-Cast
// (internal/rbc) and CommonSubset (Appendix C, Algorithm 4) primitives.
//
// One slot works as follows. Every party A-Casts its payload batch; a
// commonsubset.Predicate flips Q(j) = 1 as party j's broadcast delivers
// locally; CommonSubset(Q, n−t) agrees on the slot's contributor set; and
// the slot's output is the agreed contributors' payloads sorted by party
// index. The contributor set is common to all nonfaulty parties, and every
// member's A-Cast delivers the same bytes everywhere (a member is in the
// set only if its broadcast delivered at some nonfaulty party, which by
// A-Cast termination means it delivers at all), so all nonfaulty parties
// append identical slot outputs — a replicated log, with no timing
// assumptions and optimal resilience n ≥ 3t+1.
//
// Multiple slots pipeline by session namespacing (RunFrom admits them in
// slot order, width-bounded): slot k+1's broadcast phase overlaps slot k's
// agreement phase, so K slots pay the slot latency chain roughly once
// instead of K times (experiment E11 quantifies the gain under
// latency-bound schedules).
//
// Slot lifecycle: admit → commit → retire. RunFrom admits slot k (its
// sessions, forked environment and batch come into being then), the slot
// commits into the Store — by its own protocol, or, at a party that fell
// behind, by state transfer, which cancels the party's own run of it — and
// the slot's helpers (every A-Cast's serving loop, the fast path's pump
// and SLOW responder, fallback agreement and coin helpers) stay up under
// helperCtx for the parties still running it. The paper's protocols are
// one-shot and cannot observe that nobody needs them any more; a ledger
// can: once a quorum's stores hold slot k, Retire releases the slot's
// whole session tree (runtime.Node.ReleaseBelow), which ends those
// helpers and makes the party drop any later frame for the slot. A
// retired slot answers nothing; whoever still lacks it gets it from the
// stores through internal/statesync. Deciding when a quorum holds a slot
// needs the peers' cursors and is the driver's job (internal/shard).
//
// Slot broadcasts run through rbc.RunCoded: batches at or above the
// configured threshold (core.Config.RBC) cross each link once, in INIT, and
// are echoed by SHA-256 digest instead of by value, cutting per-party
// broadcast bandwidth to O(|m| + n·digest) per slot (experiment E12
// measures the reduction; set RBC.CodedThreshold < 0 for classic echo).
package acs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"
	"time"

	"asyncft/internal/ba"
	"asyncft/internal/commonsubset"
	"asyncft/internal/core"
	"asyncft/internal/rbc"
	"asyncft/internal/runtime"
	"asyncft/internal/wire"
)

// Entry is one committed payload of the replicated log.
type Entry struct {
	// Slot is the slot that committed the payload. Party is the payload's
	// first committer — the lowest party index in the earliest slot whose
	// A-Cast carried these bytes. It is NOT a verified author: a Byzantine
	// party can copy another party's batch into its own A-Cast, and
	// content-deduplication then credits whichever committed first.
	Slot, Party int
	// Payload is the committed batch, byte-identical at every party.
	Payload []byte
}

// MaxPayloadSize bounds one party's per-slot batch (the A-Cast value cap).
const MaxPayloadSize = rbc.MaxValueSize

// RunSlot executes one atomic-broadcast slot rooted at session: this
// party's side of n concurrent A-Casts plus the CommonSubset instance that
// picks the slot's contributor set. payload is this party's batch (nil or
// empty = participate without contributing). All nonfaulty parties must
// call RunSlot with the same session and slot.
//
// ctx bounds this party's slot; helperCtx (typically the cluster-lifetime
// context) keeps broadcast and coin helpers alive after the local slot
// returns, so slower peers can still finish — the same discipline every
// other protocol in the repository follows.
//
// The returned entries are the slot's committed batches in increasing
// party order; empty batches of agreed contributors are elided. The slice
// is identical at every nonfaulty party.
func RunSlot(ctx, helperCtx context.Context, env *runtime.Env, session string, slot int, payload []byte, cfg core.Config) ([]Entry, error) {
	if len(payload) > MaxPayloadSize {
		return nil, fmt.Errorf("acs %s: payload %d bytes exceeds cap %d", session, len(payload), MaxPayloadSize)
	}
	cfg = cfg.WithDefaults()
	m := newSlotMetrics(cfg.Metrics)
	m.inflight.Inc()
	defer m.inflight.Dec()
	start := time.Now()
	cfg.Trace.Begin(env.ID, session, "slot")
	defer cfg.Trace.End(env.ID, session, "slot")
	st := startBroadcasts(helperCtx, env, session, payload, cfg)
	st.m = m
	defer st.endDispersal() // close the span even on error or cancellation
	var entries []Entry
	var err error
	if cfg.FastPath {
		entries, err = runSlotFast(ctx, helperCtx, env, session, slot, st, cfg)
	} else {
		entries, err = runSlotAgree(ctx, helperCtx, env, session, slot, st, cfg)
	}
	if err == nil {
		m.commits.Inc()
		m.latency.ObserveSince(start)
	}
	return entries, err
}

// SlotError reports a failed atomic-broadcast slot, preserving the slot
// index so deep failures (e.g. a BA instance exhausting ba.ErrMaxRounds
// inside the slot's CommonSubset) stay attributable. errors.As recovers a
// *commonsubset.BAError for the failing instance; errors.Is sees through to
// the root cause.
type SlotError struct {
	// Session is the slot's session.
	Session string
	// Slot is the slot index.
	Slot int
	// Err is the underlying failure.
	Err error
}

func (e *SlotError) Error() string {
	return fmt.Sprintf("acs %s: slot %d: %v", e.Session, e.Slot, e.Err)
}

func (e *SlotError) Unwrap() error { return e.Err }

// deliv is one A-Cast completion.
type deliv struct {
	j   int
	val []byte
	err error
}

// slotState is the broadcast-phase state a slot accumulates before (and
// during) agreement; the fast path hands it to the full-agreement fallback
// with deliveries already consumed.
type slotState struct {
	delivc chan deliv
	pred   *commonsubset.Predicate
	got    map[int][]byte
	errs   map[int]error
	// quorum is n−t; once that many broadcasts have delivered locally the
	// slot's "dispersal" span closes (agreement can finish from here).
	quorum       int
	endDispersal func()
	m            slotMetrics
}

// noteDelivered closes the dispersal span once a quorum of broadcasts has
// delivered locally. Callers invoke it after adding a delivery to got.
func (st *slotState) noteDelivered() {
	if len(st.got) >= st.quorum {
		st.endDispersal()
	}
}

// startBroadcasts launches phase 1: n concurrent A-Casts, one per proposer.
// They run under helperCtx because peers may need our echoes after we
// return, and broadcasts outside the agreed set may never deliver at all.
func startBroadcasts(helperCtx context.Context, env *runtime.Env, session string, payload []byte, cfg core.Config) *slotState {
	n := env.N
	st := &slotState{
		delivc: make(chan deliv, n),
		pred:   commonsubset.NewPredicate(),
		got:    make(map[int][]byte, n),
		errs:   make(map[int]error, n),
		quorum: n - env.T,
	}
	cfg.Trace.Begin(env.ID, session, "dispersal")
	var dispersalOnce sync.Once
	trc, id := cfg.Trace, env.ID
	st.endDispersal = func() {
		dispersalOnce.Do(func() { trc.End(id, session, "dispersal") })
	}
	for j := 0; j < n; j++ {
		j := j
		var in []byte
		if j == env.ID {
			in = payload
		}
		sess := runtime.SubSession(session, "rbc", j)
		go func() {
			v, err := rbc.RunCoded(helperCtx, env, sess, j, in, cfg.RBC)
			st.delivc <- deliv{j: j, val: v, err: err}
		}()
	}
	return st
}

// commitEntries assembles a slot's committed entries from an agreed
// contributor set (sorted): increasing party order, empty batches elided.
func commitEntries(slot int, set []int, got map[int][]byte) []Entry {
	entries := make([]Entry, 0, len(set))
	for _, j := range set {
		if len(got[j]) == 0 {
			continue // an agreed contributor with an empty batch adds nothing
		}
		entries = append(entries, Entry{Slot: slot, Party: j, Payload: got[j]})
	}
	return entries
}

// runSlotAgree is the full-agreement path: CommonSubset over the delivery
// predicate picks ≥ n−t contributors every nonfaulty party agrees on, then
// the slot waits for delivery of every member's broadcast (guaranteed:
// membership implies delivery at some nonfaulty party, hence eventually
// here). It serves both as the default path and as the fast path's
// fallback, resuming from whatever st already collected.
func runSlotAgree(ctx, helperCtx context.Context, env *runtime.Env, session string, slot int, st *slotState, cfg core.Config) ([]Entry, error) {
	n := env.N
	csSess := runtime.SubSession(session, "cs")
	type csOut struct {
		set []int
		err error
	}
	csc := make(chan csOut, 1)
	cfg.Trace.Begin(env.ID, session, "agree")
	var agreeOnce sync.Once
	endAgree := func() {
		agreeOnce.Do(func() { cfg.Trace.End(env.ID, session, "agree") })
	}
	defer endAgree()
	var baDecided, baRounds int
	csOpts := cfg.CSOptions()
	if cfg.Trace != nil {
		// Written on the CommonSubset goroutine, read here only after its
		// result lands on csc (happens-before via the channel).
		csOpts.Observer = func(j int, bst ba.Stats) {
			baDecided++
			baRounds += bst.Rounds
		}
	}
	go func() {
		set, err := commonsubset.Run(ctx, env, csSess, st.pred, n-env.T,
			cfg.CoinsFor(helperCtx, env, csSess), csOpts)
		csc <- csOut{set: set, err: err}
	}()

	got, errs := st.got, st.errs
	var set []int
	for {
		if set != nil {
			missing := false
			for _, j := range set {
				if err := errs[j]; err != nil {
					return nil, &SlotError{Session: session, Slot: slot, Err: fmt.Errorf("broadcast %d: %w", j, err)}
				}
				if _, ok := got[j]; !ok {
					missing = true
				}
			}
			if !missing {
				break
			}
		}
		select {
		case d := <-st.delivc:
			if d.err != nil {
				// A broadcast fails only when the runtime shuts down; it is
				// fatal to the slot iff the agreed set needs that proposer.
				errs[d.j] = d.err
				continue
			}
			got[d.j] = d.val
			st.pred.Set(d.j)
			st.noteDelivered()
		case r := <-csc:
			endAgree()
			if r.err != nil {
				return nil, &SlotError{Session: session, Slot: slot, Err: r.err}
			}
			set = r.set
		case <-ctx.Done():
			return nil, &SlotError{Session: session, Slot: slot, Err: ctx.Err()}
		}
	}

	if cfg.Trace != nil {
		cfg.Trace.Recordf(env.ID, session, "acs",
			"slot %d full agreement: %d contributors, %d ba instances, %d rounds", slot, len(set), baDecided, baRounds)
	}
	return commitEntries(slot, set, got), nil
}

// Run executes slots 0..slots−1 of one atomic-broadcast session at this
// party, pipelined with at most width slots in flight (0 = all slots
// concurrently), and returns this party's ledger: slot outputs
// concatenated in slot order and deduplicated across slots by payload
// bytes (see BuildLedger). input(k) yields this party's batch for slot k;
// a nil input contributes nothing anywhere.
//
// All nonfaulty parties must call Run with the same session, slots and
// width; the returned ledger is byte-identical at every one of them.
func Run(ctx, helperCtx context.Context, env *runtime.Env, session string, slots, width int, input func(slot int) []byte, cfg core.Config) ([]Entry, error) {
	store := NewStore()
	if err := RunFrom(ctx, helperCtx, env, session, 0, slots, width, input, cfg, store); err != nil {
		return nil, err
	}
	return store.Ledger(), nil
}

// RunFrom is the resumable form of Run: it executes only slots
// from..slots−1, recording each slot's committed entries into store the
// moment the slot finishes locally (so a statesync server reading the
// store serves fresh slots while later ones are still in flight). A
// restarted or lagging replica installs slots [0, from) into store via
// internal/statesync and calls RunFrom to rejoin the live slots; from = 0
// is a full run. Slot sessions depend only on the slot index, so resumed
// and fresh parties interoperate on the wire by construction.
//
// Slots are admitted in slot order, at most width at a time, and every
// party admits in the same order — two parties' in-flight windows always
// overlap on the oldest unfinished slot, so no width can deadlock. Slot
// k's session, forked environment and batch come into being when k is
// admitted, not before: a long run costs memory for its window, not for
// its length, and input sources that accumulate between slots (a serving
// queue, a paced proposer) see everything that arrived so far.
//
// input is called once for every slot, from the slot's own goroutine as
// the slot is admitted. A slot that store already holds when its batch is
// in hand — another path (state transfer) committed it — is not run, and
// one that store comes to hold while it runs is cancelled; neither is an
// error, and the batch is simply not carried by that slot.
//
// The caller owns store and reads the final ledger from store.Ledger()
// once every slot below `slots` is committed (RunFrom itself only
// guarantees slots [from, slots)). On failure RunFrom returns the error
// of the lowest failed slot, after every admitted slot has returned.
func RunFrom(ctx, helperCtx context.Context, env *runtime.Env, session string, from, slots, width int, input func(slot int) []byte, cfg core.Config, store *Store) error {
	if slots < 1 || from < 0 || from >= slots {
		return fmt.Errorf("acs %s: slot range [%d, %d) out of range", session, from, slots)
	}
	if store == nil {
		return fmt.Errorf("acs %s: nil store", session)
	}
	if width <= 0 || width > slots-from {
		width = slots - from
	}
	var (
		mu       sync.Mutex
		errSlot  = -1
		slotErr  error
		inflight = make(map[int]context.CancelFunc, width)
	)
	fail := func(k int, err error) {
		mu.Lock()
		if errSlot < 0 || k < errSlot {
			errSlot, slotErr = k, err
		}
		mu.Unlock()
	}
	// Slots below the store's cursor that are still in flight were
	// committed by state transfer: this party is behind a quorum that may
	// have retired them, so their own runs might wait forever.
	var watcher sync.WaitGroup
	done := make(chan struct{})
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		for {
			advanced := store.Advanced()
			next := store.Next()
			mu.Lock()
			for k, cancel := range inflight {
				if k < next {
					cancel()
				}
			}
			mu.Unlock()
			select {
			case <-advanced:
			case <-done:
				return
			}
		}
	}()
	family := slotFamily(session)
	sem := make(chan struct{}, width)
	var wg sync.WaitGroup
admit:
	for k := from; k < slots; k++ {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			fail(k, ctx.Err())
			break admit
		}
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			// The slot's own context ends with the slot: what must outlive
			// it runs under helperCtx.
			slotCtx, cancel := context.WithCancel(ctx)
			mu.Lock()
			inflight[k] = cancel
			mu.Unlock()
			defer func() {
				cancel()
				mu.Lock()
				delete(inflight, k)
				mu.Unlock()
			}()
			sess := runtime.SubSession(family, k)
			var payload []byte
			if input != nil {
				payload = input(k)
			}
			if _, held := store.Slot(k); held {
				return
			}
			entries, err := RunSlot(slotCtx, helperCtx, env.Fork(sess), sess, k, payload, cfg)
			if err != nil {
				if _, held := store.Slot(k); !held {
					fail(k, err)
				}
				return
			}
			store.SetSlot(k, entries)
		}()
	}
	wg.Wait()
	close(done)
	watcher.Wait()
	if slotErr != nil {
		return fmt.Errorf("acs %s: slot %d: %w", session, errSlot, slotErr)
	}
	return nil
}

// slotFamily is the session under which a run's slots are numbered: slot k
// lives in the subtree slotFamily(session)/k.
func slotFamily(session string) string { return runtime.SubSession(session, "slot") }

// Retire releases the session trees of slots [0, below) of the run rooted
// at session at this party: their helpers end and later frames for them
// are dropped (see the package comment). The caller must hold every one of
// those slots in its store, and know that enough other stores do for a
// party that lacks one to fetch it: this party will not help run them
// again.
func Retire(env *runtime.Env, session string, below int) {
	env.Node.ReleaseBelow(slotFamily(session), below)
}

// BuildLedger flattens per-slot outputs into the final ordered ledger:
// slots in increasing order, entries within a slot in increasing party
// order (RunSlot's invariant), and payloads deduplicated across the whole
// log — the first occurrence wins, so a batch re-proposed after losing a
// slot race (or submitted to several parties) lands exactly once.
// Deduplication keys on payload bytes alone; see Entry.Party for the
// attribution caveat that follows. Determinism of the input slices makes
// the result deterministic, hence identical at every nonfaulty party.
func BuildLedger(slots [][]Entry) []Entry {
	seen := make(map[string]bool)
	var out []Entry
	for _, entries := range slots {
		for _, e := range entries {
			key := string(e.Payload)
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, e)
		}
	}
	return out
}

// AgreeLedgers asserts every party's ledger is byte-identical and returns
// the common ledger. Parties are checked in ascending ID order so a
// violation blames the same party deterministically. It is the one shared
// replication check used by the public Cluster API and the experiment
// harness alike.
func AgreeLedgers(ledgers map[int][]Entry) ([]Entry, error) {
	ids := make([]int, 0, len(ledgers))
	for id := range ledgers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var ref []Entry
	var refEnc []byte
	first := true
	for _, id := range ids {
		entries := ledgers[id]
		enc := Encode(entries)
		if first {
			ref, refEnc, first = entries, enc, false
		} else if !bytes.Equal(refEnc, enc) {
			return nil, fmt.Errorf("acs: ledger disagreement at party %d (%d entries vs %d)", id, len(entries), len(ref))
		}
	}
	return ref, nil
}

// Encode serializes a ledger canonically (wire format): two ledgers are
// equal iff their encodings are byte-identical.
func Encode(entries []Entry) []byte {
	var w wire.Writer
	w.Int(len(entries))
	for _, e := range entries {
		w.Int(e.Slot)
		w.Int(e.Party)
		w.BytesField(e.Payload)
	}
	return w.Bytes()
}

// Digest is the SHA-256 of the canonical encoding — the fingerprint
// parties (and the cmd/node e2e harness) compare to check replication.
func Digest(entries []Entry) [sha256.Size]byte {
	return sha256.Sum256(Encode(entries))
}
