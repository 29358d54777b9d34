// Package reconfig implements epoch-based reconfiguration: dynamic
// membership for the asynchronous atomic-broadcast ledger, driven by the
// ledger itself.
//
// Membership changes (AddParty / RemoveParty) are submitted as ordered
// ledger entries like any other payload. Because every party holds the
// identical committed prefix, every party deterministically folds the
// committed operations into the identical epoch schedule E0 → E1 → … —
// epoch boundaries are data, not messages, and no extra agreement round
// is ever needed. Commitment orders an operation but does not authorize
// it: an operation is applied only when the committed entries of one slot
// carry it from ≥ t+1 distinct contributors (schedule.go), so every
// applied change was submitted by at least one honest member — every
// member re-submitting every due operation (the Source contract) is what
// both defeats censorship and produces the endorsement quorum. A change
// processed in slot k activates at slot k+Lag, which keeps slot s's
// member set computable from slots the admission gate has already forced
// to commit.
//
// One epoch switch, in order:
//
//  1. Quiesce. New-slot admission stops at the boundary; in-flight slots
//     of the outgoing epoch drain under its own gate (the pipeline is at
//     most Lag deep across a boundary by construction).
//  2. Re-deal. Long-lived SVSS-held state (the pool) is re-shared onto
//     the new member set over the existing SVSS + CommonSubset + batched
//     opening machinery — surviving members deal their shares, and the
//     new group interpolates at the old evaluation points (pool.go).
//  3. Reseed. A fresh virtual runtime.Node/Env with the new epoch's
//     indices (m' parties, t' = ⌊(m'−1)/3⌋) registers with the run's
//     epoch router (one runtime.RoutePrefix claim per run, O(1) dispatch
//     per message however many boundaries the node crosses); the
//     translation layer reseeds the party indices and silences
//     non-members at delivery (group.go).
//  4. Bootstrap. A joiner syncs the committed prefix via statesync
//     against the old epoch's quorum before entering the live epoch;
//     messages the new epoch already sent it sit buffered at the epoch
//     router and are delivered when its group registers.
//
// A removed party drains exactly like everyone else at the boundary, then
// tears its group down (mailboxes closed, inbound epoch traffic
// discarded) and follows the ledger as an observer via statesync — so the
// final ledger is bit-identical at every party, member or not.
package reconfig

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"asyncft/internal/acs"
	"asyncft/internal/core"
	"asyncft/internal/field"
	"asyncft/internal/obs"
	"asyncft/internal/runtime"
	"asyncft/internal/statesync"
)

// ScheduledChange is a membership operation a party wants on the ledger:
// from slot Slot on, the party folds the op into its slot batches until
// it commits.
type ScheduledChange struct {
	Slot   int
	Change Change
}

// Source is the thread-safe feed of membership operations this party
// submits. Every current member submits every due operation until the
// schedule processes it — m-fold duplication the set-idempotent schedule
// absorbs for free, and the mechanism behind both liveness properties of
// the endorsement rule: a Byzantine member cannot censor a
// reconfiguration by refusing to propose it, and an operation every
// honest member wants reaches the ≥ t+1 distinct-contributor quorum in
// the first slot that commits after it falls due. Operations can be
// scheduled up front or injected mid-run (Cluster.Reconfigure).
type Source struct {
	mu      sync.Mutex
	pending []ScheduledChange
}

// NewSource returns a source preloaded with changes.
func NewSource(changes ...ScheduledChange) *Source {
	return &Source{pending: append([]ScheduledChange(nil), changes...)}
}

// Schedule adds an operation mid-run.
func (s *Source) Schedule(sc ScheduledChange) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = append(s.pending, sc)
}

// due returns the operations eligible for slot, in schedule order.
func (s *Source) due(slot int) []Change {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Change
	for _, sc := range s.pending {
		if sc.Slot <= slot {
			out = append(out, sc.Change)
		}
	}
	return out
}

// markCommitted drops every pending operation matching one the schedule
// has processed (keyed by direction and party; the advisory Addr is
// ignored). Called from the schedule's fold once the endorsement
// threshold is crossed — not on first sight of a committing entry.
func (s *Source) markCommitted(ch Change) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.pending[:0]
	for _, sc := range s.pending {
		if sc.Change.Add == ch.Add && sc.Change.Party == ch.Party {
			continue
		}
		kept = append(kept, sc)
	}
	s.pending = kept
}

// Options configures one party's dynamic-membership run.
type Options struct {
	// Session roots the run's session tree and names its statesync
	// service. All parties must agree on it.
	Session string
	// Genesis is the sorted slot-0 member set (≥ MinMembers parties, all
	// within the universe [0, env.N)). All parties must agree on it.
	Genesis []int
	// Lag is the activation delay in slots (default DefaultLag, min 1).
	// All parties must agree on it.
	Lag int
	// Slots is the total slot count of the run.
	Slots int
	// Width caps in-flight slots; it is additionally clamped to Lag, the
	// deepest pipeline the admission gate permits. 0 means Lag.
	Width int
	// Input yields this party's application batch for a slot (nil: none).
	// Payloads that lose a slot race are resubmitted in later slots, so a
	// slow joiner's batches still land (deduplicated by the ledger).
	Input func(slot int) []byte
	// Core configures the protocol stack inside each epoch group.
	Core core.Config
	// Sync configures snapshot transfer (bootstrap, observers, catch-up).
	Sync statesync.Options
	// Source feeds membership operations (nil: a fresh empty source).
	Source *Source
	// OnChange, when non-nil, runs for every committed membership
	// operation, once per committing entry (so possibly several times for
	// one logical change — it must be idempotent). This is where cmd/node
	// hooks transport.TCP.AddPeer to learn a joiner's address.
	OnChange func(ch Change, slot int)
	// PoolSize is the number of long-lived SVSS-held secrets dealt at
	// genesis and re-dealt to every new member set (0: no pool).
	PoolSize int
	// CheckPool opens the pool at genesis and at the final epoch and
	// reports the values in the Result, letting the caller verify the
	// secrets survived every re-deal. Verification mode only: opening
	// destroys secrecy.
	CheckPool bool
}

func (o Options) withDefaults() Options {
	if o.Lag == 0 {
		o.Lag = DefaultLag
	}
	if o.Source == nil {
		o.Source = NewSource()
	}
	return o
}

func (o Options) validate(env *runtime.Env) error {
	if o.Slots < 1 {
		return fmt.Errorf("reconfig %s: need ≥ 1 slot, got %d", o.Session, o.Slots)
	}
	if o.Lag < 1 {
		return fmt.Errorf("reconfig %s: lag must be ≥ 1, got %d", o.Session, o.Lag)
	}
	if len(o.Genesis) < MinMembers {
		return fmt.Errorf("reconfig %s: genesis needs ≥ %d members, got %d", o.Session, MinMembers, len(o.Genesis))
	}
	if !sort.IntsAreSorted(o.Genesis) {
		return fmt.Errorf("reconfig %s: genesis must be sorted", o.Session)
	}
	for i, p := range o.Genesis {
		if p < 0 || p >= env.N {
			return fmt.Errorf("reconfig %s: genesis member %d outside universe [0, %d)", o.Session, p, env.N)
		}
		if i > 0 && o.Genesis[i-1] == p {
			return fmt.Errorf("reconfig %s: duplicate genesis member %d", o.Session, p)
		}
	}
	if o.PoolSize < 0 {
		return fmt.Errorf("reconfig %s: negative pool size", o.Session)
	}
	return nil
}

// Result is one party's view after a dynamic-membership run. Ledger and
// FinalMembers are identical at every party; the pool fields are reported
// by the parties that held the pool at the respective epoch.
type Result struct {
	// Store holds every committed slot; Ledger is its deduplicated
	// flattening (identical at every party).
	Store  *acs.Store
	Ledger []acs.Entry
	// FinalMembers is the member set of the last slot; Epochs counts the
	// epochs the run went through (≥ 1).
	FinalMembers []int
	Epochs       int
	// JoinedAt is the boundary slot at which this party entered the
	// member set (−1 for genesis members and permanent observers);
	// RemovedAt the boundary at which it left (−1 if never).
	JoinedAt  int
	RemovedAt int
	// PoolGenesis / PoolFinal are the opened pool values under CheckPool
	// (nil when this party was not a member of the respective epoch).
	PoolGenesis []field.Elem
	PoolFinal   []field.Elem
	// SwitchWall is the wall-clock cost of each epoch switch this party
	// performed as a member: quiesce barrier → group ready (including the
	// pool re-deal). Index i is the switch into epoch i+1.
	SwitchWall []time.Duration
}

// runner is one party's driver state.
type runner struct {
	env    *runtime.Env
	o      Options
	store  *acs.Store
	sched  *schedule
	router *epochRouter
	g      *group
	member bool

	scanned int      // slots processed for commit notifications
	appQ    [][]byte // submitted-but-uncommitted application batches

	pool []field.Poly
	res  *Result
	m    reconfigMetrics

	mu      sync.Mutex
	slotErr error
}

// reconfigMetrics carries the observability handles an epoch run touches,
// resolved once per Run from Core.Metrics (the node's shared registry).
// The zero value (no registry) is a valid no-op.
type reconfigMetrics struct {
	switches   *obs.Counter
	switchWall *obs.Histogram
	redealOK   *obs.Counter
	redealFail *obs.Counter
}

func newReconfigMetrics(reg *obs.Registry) reconfigMetrics {
	redeals := reg.CounterVec("reconfig_pool_redeals_total", "Pool re-deal attempts at epoch boundaries by outcome.", "outcome")
	return reconfigMetrics{
		switches:   reg.Counter("reconfig_epoch_switches_total", "Epoch switches performed (including genesis)."),
		switchWall: reg.Histogram("reconfig_epoch_switch_seconds", "Wall time of one epoch switch: quiesce barrier to group ready.", nil),
		redealOK:   redeals.With("ok"),
		redealFail: redeals.With("failed"),
	}
}

// Run executes this party's side of a dynamic-membership atomic-broadcast
// run: Slots slots under the schedule Genesis + committed changes, as
// member, joiner, observer or removed party, whichever the schedule says.
// All parties of the universe that want the final ledger call Run; only
// members do protocol work. ctx bounds the run; helperCtx (cluster
// lifetime) keeps protocol helpers and the snapshot server alive after it
// returns.
func Run(ctx, helperCtx context.Context, env *runtime.Env, opts Options) (*Result, error) {
	o := opts.withDefaults()
	if err := o.validate(env); err != nil {
		return nil, err
	}
	store := acs.NewStore()
	go statesync.Serve(helperCtx, env, o.Session, store, o.Sync)

	r := &runner{
		env:   env,
		o:     o,
		store: store,
		sched: newSchedule(o.Genesis, o.Lag, env.N),
		res:   &Result{Store: store, JoinedAt: -1, RemovedAt: -1},
		m:     newReconfigMetrics(o.Core.Metrics),
	}
	// Pending submissions retire when the schedule actually processes the
	// operation (endorsement threshold crossed), not on first sight of a
	// committing entry: an op only a minority committed must keep being
	// re-submitted until a quorum of entries carries it.
	r.sched.onProcessed = func(ch Change, slot int) { o.Source.markCommitted(ch) }
	// One route claim for the whole run: every epoch group registers with
	// the router, so physical dispatch stays O(1) across boundaries. A run
	// of Slots slots has at most one boundary per slot, hence < Slots+1
	// epochs.
	r.router = newEpochRouter(env, o.Session, o.Slots+1)
	if err := r.run(ctx, helperCtx); err != nil {
		return nil, err
	}
	return r.res, nil
}

func (r *runner) run(ctx, helperCtx context.Context) error {
	o := r.o
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	width := o.Lag
	if o.Width > 0 && o.Width < width {
		width = o.Width
	}
	sem := make(chan struct{}, width)
	var wg sync.WaitGroup
	var prevMem []int

	for s := 0; s < o.Slots; s++ {
		// Admission gate: slot s needs slots ≤ s−Lag committed, so its
		// member set is known. This caps the pipeline at Lag slots.
		if err := r.waitCursor(runCtx, s-o.Lag+1); err != nil {
			return r.fail(err)
		}
		r.scanCommitted()
		mem := append([]int(nil), r.sched.membershipAt(r.store, s)...)
		if s > 0 && equalInts(mem, prevMem) {
			r.admitSlot(runCtx, helperCtx, s, sem, &wg)
			continue
		}

		// Epoch boundary: quiesce (drain in-flight slots, both our own and
		// — via the cursor — everyone's), then switch.
		wg.Wait()
		if err := r.slotFailure(); err != nil {
			return r.fail(err)
		}
		if err := r.waitCursor(runCtx, s); err != nil {
			return r.fail(err)
		}
		r.scanCommitted()
		start := time.Now()
		if err := r.switchEpoch(runCtx, helperCtx, prevMem, mem, s); err != nil {
			return r.fail(err)
		}
		if r.member && s > 0 {
			wall := time.Since(start)
			r.res.SwitchWall = append(r.res.SwitchWall, wall)
			r.m.switchWall.Observe(wall.Seconds())
		}
		prevMem = mem
		r.admitSlot(runCtx, helperCtx, s, sem, &wg)
	}

	wg.Wait()
	if err := r.slotFailure(); err != nil {
		return r.fail(err)
	}
	// Follow to the end: members already hold every slot; observers and
	// removed parties sync the tail so the final ledger is universal.
	if err := r.waitCursor(runCtx, o.Slots); err != nil {
		return r.fail(err)
	}
	r.scanCommitted()

	if o.CheckPool && o.PoolSize > 0 && r.member {
		vals, err := openPool(runCtx, r.g.env, r.g.root, r.pool, o.Core)
		if err != nil {
			return r.fail(fmt.Errorf("reconfig %s: final pool open: %w", o.Session, err))
		}
		r.res.PoolFinal = vals
	}
	r.res.FinalMembers = prevMem
	r.res.Ledger = r.store.Ledger()
	return nil
}

// switchEpoch performs steps 2–3 of the epoch switch for this party. The
// caller has already quiesced. prevMem is nil exactly at genesis.
func (r *runner) switchEpoch(ctx, helperCtx context.Context, prevMem, mem []int, s int) error {
	o := r.o
	wasMember := r.member
	isMember := indexOf(mem, r.env.ID) >= 0
	epoch := r.res.Epochs // epochs counted so far == index of the new epoch
	r.res.Epochs++
	r.m.switches.Inc()

	var newG *group
	if isMember {
		newG = newGroup(r.env, r.router, epoch, mem)
	}

	// Pool handover. Genesis deals fresh secrets; later boundaries
	// re-share the old epoch's pool onto the new group (joiners
	// participate with no old rows; removed parties are not dealers).
	if o.PoolSize > 0 && isMember {
		if prevMem == nil {
			pool, err := dealPool(ctx, helperCtx, newG.env, newG.root, o.PoolSize, o.Core)
			if err != nil {
				return fmt.Errorf("reconfig %s: genesis pool deal: %w", o.Session, err)
			}
			r.pool = pool
			if o.CheckPool {
				vals, err := openPool(ctx, newG.env, newG.root, pool, o.Core)
				if err != nil {
					return fmt.Errorf("reconfig %s: genesis pool open: %w", o.Session, err)
				}
				r.res.PoolGenesis = vals
			}
		} else {
			tOld := (len(prevMem) - 1) / 3
			pool, err := resharePool(ctx, helperCtx, newG.env, newG.root, r.pool, prevMem, mem, o.PoolSize, tOld, o.Core)
			if err != nil {
				r.m.redealFail.Inc()
				return fmt.Errorf("reconfig %s: epoch %d pool re-deal: %w", o.Session, epoch, err)
			}
			r.m.redealOK.Inc()
			r.pool = pool
		}
	}

	if wasMember && !isMember {
		// Removed: drain is complete (quiesce barrier), tear down.
		r.g.Close()
		r.pool = nil
		r.res.RemovedAt = s
	}
	if !wasMember && isMember && s > 0 {
		r.res.JoinedAt = s
	}
	r.g = newG
	r.member = isMember
	return nil
}

// admitSlot starts slot s on the current epoch group (members only).
func (r *runner) admitSlot(ctx, helperCtx context.Context, s int, sem chan struct{}, wg *sync.WaitGroup) {
	if !r.member {
		return
	}
	payload := r.nextPayload(s)
	g := r.g
	select {
	case sem <- struct{}{}:
	case <-ctx.Done():
		return
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { <-sem }()
		sess := runtime.SubSession(g.root, "slot", s)
		entries, err := acs.RunSlot(ctx, helperCtx, g.env, sess, s, payload, r.o.Core)
		if err != nil {
			r.recordSlotErr(fmt.Errorf("reconfig %s: slot %d: %w", r.o.Session, s, err))
			return
		}
		// Committed entries carry virtual contributor indices; translate
		// to universe ids (identically at every member — same sorted
		// member list) so the ledger's attribution is epoch-independent.
		out := make([]acs.Entry, len(entries))
		for i, e := range entries {
			e.Party = g.members[e.Party]
			out[i] = e
		}
		r.store.SetSlot(s, out)
	}()
}

func (r *runner) recordSlotErr(err error) {
	r.mu.Lock()
	if r.slotErr == nil {
		r.slotErr = err
	}
	r.mu.Unlock()
}

func (r *runner) slotFailure() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.slotErr
}

// fail prefers the first slot error (the root cause) over the wait error
// that usually follows it.
func (r *runner) fail(err error) error {
	if serr := r.slotFailure(); serr != nil {
		return serr
	}
	return err
}

// nextPayload builds this party's batch for slot s: every due membership
// operation plus the oldest uncommitted application batch (generating a
// fresh one when the retry queue is empty).
func (r *runner) nextPayload(s int) []byte {
	changes := r.o.Source.due(s)
	if len(r.appQ) == 0 && r.o.Input != nil {
		if p := r.o.Input(s); len(p) > 0 {
			r.appQ = append(r.appQ, p)
		}
	}
	var app []byte
	if len(r.appQ) > 0 {
		app = r.appQ[0]
	}
	return EncodePayload(changes, app)
}

// scanCommitted processes newly contiguous slots: committed membership
// operations retire matching pending submissions and fire OnChange, and
// committed application batches leave the retry queue. Runs on the main
// driver goroutine only.
func (r *runner) scanCommitted() {
	for k := r.scanned; k < r.store.Next(); k++ {
		entries, ok := r.store.Slot(k)
		if !ok {
			return
		}
		for _, e := range entries {
			changes, app, _ := DecodePayload(e.Payload)
			for _, ch := range changes {
				if r.o.OnChange != nil {
					r.o.OnChange(ch, k)
				}
			}
			for i, pending := range r.appQ {
				if string(pending) == string(app) {
					r.appQ = append(r.appQ[:i], r.appQ[i+1:]...)
					break
				}
			}
		}
		r.scanned = k + 1
	}
}

// waitCursor blocks until the store's contiguous prefix reaches target.
// Members wait passively — their own in-flight slots advance the cursor;
// non-members (joiners bootstrapping, observers, removed parties
// following) actively sync the range from the member quorum's snapshot
// servers.
func (r *runner) waitCursor(ctx context.Context, target int) error {
	for {
		if r.store.Next() >= target {
			return nil
		}
		if r.member {
			adv := r.store.Advanced()
			if r.store.Next() >= target {
				return nil
			}
			select {
			case <-adv:
			case <-ctx.Done():
				return ctx.Err()
			}
		} else {
			if err := statesync.Sync(ctx, r.env, r.o.Session, r.store, target, r.o.Sync); err != nil {
				return err
			}
		}
	}
}
