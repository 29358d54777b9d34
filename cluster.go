package asyncft

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"asyncft/internal/acs"
	"asyncft/internal/adversary"
	"asyncft/internal/ba"
	"asyncft/internal/batch"
	"asyncft/internal/beacon"
	"asyncft/internal/core"
	"asyncft/internal/field"
	"asyncft/internal/network"
	"asyncft/internal/rbc"
	"asyncft/internal/reconfig"
	"asyncft/internal/runtime"
	"asyncft/internal/securesum"
	"asyncft/internal/shard"
	"asyncft/internal/statesync"
	"asyncft/internal/svss"
	"asyncft/internal/trace"
	"asyncft/internal/wire"
)

// Cluster is a set of parties wired over a simulated asynchronous network.
// Honest parties run the paper's protocols; corrupted parties (Config.
// Byzantine) run their assigned behaviors. All protocol methods block until
// every honest party finishes (or the cluster timeout fires) and verify
// that honest outputs agree — disagreement is reported as an error because
// it falsifies a protocol property, never swallowed.
type Cluster struct {
	cfg      Config
	router   *network.Router
	targeted *network.Targeted // non-nil iff SchedulingTargeted
	nodes    []*runtime.Node
	envs     []*runtime.Env
	ctx      context.Context
	cancel   context.CancelFunc
	core     core.Config
	rec      *trace.Recorder // nil unless Config.TraceCapacity > 0

	runMu sync.Mutex
	// runs maps an atomic-broadcast session to its registration: where
	// Submit, SyncFrom and Reconfigure find the run. runAdded is closed and
	// replaced on every registration, so Submit can wait for a session
	// whose RunAtomicBroadcast call is still on its way.
	runs     map[string]*ledgerRun
	runAdded chan struct{}
}

// ledgerRun is one RunAtomicBroadcast session as the rest of the API
// reaches it. Every honest party of a run serves snapshots for the
// cluster's lifetime, which is what SyncFrom and Resume ride.
type ledgerRun struct {
	// engines holds a static run's per-party engines, the injection point
	// for Submit; nil for a dynamic-membership run.
	engines map[int]*shard.Engine
	// src is a dynamic-membership run's shared operation source, the
	// injection point for Reconfigure; nil for a static run.
	src *reconfig.Source
	// syncName names the run's state-transfer service for SyncFrom; empty
	// when the run has more than one shard (one service per shard).
	syncName string
}

// registerRun makes a run visible to Submit, SyncFrom and Reconfigure
// before any slot starts. Re-running a session is a spec error, not a
// silent reuse.
func (c *Cluster) registerRun(sess string, r *ledgerRun) error {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	if _, ok := c.runs[sess]; ok {
		return fmt.Errorf("asyncft: session %q already ran", sess)
	}
	c.runs[sess] = r
	close(c.runAdded)
	c.runAdded = make(chan struct{})
	return nil
}

// Party is the capability bundle handed to custom BehaviorFunc attacks.
type Party struct {
	// ID is the corrupted party's index; N and T the cluster parameters.
	ID, N, T int
	env      *runtime.Env
}

// Send emits a raw protocol message — Byzantine parties speak the wire
// format directly.
func (p *Party) Send(to int, session string, msgType uint8, payload []byte) {
	p.env.Send(to, session, msgType, payload)
}

// SendAll emits the message to every party.
func (p *Party) SendAll(session string, msgType uint8, payload []byte) {
	p.env.SendAll(session, msgType, payload)
}

type behaviorFunc struct {
	name string
	fn   func(ctx context.Context, p *Party) error
}

func (b behaviorFunc) Name() string { return b.name }
func (b behaviorFunc) Run(ctx context.Context, env *runtime.Env) error {
	return b.fn(ctx, &Party{ID: env.ID, N: env.N, T: env.T, env: env})
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	policy := cfg.policy()
	var ropts []network.Option
	c := &Cluster{cfg: cfg, core: cfg.coreConfig(),
		runs: make(map[string]*ledgerRun), runAdded: make(chan struct{})}
	if cfg.TraceCapacity > 0 {
		c.rec = trace.New(cfg.TraceCapacity)
		ropts = append(ropts, network.WithObserver(func(stage string, env wire.Envelope) {
			c.rec.Recordf(env.From, env.Session, stage, "to=%d type=%d bytes=%d", env.To, env.Type, len(env.Payload))
		}))
	}
	c.router = network.NewRouter(cfg.N, policy, ropts...)
	if t, ok := policy.(*network.Targeted); ok {
		c.targeted = t
	}
	c.ctx, c.cancel = context.WithTimeout(context.Background(), cfg.Timeout)
	for i := 0; i < cfg.N; i++ {
		node := runtime.NewNode(i, cfg.N, cfg.T)
		c.nodes = append(c.nodes, node)
		c.router.Register(i, node.Dispatch)
		c.envs = append(c.envs, runtime.NewEnv(i, cfg.N, cfg.T, node, c.router, cfg.Seed*7919+int64(i)))
	}
	// Launch Byzantine behaviors for the lifetime of the cluster.
	for id, b := range cfg.Byzantine {
		id, inner := id, b.inner
		go func() { _ = inner.Run(c.ctx, c.envs[id]) }()
	}
	return c, nil
}

// Close shuts the cluster down and releases all goroutines.
func (c *Cluster) Close() {
	c.cancel()
	for _, nd := range c.nodes {
		nd.Close()
	}
	c.router.Close()
}

// Honest returns the indices of the honest (non-Byzantine) parties.
func (c *Cluster) Honest() []int {
	var ids []int
	for i := 0; i < c.cfg.N; i++ {
		if _, bad := c.cfg.Byzantine[i]; !bad {
			ids = append(ids, i)
		}
	}
	return ids
}

// Hold installs a targeted message hold (SchedulingTargeted only) matching
// messages from one party to another (-1 wildcards) whose session has the
// given prefix. It returns a handle for Lift.
func (c *Cluster) Hold(from, to int, sessionPrefix string) (int, error) {
	if c.targeted == nil {
		return 0, fmt.Errorf("asyncft: Hold requires SchedulingTargeted")
	}
	return c.targeted.Hold(network.Rule{From: from, To: to, SessionPrefix: sessionPrefix}), nil
}

// Lift removes a targeted hold.
func (c *Cluster) Lift(id int) error {
	if c.targeted == nil {
		return fmt.Errorf("asyncft: Lift requires SchedulingTargeted")
	}
	c.targeted.Lift(id)
	return nil
}

// Metrics returns a snapshot of network traffic counters.
func (c *Cluster) Metrics() MetricsSnapshot {
	m := c.router.Metrics()
	out := MetricsSnapshot{Messages: m.Messages, Bytes: m.Bytes}
	for _, p := range m.ByProto {
		out.ByProtocol = append(out.ByProtocol, ProtocolStat(p))
	}
	return out
}

// MetricsSnapshot summarizes network traffic.
type MetricsSnapshot struct {
	Messages   uint64
	Bytes      uint64
	ByProtocol []ProtocolStat
}

// ProtocolStat is the per-protocol traffic row.
type ProtocolStat struct {
	Proto    string
	Messages uint64
	Bytes    uint64
}

// TraceEvent is one recorded network event (see Config.TraceCapacity).
type TraceEvent struct {
	Seq     uint64
	Party   int
	Session string
	Kind    string
	Detail  string
}

// TraceEvents returns the retained trace, oldest first. Empty unless
// Config.TraceCapacity was set.
func (c *Cluster) TraceEvents() []TraceEvent {
	if c.rec == nil {
		return nil
	}
	evs := c.rec.Events()
	out := make([]TraceEvent, len(evs))
	for i, e := range evs {
		out[i] = TraceEvent{Seq: e.Seq, Party: e.Party, Session: e.Session, Kind: e.Kind, Detail: e.Detail}
	}
	return out
}

// DumpTrace writes the retained trace to w (no-op without TraceCapacity).
func (c *Cluster) DumpTrace(w io.Writer) {
	if c.rec != nil {
		c.rec.Dump(w)
	}
}

// ShunEvents returns the total number of shun events recorded by honest
// parties — the quantity the paper bounds by n².
func (c *Cluster) ShunEvents() int {
	total := 0
	for _, id := range c.Honest() {
		total += c.nodes[id].ShunCount()
	}
	return total
}

// run executes fn at every honest party concurrently.
func (c *Cluster) run(fn func(ctx context.Context, env *runtime.Env) (interface{}, error)) map[int]result {
	honest := c.Honest()
	ch := make(chan result, len(honest))
	for _, id := range honest {
		id := id
		go func() {
			v, err := fn(c.ctx, c.envs[id])
			ch <- result{id: id, value: v, err: err}
		}()
	}
	out := make(map[int]result, len(honest))
	for range honest {
		r := <-ch
		out[r.id] = r
	}
	return out
}

type result struct {
	id    int
	value interface{}
	err   error
}

// runSpec executes one BatchSpec sequentially across all honest parties —
// the single source of truth shared by the sequential protocol methods and
// RunBatch, so batched and sequential instances are indistinguishable on
// the wire by construction.
func (c *Cluster) runSpec(spec BatchSpec) (interface{}, error) {
	res := c.run(func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		return spec.run(c, ctx, env)
	})
	return spec.agree(res)
}

// CoinFlip runs the strong common coin (Algorithm 1) across all honest
// parties and returns the agreed bit.
func (c *Cluster) CoinFlip(session string) (byte, error) {
	v, err := c.runSpec(CoinFlipSpec(session))
	if err != nil {
		return 0, err
	}
	return v.(byte), nil
}

// FairChoice runs Algorithm 2 across all honest parties: agreement on one
// of {0, …, m−1}, almost fairly. m must be at least 3.
func (c *Cluster) FairChoice(session string, m int) (int, error) {
	res := c.run(func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		return core.FairChoice(ctx, c.ctx, env, "fc/"+session, m, c.core)
	})
	return agreeVal[int](res)
}

// FairBA runs fair Byzantine agreement (Algorithm 3). inputs maps party →
// input value; missing honest parties default to nil inputs. It returns the
// common output.
func (c *Cluster) FairBA(session string, inputs map[int][]byte) ([]byte, error) {
	res := c.run(func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		return core.FBA(ctx, c.ctx, env, "fba/"+session, inputs[env.ID], c.core)
	})
	return agreeBytes(res)
}

// BinaryAgreement runs one almost-surely terminating binary BA instance
// (Definition 3.3) with the configured coin. inputs maps party → bit;
// missing honest parties default to 0.
func (c *Cluster) BinaryAgreement(session string, inputs map[int]byte) (byte, error) {
	v, err := c.runSpec(BinaryAgreementSpec(session, inputs))
	if err != nil {
		return 0, err
	}
	return v.(byte), nil
}

// ReliableBroadcast runs one A-Cast from sender with the given value and
// returns the commonly delivered value. Values of at least
// rbc.DefaultCodedThreshold bytes are dispersed by digest (the value
// travels once, in INIT; echoes and READYs carry its SHA-256); the
// delivered bytes are identical either way.
func (c *Cluster) ReliableBroadcast(session string, sender int, value []byte) ([]byte, error) {
	res := c.run(func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		var in []byte
		if env.ID == sender {
			in = value
		}
		return rbc.RunCoded(ctx, env, "rbc/"+session, sender, in, rbc.Options{})
	})
	return agreeBytes(res)
}

// ShareAndReconstruct shares secret from dealer via SVSS and immediately
// reconstructs it, returning the commonly reconstructed value. It validates
// the full share→reconstruct pipeline, including binding-or-shun behavior
// under the configured adversary.
func (c *Cluster) ShareAndReconstruct(session string, dealer int, secret uint64) (uint64, error) {
	v, err := c.runSpec(ShareAndReconstructSpec(session, dealer, secret))
	if err != nil {
		return 0, err
	}
	return v.(uint64), nil
}

// BatchSpec describes one protocol instance for RunBatch. Construct specs
// with CoinFlipSpec, BinaryAgreementSpec, or ShareAndReconstructSpec; each
// instance uses the same session namespace as the corresponding standalone
// Cluster method, so a batched coin flip is indistinguishable on the wire
// from a sequential one.
type BatchSpec struct {
	session string
	run     func(c *Cluster, ctx context.Context, env *runtime.Env) (interface{}, error)
	agree   func(res map[int]result) (interface{}, error)
}

// CoinFlipSpec is a strong-common-coin instance (see Cluster.CoinFlip).
// The batched result value is the agreed byte.
func CoinFlipSpec(session string) BatchSpec {
	sess := "cf/" + session
	return BatchSpec{
		session: sess,
		run: func(c *Cluster, ctx context.Context, env *runtime.Env) (interface{}, error) {
			return core.CoinFlip(ctx, c.ctx, env, sess, c.core)
		},
		agree: func(res map[int]result) (interface{}, error) { return agreeByte(res) },
	}
}

// BinaryAgreementSpec is a binary-BA instance (see Cluster.BinaryAgreement).
// The batched result value is the agreed bit as a byte.
func BinaryAgreementSpec(session string, inputs map[int]byte) BatchSpec {
	sess := "ba/" + session
	return BatchSpec{
		session: sess,
		run: func(c *Cluster, ctx context.Context, env *runtime.Env) (interface{}, error) {
			coin := c.core.InnerCoinFor(c.ctx, env, sess)
			return ba.Run(ctx, env, sess, inputs[env.ID], coin, c.core.BA)
		},
		agree: func(res map[int]result) (interface{}, error) { return agreeByte(res) },
	}
}

// ShareAndReconstructSpec is an SVSS share-then-reconstruct instance (see
// Cluster.ShareAndReconstruct). The batched result value is the commonly
// reconstructed uint64.
func ShareAndReconstructSpec(session string, dealer int, secret uint64) BatchSpec {
	sess := "svss/" + session
	return BatchSpec{
		session: sess,
		run: func(c *Cluster, ctx context.Context, env *runtime.Env) (interface{}, error) {
			sh, err := svss.RunShare(ctx, env, sess, dealer, field.New(secret))
			if err != nil {
				return nil, err
			}
			v, err := svss.RunRec(ctx, env, sh, c.core.SVSS)
			if err != nil {
				return nil, err
			}
			return v.Uint64(), nil
		},
		agree: func(res map[int]result) (interface{}, error) { return agreeVal[uint64](res) },
	}
}

// BatchResult is the agreed output of one RunBatch instance.
type BatchResult struct {
	// Session is the instance's fully qualified session ID.
	Session string
	// Value is the agreed output; its type depends on the spec constructor
	// (byte for coins and BAs, uint64 for SVSS reconstructions).
	Value interface{}
}

// RunBatch executes all specs as concurrent protocol instances multiplexed
// over the cluster's single network by session namespacing, keeping every
// party's pipeline full instead of paying per-instance cluster setup and
// full protocol latency K times. width bounds how many instances are in
// flight per party (0 = the whole batch); every party admits instances in
// spec order, so any width is deadlock-free.
//
// Results are returned in spec order. Agreement is verified per instance
// exactly as the corresponding sequential Cluster method does; the first
// violated instance aborts with an error naming its session.
func (c *Cluster) RunBatch(width int, specs ...BatchSpec) ([]BatchResult, error) {
	instances := make([]batch.Instance, len(specs))
	for i, s := range specs {
		s := s
		instances[i] = batch.Instance{
			Session: s.session,
			Run: func(ctx context.Context, env *runtime.Env) (interface{}, error) {
				return s.run(c, ctx, env)
			},
		}
	}
	envs := make(map[int]*runtime.Env)
	for _, id := range c.Honest() {
		envs[id] = c.envs[id]
	}
	res, err := batch.Run(c.ctx, envs, instances, batch.Options{Width: width})
	if err != nil {
		return nil, err
	}
	out := make([]BatchResult, len(specs))
	for i, s := range specs {
		m := make(map[int]result, len(res[i]))
		for id, r := range res[i] {
			m[id] = result{id: id, value: r.Value, err: r.Err}
		}
		v, err := s.agree(m)
		if err != nil {
			return nil, fmt.Errorf("batch instance %s: %w", s.session, err)
		}
		out[i] = BatchResult{Session: s.session, Value: v}
	}
	return out, nil
}

// MaxLedgerPayloadSize bounds one party's per-slot batch in
// RunAtomicBroadcast (the A-Cast value cap).
const MaxLedgerPayloadSize = acs.MaxPayloadSize

// LedgerEntry is one committed payload of an atomic-broadcast ledger.
type LedgerEntry struct {
	// Shard is the ledger shard that committed the payload; always 0
	// unless the run had several (AtomicBroadcastSpec.Shards > 1).
	Shard int
	// Slot is the slot that committed the payload. Party is the payload's
	// first committer — not a verified author: a Byzantine party can copy
	// another party's batch into its own A-Cast, and cross-slot content
	// deduplication then credits whichever committed first.
	Slot, Party int
	// Payload is the committed batch, byte-identical at every party.
	Payload []byte
}

// AtomicBroadcastSpec configures one RunAtomicBroadcast session. Shards,
// Resume and the two batch sources (Payloads, Submit) are independent
// parameters of one run and combine freely; only DynamicMembership is a
// driver of its own.
type AtomicBroadcastSpec struct {
	// Session namespaces the run, exactly like the other protocol methods.
	Session string
	// Slots is the number of atomic-broadcast slots to run (≥ 1). Each
	// slot commits ≥ N−T parties' batches — all N when every A-Cast of the
	// slot delivers everywhere (the unanimous fast path), the CommonSubset
	// choice otherwise.
	Slots int
	// Width bounds how many slots are in flight per party (0 = all): the
	// pipeline depth, trading memory for throughput. Width 1 degrades to
	// slot-at-a-time execution — the baseline experiment E11 beats.
	Width int
	// Payloads yields the batch a party contributes in a slot (of every
	// shard); a nil result means the party participates in that slot
	// without contributing. Batches are capped at MaxLedgerPayloadSize.
	// The function is called concurrently — from every party's goroutine,
	// and for multiple slots at once when pipelined — so it must be safe
	// for concurrent use. A nil function leaves the run to be fed through
	// Cluster.Submit instead: client operations are batched into slots and
	// acknowledged with their committed position.
	Payloads func(party, slot int) []byte
	// Resume marks parties as restarted replicas: a party mapped to slot
	// R > 0 skips slots [0, R) entirely — it catches the missed prefix up
	// via digest-verified state transfer (internal/statesync) from its
	// peers, concurrently with participating live in slots [R, Slots).
	// Every honest party of the run serves snapshots for the cluster's
	// lifetime, so catch-up overlaps live commits by construction. At
	// most T parties may resume (the slots they skip still need N−T live
	// participants), and R must lie in [1, Slots−1]. The run's final
	// agreement check covers resumed parties: their spliced ledgers must
	// be bit-identical to everyone else's.
	Resume map[int]int
	// DynamicMembership, when non-nil, runs the session under epoch-based
	// reconfiguration: the member set starts at its Genesis subset and
	// evolves via membership operations committed on the ledger itself.
	// See the DynamicMembership type; incompatible with Resume and Shards.
	DynamicMembership *DynamicMembership
	// Shards scales the session out horizontally: that many independent
	// ledger shards (each its own slot pipeline) run over the shared
	// transport, multiplexed by session namespacing (internal/shard); 0
	// means 1. Cluster.Submit routes a client operation to a shard by a
	// deterministic hash of its stream id. The returned ledger carries
	// every shard's entries tagged with their Shard. Incompatible with
	// DynamicMembership.
	Shards int
	// QueueCap bounds each party's per-shard admission queue in a
	// Submit-fed run (0 = the internal default). Once a queue is full,
	// Submit rejects with ErrOverloaded — backpressure, never a silent
	// drop.
	QueueCap int
}

// ErrOverloaded is returned by Submit when the target shard's admission
// queue at the chosen party is full. It is the backpressure signal a
// serving front door translates to HTTP 429.
var ErrOverloaded = shard.ErrOverloaded

// ErrUncommitted is returned by Submit for an op that was admitted but
// missed every remaining slot of a finite run — reported, never silently
// dropped; the client may resubmit on a later session.
var ErrUncommitted = shard.ErrUncommitted

// SubmitPos is the committed position a Submit acknowledgment names:
// the shard, the slot within that shard, and the index within the slot's
// flattened client-op list. Positions are identical at every party.
type SubmitPos struct {
	Shard, Slot, Index int
}

// RunAtomicBroadcast runs ACS-based asynchronous atomic broadcast: per
// slot, every party A-Casts its batch, the slot commits the full
// contributor set after one confirmation round when all N broadcasts
// deliver everywhere and otherwise the ≥ N−T set CommonSubset agrees on,
// and the agreed batches are appended in party order; slots pipeline
// Width-wide. One engine per honest party (internal/shard) drives the run
// — its shards, a resumed party's catch-up and the snapshot servers — and
// after every engine finishes, each shard's committed slot range must be
// bit-identical across the honest parties (a violation is an error, never
// swallowed, like every other agreement check on Cluster). It returns the
// replicated ledger — per shard, slot outputs in slot order, deduplicated
// across slots by payload.
func (c *Cluster) RunAtomicBroadcast(spec AtomicBroadcastSpec) ([]LedgerEntry, error) {
	if spec.Slots < 1 {
		return nil, fmt.Errorf("asyncft: RunAtomicBroadcast needs Slots ≥ 1, got %d", spec.Slots)
	}
	if spec.Shards < 0 {
		return nil, fmt.Errorf("asyncft: Shards must be ≥ 0, got %d", spec.Shards)
	}
	if spec.DynamicMembership != nil {
		return c.runDynamicMembership(spec)
	}
	// A resumed party is absent from the slots it skips, so resumptions
	// and corruptions draw on the same fault budget. A Byzantine party
	// cannot resume (it runs its behavior, not the protocol), so naming
	// one in Resume is a spec error, never a silent no-op.
	if len(spec.Resume)+len(c.cfg.Byzantine) > c.cfg.T {
		return nil, fmt.Errorf("asyncft: %d resuming + %d Byzantine parties exceed T=%d",
			len(spec.Resume), len(c.cfg.Byzantine), c.cfg.T)
	}
	for id, r := range spec.Resume {
		if id < 0 || id >= c.cfg.N || r < 1 || r >= spec.Slots {
			return nil, fmt.Errorf("asyncft: Resume[%d]=%d out of range (want 1 ≤ R < Slots)", id, r)
		}
		if _, bad := c.cfg.Byzantine[id]; bad {
			return nil, fmt.Errorf("asyncft: Resume[%d] names a Byzantine party", id)
		}
	}
	sess := "abc/" + spec.Session
	shards := spec.Shards
	if shards == 0 {
		shards = 1
	}
	run := &ledgerRun{engines: make(map[int]*shard.Engine)}
	if shards == 1 {
		run.syncName = shard.Session(sess, 0)
	}
	for _, id := range c.Honest() {
		var input func(int) []byte
		if spec.Payloads != nil {
			id := id
			input = func(slot int) []byte { return spec.Payloads(id, slot) }
		}
		eng, err := shard.New(c.envs[id], shard.Options{
			Session:  sess,
			Shards:   shards,
			Slots:    spec.Slots,
			From:     spec.Resume[id],
			Width:    spec.Width,
			Input:    input,
			QueueCap: spec.QueueCap,
			Core:     c.core,
			Sync:     c.cfg.syncOptions(),
		})
		if err != nil {
			return nil, err
		}
		run.engines[id] = eng
	}
	if err := c.registerRun(sess, run); err != nil {
		return nil, err
	}
	res := c.run(func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		return nil, run.engines[env.ID].Run(ctx, c.ctx)
	})
	ids := make([]int, 0, len(res))
	for id := range res {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if res[id].err != nil {
			return nil, fmt.Errorf("party %d: %w", id, res[id].err)
		}
	}
	// Every committed slot of every shard must be byte-identical across
	// the honest parties — stronger than comparing deduplicated ledgers
	// (ack positions hang off slots), and it implies them.
	var out []LedgerEntry
	for s := 0; s < shards; s++ {
		var ref []byte
		for _, id := range ids {
			st := run.engines[id].Store(s)
			enc, _ := st.EncodeRange(0, st.Next())
			if id == ids[0] {
				ref = enc
			} else if !bytes.Equal(ref, enc) {
				return nil, fmt.Errorf("atomic broadcast %s: shard %d ledger at party %d differs from party %d",
					sess, s, id, ids[0])
			}
		}
		for _, e := range run.engines[ids[0]].Ledger(s) {
			// Copy the payloads: the ledger aliases a store the snapshot
			// servers keep serving for the cluster's lifetime, and a caller
			// mutating its result must not corrupt what peers sync.
			out = append(out, LedgerEntry{Shard: s, Slot: e.Slot, Party: e.Party,
				Payload: append([]byte(nil), e.Payload...)})
		}
	}
	return out, nil
}

// Submit routes one client operation into a RunAtomicBroadcast session
// that has no Payloads, through the front door at party. The stream id
// fixes the shard (the same stream always lands on the same shard, at
// every party); the call blocks until the op commits and returns its
// position, identical at every honest party. ErrOverloaded reports a full
// admission queue — retry against backpressure, nothing was enqueued.
// Submit may be called as soon as RunAtomicBroadcast has been started
// (typically from another goroutine, since that call blocks until the run
// completes); it waits for the session to register.
func (c *Cluster) Submit(session string, party int, stream, payload []byte) (SubmitPos, error) {
	if party < 0 || party >= c.cfg.N {
		return SubmitPos{}, fmt.Errorf("asyncft: Submit party %d out of range", party)
	}
	if _, bad := c.cfg.Byzantine[party]; bad {
		return SubmitPos{}, fmt.Errorf("asyncft: Submit party %d is Byzantine", party)
	}
	var run *ledgerRun
	for {
		c.runMu.Lock()
		run = c.runs["abc/"+session]
		added := c.runAdded
		c.runMu.Unlock()
		if run != nil {
			break
		}
		select {
		case <-added:
		case <-c.ctx.Done():
			return SubmitPos{}, fmt.Errorf("asyncft: Submit: no atomic-broadcast run with session %q", session)
		}
	}
	if run.engines == nil {
		return SubmitPos{}, fmt.Errorf("asyncft: Submit: session %q is a dynamic-membership run", session)
	}
	pos, err := run.engines[party].Submit(c.ctx, stream, payload)
	if err != nil {
		return SubmitPos{}, err
	}
	return SubmitPos(pos), nil
}

// SyncFrom runs a state-transfer client at party against the snapshot
// servers of the RunAtomicBroadcast session, fetching slots [lo, hi) and
// verifying them against the t+1-agreed head and digest chain before
// returning them (in slot order, pre-deduplication). It blocks until the
// honest servers have committed slot hi — so it may be called while the
// run is still in flight — and inherits statesync's Byzantine guarantees:
// lying servers cause at most a rejected response and a retry against
// another peer. It names no shard, so a session with Shards > 1 is an
// error.
func (c *Cluster) SyncFrom(session string, party, lo, hi int) ([]LedgerEntry, error) {
	if party < 0 || party >= c.cfg.N {
		return nil, fmt.Errorf("asyncft: SyncFrom party %d out of range", party)
	}
	if _, bad := c.cfg.Byzantine[party]; bad {
		return nil, fmt.Errorf("asyncft: SyncFrom party %d is Byzantine", party)
	}
	c.runMu.Lock()
	run := c.runs["abc/"+session]
	c.runMu.Unlock()
	if run == nil {
		return nil, fmt.Errorf("asyncft: SyncFrom: no atomic-broadcast run with session %q", session)
	}
	if run.syncName == "" {
		return nil, fmt.Errorf("asyncft: SyncFrom: session %q has more than one shard", session)
	}
	slots, err := statesync.Fetch(c.ctx, c.envs[party], run.syncName, lo, hi, nil, c.cfg.syncOptions())
	if err != nil {
		return nil, err
	}
	var out []LedgerEntry
	for _, entries := range slots {
		for _, e := range entries {
			out = append(out, LedgerEntry{Slot: e.Slot, Party: e.Party, Payload: e.Payload})
		}
	}
	return out, nil
}

// PartyIDs returns 0..N-1, a convenience for building input maps.
func (c *Cluster) PartyIDs() []int {
	ids := make([]int, c.cfg.N)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// agreeVal asserts all parties succeeded with the same value of type T and
// returns it. Parties are checked in ID order so a violation always blames
// the same party deterministically.
func agreeVal[T comparable](res map[int]result) (T, error) {
	var ref, zero T
	first := true
	ids := make([]int, 0, len(res))
	for id := range res {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		r := res[id]
		if r.err != nil {
			return zero, fmt.Errorf("party %d: %w", id, r.err)
		}
		v := r.value.(T)
		if first {
			ref, first = v, false
		} else if ref != v {
			return zero, fmt.Errorf("agreement violated: party %d output %v, expected %v", id, v, ref)
		}
	}
	return ref, nil
}

func agreeByte(res map[int]result) (byte, error) { return agreeVal[byte](res) }

func agreeBytes(res map[int]result) ([]byte, error) {
	var ref []byte
	first := true
	ids := make([]int, 0, len(res))
	for id := range res {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		r := res[id]
		if r.err != nil {
			return nil, fmt.Errorf("party %d: %w", id, r.err)
		}
		v := r.value.([]byte)
		if first {
			ref, first = v, false
		} else if string(ref) != string(v) {
			return nil, fmt.Errorf("agreement violated: party %d output %q, expected %q", id, v, ref)
		}
	}
	return ref, nil
}

var _ adversary.Behavior = behaviorFunc{}

// SecureSum runs asynchronous secure aggregation (internal/securesum):
// every honest party contributes its private input from the map, and the
// cluster returns the agreed sum over the agreed core set of contributors
// — without any individual honest input ever being opened.
func (c *Cluster) SecureSum(session string, inputs map[int]uint64) (uint64, []int, error) {
	res := c.run(func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		return securesum.Run(ctx, c.ctx, env, "ss/"+session, field.New(inputs[env.ID]), c.core)
	})
	var ref *securesum.Result
	ids := make([]int, 0, len(res))
	for id := range res {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		r := res[id]
		if r.err != nil {
			return 0, nil, fmt.Errorf("party %d: %w", id, r.err)
		}
		got := r.value.(*securesum.Result)
		if ref == nil {
			ref = got
			continue
		}
		if ref.Sum != got.Sum || len(ref.Contributors) != len(got.Contributors) {
			return 0, nil, fmt.Errorf("agreement violated: party %d sum %v set %v, expected %v %v",
				id, got.Sum, got.Contributors, ref.Sum, ref.Contributors)
		}
	}
	return ref.Sum.Uint64(), ref.Contributors, nil
}

// RandomInt draws an agreed random value in [0, m) from a beacon built on
// the strong common coin (rejection-sampled, so the only bias is the
// per-bit ε).
func (c *Cluster) RandomInt(session string, m int) (int, error) {
	res := c.run(func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		b := beacon.New(c.ctx, env, "bc/"+session, c.core)
		return b.Intn(ctx, m)
	})
	var ref int
	first := true
	ids := make([]int, 0, len(res))
	for id := range res {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		r := res[id]
		if r.err != nil {
			return 0, fmt.Errorf("party %d: %w", id, r.err)
		}
		v := r.value.(int)
		if first {
			ref, first = v, false
		} else if v != ref {
			return 0, fmt.Errorf("agreement violated: %d vs %d", v, ref)
		}
	}
	return ref, nil
}
