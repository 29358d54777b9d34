// Command node runs ONE party of the protocol stack over real TCP sockets —
// one process per party, communicating via internal/transport. Start n
// processes with the same peer list and they will jointly execute the
// requested protocol.
//
// Example (4 parties, one terminal each):
//
//	node -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 -t 1 -protocol coinflip -k 4
//	node -id 1 -peers ... (same list)
//	node -id 2 -peers ...
//	node -id 3 -peers ...
//
// Protocols: rbc (party 0 broadcasts -input), svss (party 0 deals -secret),
// ba (binary agreement on -bit), coinflip (strong common coin, -k rounds).
//
// -batch K runs K independent instances of the selected protocol
// concurrently over the same TCP transport, multiplexed by session
// namespacing (internal/batch) — the pipeline that keeps the sockets full
// instead of paying full protocol latency K times. All processes must use
// the same -batch value.
//
// -mode abc runs the atomic-broadcast ledger (internal/shard driving
// internal/acs): -slots slots pipeline -width wide, a slot commits all n
// batches after one confirmation round when every A-Cast delivers
// everywhere and falls back to CommonSubset over BCA agreement otherwise,
// and batches of at least rbc.DefaultCodedThreshold bytes are dispersed
// by digest (sent once, echoed as a SHA-256). That is the one
// configuration the binary starts; the slower slot paths exist as oracles
// for internal/experiments and the acs tests, not as deployment switches.
// The node prints the replicated ledger plus its SHA-256 digest —
// identical at every party, which is the whole point. All processes must
// use the same -slots, -width and -shards.
//
// Three independent parameters shape the run and combine freely:
//
//   - -shards S runs S independent ledger shards over the node's one
//     transport (0 = one, printed unsharded); every shard prints its own
//     listing and digest.
//   - -resume R turns the node into a restarted replica: per shard it
//     skips slots [0, R), catches them up via state transfer from its
//     peers (verifying every chunk against a t+1-agreed digest head),
//     participates live in slots [R, slots), and prints the same
//     bit-identical ledger as everyone else. Every node serves
//     digest-chain-verified ranges of its slot stores (internal/
//     statesync) concurrently with the live slots; -grace tunes how long a
//     finished node lingers to serve slower or catching-up peers.
//   - -serve addr opens a client-facing HTTP front door, and the ledger
//     then carries client operations instead of the -input batches
//     (without it every party contributes one -input-derived batch per
//     slot). Clients POST /submit?stream=ID with the payload as the body;
//     the op routes to a shard by a deterministic hash of its stream id,
//     rides that shard's next slot, and the response is its committed
//     (shard, slot, index) position — identical at every party. -queue
//     bounds the per-shard admission queue; a full queue answers 429
//     immediately. -serve must be set at every node or at none; the
//     address and -queue are node-local.
//
// -members switches -mode abc to dynamic membership (internal/reconfig):
// the ledger starts on the listed genesis subset of the peer universe and
// evolves via membership operations committed on the ledger itself. A node
// whose id is outside -members is a joiner: it bootstraps the committed
// prefix via state transfer and enters the member set when a committed
// AddParty operation activates. -submit schedules operations this node
// proposes ("slot:+party@addr" adds, "slot:-party" removes, comma-
// separated); -retire N is shorthand for proposing this node's own removal
// at slot N. The @addr of an add is gossiped on the ledger, so existing
// members learn a joiner's endpoint when the operation commits (they may
// leave its slot in -peers empty) — the transport adds the peer on commit.
// All nodes must agree on -members, -slots and -lag; -submit/-retire may
// differ per node, since the committed ledger, not the flag, is what every
// replica folds into the epoch schedule. Commitment orders an operation
// but does not authorize it: the schedule applies an operation only when
// the committed entries of one slot carry it from ≥ t+1 distinct members,
// so operators must -submit the same operation (same slot, same op; the
// @addr may vary) on at least t+1 member nodes — 2t+1 to be safe, since a
// slot's committed entries can omit up to t contributors. A lone -submit
// is harmless and inert, which is exactly what makes a Byzantine member's
// forged operation inert too.
//
// -mode mpc switches the node to secure circuit evaluation (internal/mpc):
// every party contributes one private input (-x, never revealed) and the
// cluster jointly evaluates the private-statistics circuit — sum and
// n²·variance of the contributed inputs — opening only the two aggregates,
// which print identically at every party.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"asyncft/internal/acs"
	"asyncft/internal/ba"
	"asyncft/internal/batch"
	"asyncft/internal/core"
	"asyncft/internal/field"
	"asyncft/internal/mpc"
	"asyncft/internal/obs"
	"asyncft/internal/rbc"
	"asyncft/internal/reconfig"
	"asyncft/internal/runtime"
	"asyncft/internal/shard"
	"asyncft/internal/statesync"
	"asyncft/internal/svss"
	"asyncft/internal/trace"
	"asyncft/internal/transport"
)

// options collects every flag so the node body is callable from tests.
type options struct {
	id       int
	peers    []string
	t        int
	mode     string
	protocol string
	input    string
	secret   uint64
	x        uint64
	bit      int
	k        int
	batch    int
	slots    int
	width    int
	resume   int
	shards   int
	serve    string
	queue    int
	seed     int64
	timeout  time.Duration
	grace    time.Duration

	// Observability: obsAddr serves /metrics, /healthz, /readyz and
	// net/http/pprof on the given address ("" = disabled); traceFile dumps
	// the run's slot-lifecycle spans as Chrome-trace JSON on exit.
	obsAddr   string
	traceFile string

	// Dynamic membership (-mode abc only): members is the genesis set
	// (empty = static run), submits the operations this node proposes,
	// retire the slot at which it proposes its own removal (0 = never),
	// lag the activation delay (0 = the reconfig default).
	members []int
	submits []reconfig.ScheduledChange
	retire  int
	lag     int
	pace    time.Duration
}

func main() {
	id := flag.Int("id", 0, "this party's index")
	peers := flag.String("peers", "", "comma-separated host:port for parties 0..n-1")
	tf := flag.Int("t", 1, "fault tolerance (3t+1 ≤ n)")
	mode := flag.String("mode", "proto", "proto (single-protocol instances) | abc (atomic broadcast ledger) | mpc (secure circuit evaluation)")
	protocol := flag.String("protocol", "coinflip", "rbc | svss | ba | coinflip")
	input := flag.String("input", "hello", "rbc: value broadcast by party 0; abc: batch prefix (unused with -serve)")
	secret := flag.Uint64("secret", 42, "svss: secret dealt by party 0")
	x := flag.Uint64("x", 0, "mpc: this party's private input (0 = derived from id)")
	bit := flag.Int("bit", 0, "ba: this party's input bit")
	k := flag.Int("k", 2, "coinflip: coin rounds")
	batchK := flag.Int("batch", 1, "concurrent protocol instances pipelined over the transport (same value at every party)")
	slots := flag.Int("slots", 4, "abc: number of atomic-broadcast slots (same value at every party)")
	width := flag.Int("width", 0, "abc: slots in flight at once (0 = all; same value at every party)")
	resume := flag.Int("resume", 0, "abc: restarted replica — skip slots [0,resume) of every shard, catch them up via state transfer from peers, join the live slots")
	shards := flag.Int("shards", 0, "abc: run this many independent ledger shards over the shared transport (0 = one, printed unsharded; same value at every party)")
	serve := flag.String("serve", "", "abc: client front door address (host:port) serving POST /submit and GET /log; the ledger then carries client ops instead of -input batches (set at every party or none)")
	queue := flag.Int("queue", 0, "abc: per-shard admission queue capacity behind -serve; a full queue answers 429 (0 = default)")
	members := flag.String("members", "", "abc: comma-separated genesis member ids — enables dynamic membership (same value at every node)")
	submit := flag.String("submit", "", "abc dynamic: membership ops to propose, e.g. 2:+4@127.0.0.1:7004,6:-1")
	retire := flag.Int("retire", 0, "abc dynamic: propose this node's own removal at the given slot (0 = never)")
	lagFlag := flag.Int("lag", 0, "abc dynamic: activation delay in slots for committed ops (0 = default)")
	pace := flag.Duration("pace", 0, "abc dynamic: minimum delay between this node's slot proposals — throttles the ledger so joiners and observers keep up (0 = full speed)")
	obsAddr := flag.String("obs", "", "operational HTTP endpoint address (host:port) serving /metrics, /healthz, /readyz and /debug/pprof (empty = disabled)")
	traceFile := flag.String("tracefile", "", "write the run's slot-lifecycle spans as Chrome-trace JSON to this file (load via chrome://tracing or Perfetto)")
	seed := flag.Int64("seed", 0, "randomness seed (default: derived from id)")
	timeout := flag.Duration("timeout", 2*time.Minute, "protocol deadline")
	grace := flag.Duration("grace", 500*time.Millisecond, "linger after completion so helper goroutines can serve slower peers (0 = the 500ms default, negative = exit immediately)")
	flag.Parse()

	o := options{
		id: *id, t: *tf, mode: *mode, protocol: *protocol, input: *input,
		secret: *secret, x: *x, bit: *bit, k: *k, batch: *batchK, slots: *slots,
		width: *width, resume: *resume,
		shards: *shards, serve: *serve, queue: *queue, seed: *seed,
		timeout: *timeout, grace: *grace, retire: *retire, lag: *lagFlag,
		pace: *pace, obsAddr: *obsAddr, traceFile: *traceFile,
	}
	for _, a := range strings.Split(*peers, ",") {
		o.peers = append(o.peers, strings.TrimSpace(a))
	}
	var err error
	if o.members, err = parseMembers(*members); err != nil {
		log.Fatal(err)
	}
	if o.submits, err = parseChanges(*submit); err != nil {
		log.Fatal(err)
	}
	if err := runNode(o, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// obsState carries the node's observability plane across the mode
// runners: the shared metrics registry (nil when -obs is off), the span
// recorder (nil when -tracefile is off), and the state-transfer readiness
// the /readyz probe folds in when the node is resuming.
type obsState struct {
	reg *obs.Registry
	rec *trace.Recorder

	// syncing is set by runLedger before a resuming node's state transfer
	// starts: /readyz stays 503 until every shard store's contiguous
	// prefix reaches syncTarget, the resume slot.
	syncing    atomic.Pointer[shard.Engine]
	syncTarget int
}

// runNode executes one party end to end and writes its outputs to out. It
// is the whole node behind the flags, factored out so the e2e test can run
// n parties in-process over loopback TCP.
func runNode(o options, out io.Writer) error {
	n := len(o.peers)
	if n < 3*o.t+1 {
		return fmt.Errorf("need n ≥ 3t+1 peers, got n=%d t=%d", n, o.t)
	}
	if o.id < 0 || o.id >= n {
		return fmt.Errorf("id %d out of range for %d peers", o.id, n)
	}
	if o.batch < 1 {
		return fmt.Errorf("-batch must be ≥ 1, got %d", o.batch)
	}
	if o.mode != "proto" && o.mode != "abc" && o.mode != "mpc" {
		return fmt.Errorf("unknown mode %q (want proto, abc or mpc)", o.mode)
	}
	addrs := map[int]string{}
	for i, a := range o.peers {
		addrs[i] = a
	}
	if o.seed == 0 {
		o.seed = int64(o.id + 1)
	}

	node := runtime.NewNode(o.id, n, o.t)
	tcp, err := transport.Listen(o.id, addrs, node.Dispatch)
	if err != nil {
		return err
	}
	defer tcp.Close()
	defer node.Close()
	env := runtime.NewEnv(o.id, n, o.t, node, tcp, o.seed)

	ob := &obsState{}
	if o.traceFile != "" {
		ob.rec = trace.New(64 * 1024)
	}
	if o.obsAddr != "" {
		ob.reg = obs.NewRegistry()
		tcp.Instrument(ob.reg)
		node.Instrument(ob.reg)
		ready := func() error {
			if got, need := tcp.ConnectedPeers()+1, n-o.t; got < need {
				return fmt.Errorf("connected to %d/%d parties (need %d)", got, n, need)
			}
			if eng := ob.syncing.Load(); eng != nil {
				for s := 0; s < eng.Shards(); s++ {
					if at := eng.Store(s).Next(); at < ob.syncTarget {
						return fmt.Errorf("state transfer of shard %d at slot %d/%d", s, at, ob.syncTarget)
					}
				}
			}
			return nil
		}
		srv, err := obs.StartServer(o.obsAddr, obs.ServerOptions{Registry: ob.reg, Ready: ready})
		if err != nil {
			return fmt.Errorf("obs endpoint: %w", err)
		}
		defer srv.Close()
		log.Printf("party %d observability on http://%s (/metrics /healthz /readyz /debug/pprof)", o.id, srv.Addr())
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.timeout)
	defer cancel()

	start := time.Now()
	switch o.mode {
	case "abc":
		if err := runLedger(ctx, env, o, ob, out); err != nil {
			return err
		}
	case "mpc":
		if err := runMPC(ctx, env, o, ob, out); err != nil {
			return err
		}
	default:
		if err := runProtocol(ctx, env, o, out); err != nil {
			return err
		}
	}
	if o.traceFile != "" {
		f, err := os.Create(o.traceFile)
		if err != nil {
			return fmt.Errorf("tracefile: %w", err)
		}
		if err := ob.rec.WriteChrome(f); err != nil {
			f.Close()
			return fmt.Errorf("tracefile: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("tracefile: %w", err)
		}
		log.Printf("party %d wrote %d trace events to %s", o.id, ob.rec.Len(), o.traceFile)
	}
	log.Printf("party %d completed in %v", o.id, time.Since(start).Round(time.Millisecond))
	// Give lingering helper goroutines a beat (and snapshot servers a
	// window) to serve slower or catching-up peers before tearing down.
	// Zero means the 500ms default; negative disables the linger.
	grace := o.grace
	if grace == 0 {
		grace = 500 * time.Millisecond
	}
	if grace > 0 {
		time.Sleep(grace)
	}
	return nil
}

// runLedger is -mode abc: the atomic-broadcast ledger. A static member
// set runs one shard.Engine — -shards, -resume and the batch source
// (-input, or the -serve front door) are its parameters; -members hands
// over to the dynamic-membership driver.
func runLedger(ctx context.Context, env *runtime.Env, o options, ob *obsState, out io.Writer) error {
	if o.slots < 1 {
		return fmt.Errorf("-slots must be ≥ 1, got %d", o.slots)
	}
	if o.resume < 0 || o.resume >= o.slots {
		return fmt.Errorf("-resume must be in [0, slots), got %d", o.resume)
	}
	if o.shards < 0 {
		return fmt.Errorf("-shards must be ≥ 0, got %d", o.shards)
	}
	cfg := core.Config{K: o.k, Eps: 0.1, InnerCoin: core.InnerCoinLocal, Metrics: ob.reg, Trace: ob.rec}
	const sess = "node/abc"
	if len(o.members) > 0 {
		if o.shards > 0 || o.resume > 0 || o.serve != "" {
			return fmt.Errorf("-members is incompatible with -shards, -resume and -serve")
		}
		defer logAgreement(env.ID, ob.reg)
		return runDynamicLedger(ctx, env, o, sess, cfg, out)
	}
	// With a front door the admission queue feeds the slots; without one
	// nothing could ever reach the queue, so -input does.
	var input func(slot int) []byte
	if o.serve == "" {
		input = func(slot int) []byte {
			return []byte(fmt.Sprintf("%s/p%d/s%d", o.input, env.ID, slot))
		}
	}
	shards := o.shards
	if shards == 0 {
		shards = 1
	}
	eng, err := shard.New(env, shard.Options{
		Session:  sess,
		Shards:   shards,
		Slots:    o.slots,
		From:     o.resume,
		Width:    o.width,
		Input:    input,
		QueueCap: o.queue,
		Core:     cfg,
		Sync:     statesync.Options{Metrics: ob.reg},
	})
	if err != nil {
		return err
	}
	if o.resume > 0 {
		// /readyz additionally waits for the missed prefix to install.
		ob.syncTarget = o.resume
		ob.syncing.Store(eng)
	}
	log.Printf("party %d/%d on %s: atomic broadcast, %d shard(s) × %d slot(s) width %d resume=%d queue %d",
		env.ID, env.N, addrOf(env), shards, o.slots, o.width, o.resume, o.queue)
	if o.serve != "" {
		stop, err := serveClients(env.ID, o.serve, eng)
		if err != nil {
			return err
		}
		defer stop()
	}
	if err := eng.Run(ctx, ctx); err != nil {
		return err
	}
	for s := 0; s < shards; s++ {
		name := "ledger"
		if o.shards > 0 {
			name = fmt.Sprintf("shard[%d]", s)
		}
		ledger := eng.Ledger(s)
		if input == nil {
			writeShardLog(out, eng, s)
		} else {
			for i, e := range ledger {
				fmt.Fprintf(out, "%s[%d] slot=%d party=%d payload=%q\n", name, i, e.Slot, e.Party, e.Payload)
			}
		}
		fmt.Fprintf(out, "%s digest: %x (%d entries)\n", name, acs.Digest(ledger), len(ledger))
	}
	logAgreement(env.ID, ob.reg)
	return nil
}

// logAgreement reports the agreement core's work from the node's metrics
// registry: fast-path hit rate and BA rounds per decision. The numbers are
// per party (a resumed replica runs fewer slots live), so they go to the
// log, keeping stdout bit-identical across parties.
func logAgreement(id int, reg *obs.Registry) {
	if reg == nil {
		return
	}
	log.Printf("party %d agreement: slots=%.0f fast=%.0f fallback=%.0f ba=%.0f rounds=%.0f", id,
		reg.Total("acs_slots_committed_total"), reg.Total("acs_fastpath_hits_total"),
		reg.Total("acs_fastpath_fallbacks_total"), reg.Total("ba_decisions_total"), reg.Total("ba_rounds_total"))
}

// runDynamicLedger is -mode abc with -members: the dynamic-membership
// ledger (internal/reconfig). The node plays whatever role the committed
// schedule assigns it — genesis member, joiner, observer, or removed
// party following the ledger to the end — and prints the same listing,
// digest and final member set as every other node. Committed AddParty
// operations that carry an address feed the transport's peer table, which
// is how existing members learn a joiner's endpoint mid-run.
func runDynamicLedger(ctx context.Context, env *runtime.Env, o options, sess string, cfg core.Config, out io.Writer) error {
	src := reconfig.NewSource(o.submits...)
	if o.retire > 0 {
		src.Schedule(reconfig.ScheduledChange{
			Slot:   o.retire,
			Change: reconfig.Change{Add: false, Party: env.ID},
		})
	}
	tcp, _ := env.Net.(*transport.TCP)
	log.Printf("party %d/%d on %s: dynamic-membership ledger, genesis %v, %d slot(s) lag %d",
		env.ID, env.N, addrOf(env), o.members, o.slots, o.lag)
	res, err := reconfig.Run(ctx, ctx, env, reconfig.Options{
		Session: sess,
		Genesis: o.members,
		Lag:     o.lag,
		Slots:   o.slots,
		Width:   o.width,
		Input: func(slot int) []byte {
			if o.pace > 0 {
				time.Sleep(o.pace) // throttle admission so late joiners catch the live frontier
			}
			return []byte(fmt.Sprintf("%s/p%d/s%d", o.input, env.ID, slot))
		},
		Core:   cfg,
		Source: src,
		// A joiner's very first head request races the commit that teaches
		// the members its address; re-ask well under a slot interval so the
		// lost request costs milliseconds, not the whole run.
		Sync: statesync.Options{HeadRetry: 100 * time.Millisecond, Metrics: cfg.Metrics},
		OnChange: func(ch reconfig.Change, slot int) {
			if ch.Add && ch.Addr != "" && tcp != nil {
				tcp.AddPeer(ch.Party, ch.Addr)
			}
		},
	})
	if err != nil {
		return err
	}
	if res.JoinedAt >= 0 {
		log.Printf("party %d joined the member set at slot %d", env.ID, res.JoinedAt)
	}
	if res.RemovedAt >= 0 {
		log.Printf("party %d left the member set at slot %d (following as observer)", env.ID, res.RemovedAt)
	}
	for i, e := range res.Ledger {
		fmt.Fprintf(out, "ledger[%d] slot=%d party=%d payload=%q\n", i, e.Slot, e.Party, e.Payload)
	}
	fmt.Fprintf(out, "ledger digest: %x (%d entries)\n", acs.Digest(res.Ledger), len(res.Ledger))
	fmt.Fprintf(out, "final members: %v (%d epochs)\n", res.FinalMembers, res.Epochs)
	return nil
}

// parseMembers parses the -members genesis list ("0,1,2,3"; empty = static).
func parseMembers(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		var id int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &id); err != nil {
			return nil, fmt.Errorf("-members: bad id %q", part)
		}
		out = append(out, id)
	}
	sort.Ints(out)
	return out, nil
}

// parseChanges parses the -submit operation list: comma-separated items of
// the form "slot:+party@addr" (add, @addr optional) or "slot:-party".
func parseChanges(s string) ([]reconfig.ScheduledChange, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []reconfig.ScheduledChange
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		slotStr, opStr, ok := strings.Cut(item, ":")
		if !ok || opStr == "" {
			return nil, fmt.Errorf("-submit: bad op %q (want slot:+party@addr or slot:-party)", item)
		}
		var slot int
		if _, err := fmt.Sscanf(slotStr, "%d", &slot); err != nil {
			return nil, fmt.Errorf("-submit: bad slot in %q", item)
		}
		add := opStr[0] == '+'
		if !add && opStr[0] != '-' {
			return nil, fmt.Errorf("-submit: op %q must start with + or -", item)
		}
		partyStr, addr, _ := strings.Cut(opStr[1:], "@")
		var party int
		if _, err := fmt.Sscanf(partyStr, "%d", &party); err != nil {
			return nil, fmt.Errorf("-submit: bad party in %q", item)
		}
		if !add && addr != "" {
			return nil, fmt.Errorf("-submit: removal %q cannot carry an address", item)
		}
		out = append(out, reconfig.ScheduledChange{
			Slot:   slot,
			Change: reconfig.Change{Add: add, Party: party, Addr: addr},
		})
	}
	return out, nil
}

// runMPC is -mode mpc: secure evaluation of the private-statistics
// circuit (internal/mpc.VarianceCircuit) over real TCP. Every party
// contributes one private input (-x); the cluster opens only the two
// aggregates [Σx, n·Σx² − (Σx)²], identical at every party, from which
// mean and variance derive publicly.
func runMPC(ctx context.Context, env *runtime.Env, o options, ob *obsState, out io.Writer) error {
	cfg := core.Config{K: o.k, Eps: 0.1, InnerCoin: core.InnerCoinLocal, Metrics: ob.reg, Trace: ob.rec}
	x := o.x
	if x == 0 {
		x = uint64(3*o.id + 2)
	}
	log.Printf("party %d/%d on %s: mpc variance circuit, private input %d", env.ID, env.N, addrOf(env), x)
	ckt := mpc.VarianceCircuit(env.N)
	res, err := mpc.Evaluate(ctx, ctx, env, "node/mpc", ckt, []field.Elem{field.New(x)}, cfg, mpc.Options{Width: o.width})
	if err != nil {
		return err
	}
	sum := res.Outputs[0].Uint64()
	scaled := res.Outputs[1].Uint64() // n²·Var over the contributed inputs
	fmt.Fprintf(out, "mpc contributors: %v\n", res.Contributors)
	fmt.Fprintf(out, "mpc sum(x) = %d\n", sum)
	fmt.Fprintf(out, "mpc n²·var(x) = %d\n", scaled)
	n2 := float64(env.N) * float64(env.N)
	fmt.Fprintf(out, "mpc mean = %.4f variance = %.4f (over %d contributed inputs, absentees as 0)\n",
		float64(sum)/float64(env.N), float64(scaled)/n2, len(res.Contributors))
	return nil
}

// runProtocol is -mode proto: -batch K instances of one protocol.
func runProtocol(ctx context.Context, env *runtime.Env, o options, out io.Writer) error {
	// One instance body per protocol; -batch builds K of them on
	// namespaced sessions and pipelines them over the single transport.
	mkInstance := func(sess string) (batch.Instance, error) {
		switch o.protocol {
		case "rbc":
			return batch.Instance{Session: sess, Run: func(ctx context.Context, env *runtime.Env) (interface{}, error) {
				var in []byte
				if env.ID == 0 {
					in = []byte(o.input)
				}
				v, err := rbc.Run(ctx, env, sess, 0, in)
				return fmt.Sprintf("delivered: %q", v), err
			}}, nil
		case "svss":
			return batch.Instance{Session: sess, Run: func(ctx context.Context, env *runtime.Env) (interface{}, error) {
				sh, err := svss.RunShare(ctx, env, sess, 0, field.New(o.secret))
				if err != nil {
					return nil, fmt.Errorf("share: %w", err)
				}
				v, err := svss.RunRec(ctx, env, sh, svss.Options{})
				if err != nil {
					return nil, err
				}
				return fmt.Sprintf("reconstructed: %d", v.Uint64()), nil
			}}, nil
		case "ba":
			return batch.Instance{Session: sess, Run: func(ctx context.Context, env *runtime.Env) (interface{}, error) {
				v, err := ba.Run(ctx, env, sess, byte(o.bit&1), ba.LocalCoin(env), ba.Options{})
				return fmt.Sprintf("agreed: %d", v), err
			}}, nil
		case "coinflip":
			return batch.Instance{Session: sess, Run: func(ctx context.Context, env *runtime.Env) (interface{}, error) {
				cfg := core.Config{K: o.k, Eps: 0.1, InnerCoin: core.InnerCoinLocal}
				v, err := core.CoinFlip(ctx, ctx, env, sess, cfg)
				return fmt.Sprintf("coin: %d", v), err
			}}, nil
		default:
			return batch.Instance{}, fmt.Errorf("unknown protocol %q", o.protocol)
		}
	}

	// Session roots match the pre-batch wire format ("node/cf" for the
	// coin), so a -batch 1 run interoperates with older binaries.
	root := "node/" + o.protocol
	if o.protocol == "coinflip" {
		root = "node/cf"
	}
	instances := make([]batch.Instance, o.batch)
	for i := range instances {
		sess := root
		if o.batch > 1 {
			sess = fmt.Sprintf("%s/%d", root, i)
		}
		inst, err := mkInstance(sess)
		if err != nil {
			return err
		}
		instances[i] = inst
	}

	log.Printf("party %d/%d on %s: running %s ×%d", env.ID, env.N, addrOf(env), o.protocol, o.batch)
	res, err := batch.Run(ctx, map[int]*runtime.Env{env.ID: env}, instances, batch.Options{})
	if err != nil {
		return fmt.Errorf("batch setup: %w", err)
	}
	for i, m := range res {
		r := m[env.ID]
		if r.Err != nil {
			return fmt.Errorf("instance %s failed: %w", instances[i].Session, r.Err)
		}
		fmt.Fprintf(out, "[%s] %v\n", instances[i].Session, r.Value)
	}
	return nil
}

// addrOf names the transport endpoint for logs (best effort).
func addrOf(env *runtime.Env) string {
	if t, ok := env.Net.(*transport.TCP); ok {
		return t.Addr()
	}
	return "?"
}
