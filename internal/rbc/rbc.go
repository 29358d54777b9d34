// Package rbc implements asynchronous reliable broadcast, the Broadcast
// primitive the paper calls A-Cast (Definition 4.4, citing Bracha [6]), as
// one receiver state machine with a size-selected INIT:
//
//   - Classic Bracha echo (Run, and RunCoded below Options.CodedThreshold):
//     the sender's INIT carries the full value, parties ECHO the full value
//     and READY the full value. Information-theoretic — no hash is trusted —
//     which is what the paper's SVSS, coin and FBA run on. O(n²·|m|) bytes
//     per broadcast.
//   - Digest dispersal (RunCoded at or above the threshold): the sender
//     sends the full value once to every party (CINIT), a party that
//     receives it echoes only sha256(v) (CECHO, 33 bytes), READY is the
//     digest alone (CREADY), and a party delivers once it holds a 2t+1 READY
//     quorum for a digest and a value hashing to it. The value crosses each
//     link once: (n−1)·|m| + O(n²·33) bytes per broadcast, against
//     (2n+1)(n−1)·|m| for classic echo.
//
// "Coded" in RunCoded, Options.CodedThreshold and the
// rbc_deliveries_total{mode="coded"} series is the historical name of the
// above-threshold path — it used to be Reed–Solomon fragment dispersal —
// and now names digest dispersal; the rename waits for a benchmark-only
// change, because bench/ compiles against these names.
//
// Quorums are tallied per SHA-256 digest on both paths, each peer's ECHO
// and READY count once per instance whatever they carry, and one canonical
// copy of a value is kept per digest, so t Byzantine peers can make an
// instance retain at most 2n values (one per ECHO and READY) however much
// they send.
//
// Guarantees for n ≥ 3t+1 under any message scheduling; those of the
// digest path additionally assume SHA-256 collision resistance. The echo
// quorum is q = ⌈(n+t+1)/2⌉ (2t+1 at n = 3t+1), the READY quorum 2t+1, and
// t+1 READYs are amplified.
//
//   - Consistency: no two nonfaulty parties output different values. Two
//     sets of q echoers share more than t parties, hence a nonfaulty one,
//     and a nonfaulty party echoes once: only one digest can reach q
//     echoes. A nonfaulty party's READY follows q echoes or t+1 READYs —
//     one of them a nonfaulty party's, inductively for the same digest —
//     so every nonfaulty READY names that digest, no other digest reaches
//     2t+1 READYs, and an output always hashes to the digest of its READY
//     quorum.
//   - Validity: a nonfaulty sender's value is the output. All n−t ≥ q
//     nonfaulty parties receive it and echo its digest, so each sends
//     READY, collects 2t+1 of them, and holds the value from INIT.
//   - Totality: if any nonfaulty party outputs, every nonfaulty party
//     does. Its 2t+1 READYs include t+1 nonfaulty ones, which reach
//     everyone and are amplified, so every nonfaulty party completes the
//     READY quorum for the same digest d. The first nonfaulty READY saw q ≥
//     2t+1 echoes of d, so at least t+1 nonfaulty parties echoed d — and a
//     nonfaulty party echoes d only while holding v (it got v in INIT, or
//     its classic ECHO carries v) and broadcasts that echo to everyone. A
//     party whose quorum completes without v therefore pulls it: it sends
//     a CPULL naming d to the first t+1 distinct parties whose echo of d it
//     receives (at least t+1 nonfaulty echoes arrive, so it finds t+1
//     parties to ask, and at least one of them is nonfaulty and holds v),
//     and accepts a CFULL only from a party it asked and only if the bytes
//     hash to d. A holder answers each requester once, from its Run loop
//     before delivery and from a background helper after it, until the
//     caller's context ends, Options.Handoff closes or the session is
//     released (a retired ledger slot is recovered by state transfer
//     instead) — the helpers-outlive-the-local-return discipline the rest
//     of the repository uses.
//
// With a nonfaulty sender and timely links no pull fires: the value
// arrives in INIT a round before the READY quorum can form. A party whose
// link from the sender is slower than two rounds pulls t+1 copies it would
// not otherwise need. Under a Byzantine sender the worst case is the n−1
// INITs plus t+1 answered pulls per nonfaulty party, (n−1)·|m| +
// (n−t)(t+1)·|m| bytes; Byzantine requesters add at most t(n−t)·|m| (one
// answer per requester per holder). All of it stays inside the O(n²·|m|)
// of classic echo.
package rbc

import (
	"context"
	"crypto/sha256"
	"fmt"

	"asyncft/internal/obs"
	"asyncft/internal/runtime"
	"asyncft/internal/wire"
)

// Message types within a broadcast session: the classic full-value triple,
// the digest-dispersal triple (CINIT carries the value, CECHO and CREADY
// its digest), and the retransmission pair behind totality (CPULL asks a
// party that echoed a digest for the value, CFULL answers with it).
const (
	msgInit   uint8 = 1
	msgEcho   uint8 = 2
	msgReady  uint8 = 3
	msgCInit  uint8 = 4
	msgCEcho  uint8 = 5
	msgCReady uint8 = 6
	msgCPull  uint8 = 7
	msgCFull  uint8 = 8
)

// MaxValueSize bounds the payload accepted from the wire; larger claims are
// discarded as Byzantine garbage.
const MaxValueSize = 1 << 20

// DefaultCodedThreshold is the payload size, in bytes, at which RunCoded
// switches from classic echo to digest dispersal when
// Options.CodedThreshold is zero: two digests, just above the 33 bytes at
// which a digest echo stops being larger than the value it stands for.
// EXPERIMENTS.md (History) has the measurement against the earlier 512.
const DefaultCodedThreshold = 2 * sha256.Size

// Options tunes a broadcast instance. The zero value uses digest dispersal
// at and above DefaultCodedThreshold.
type Options struct {
	// CodedThreshold selects the dispersal strategy by payload size:
	// positive — payloads of at least this many bytes are echoed by digest;
	// zero — use DefaultCodedThreshold; negative — always classic echo.
	// Only the sender's option matters on the wire: receivers handle both
	// flavors regardless, so mixed configurations interoperate.
	CodedThreshold int
	// Handoff, when non-nil, controls the lifetime of the post-delivery
	// serving helper: it keeps answering retransmission pulls until the
	// channel closes (the caller signals that responsibility for the
	// delivered bytes has been handed off — e.g. to a snapshot server)
	// rather than until the protocol context ends. Without it a pull
	// racing the caller's context cancellation could go unanswered even
	// though the value was delivered locally. The channel must eventually
	// close (or the node close), or the helper leaks for the node's
	// lifetime. Nil keeps the historical context-bound lifetime.
	Handoff <-chan struct{}
	// Metrics, when non-nil, receives this instance's counters: deliveries
	// by dispersal mode, retransmission pulls sent/served, and pull replies
	// refuted by the digest check.
	Metrics *obs.Registry
}

// threshold resolves CodedThreshold against the default def; −1 is never.
func (o Options) threshold(def int) int {
	switch {
	case o.CodedThreshold > 0:
		return o.CodedThreshold
	case o.CodedThreshold < 0:
		return -1
	default:
		return def
	}
}

// initType is the sender's size-selected INIT: CINIT (echoed by digest) at
// or above the threshold, the classic full-value INIT below it.
func (o Options) initType(value []byte) uint8 {
	if thr := o.threshold(DefaultCodedThreshold); thr >= 0 && len(value) >= thr && len(value) > 0 {
		return msgCInit
	}
	return msgInit
}

// Run executes one reliable-broadcast instance identified by session using
// classic full-value echo. If env.ID == sender, value is broadcast; other
// parties pass value == nil. Every nonfaulty party must call Run (or
// RunCoded — the receive sides interoperate) for the instance to
// terminate. The returned bytes are the agreed value, a copy private to
// the caller.
func Run(ctx context.Context, env *runtime.Env, session string, sender int, value []byte) ([]byte, error) {
	return RunCoded(ctx, env, session, sender, value, Options{CodedThreshold: -1})
}

// RunCoded is Run with digest dispersal for payloads at or above the
// configured threshold: same Termination/Validity/Correctness contract and
// bit-identical outputs, with the value crossing each link once instead
// of 2n+1 times. Sender and receivers may use different Options; only the
// sender's threshold affects the wire.
func RunCoded(ctx context.Context, env *runtime.Env, session string, sender int, value []byte, opts Options) ([]byte, error) {
	if sender < 0 || sender >= env.N {
		return nil, fmt.Errorf("rbc %s: invalid sender %d", session, sender)
	}
	st := newState(env, session, sender, opts)
	if env.ID == sender {
		env.SendAll(session, opts.initType(value), value)
	}
	for {
		msg, err := env.Recv(ctx, session)
		if err != nil {
			return nil, fmt.Errorf("rbc %s: %w", session, err)
		}
		if out, done := st.handle(msg); done {
			// Keep answering retransmission pulls (and absorbing stragglers)
			// for slower parties until the context ends (or the snapshot
			// handoff completes, when Options.Handoff is set) — the state
			// machine is handed off to the helper, never touched here again.
			// The caller gets a private copy: the helper keeps reading the
			// canonical slice to answer pulls.
			go st.serve(ctx, opts.Handoff)
			return append([]byte(nil), out...), nil
		}
	}
}

// serve drains the session after local delivery so CPULL requests from
// parties still missing the value are answered. Its lifetime is the
// handoff's when one is given — serving continues past the protocol context
// until the handoff channel closes — and the context's otherwise; the node
// closing always ends it. On exit it drains messages already queued, so a
// pull that raced the cancellation is answered, not dropped.
func (st *state) serve(ctx context.Context, handoff <-chan struct{}) {
	serveUntil(ctx, handoff, st.env, st.session, func(msg wire.Envelope) { st.handle(msg) })
}

// serveUntil runs handle over a session's messages until the lifetime ends
// — the handoff closing (when non-nil) or ctx ending (otherwise), or the
// node closing either way — then drains what is already queued.
func serveUntil(ctx context.Context, handoff <-chan struct{}, env *runtime.Env, session string, handle func(wire.Envelope)) {
	rctx := ctx
	if handoff != nil {
		// Decouple from the caller's context: the handoff owns the
		// lifetime. Node close still ends Recv with ErrClosed.
		hctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-handoff:
			case <-done:
			}
			cancel()
		}()
		rctx = hctx
	}
	for {
		msg, err := env.Recv(rctx, session)
		if err != nil {
			break
		}
		handle(msg)
	}
	box := env.Node.Mailbox(session)
	for {
		msg, ok := box.TryRecv()
		if !ok {
			return
		}
		handle(msg)
	}
}

// digest identifies a broadcast value without holding its bytes.
type digest = [sha256.Size]byte

// digestLen is the size of a CECHO/CREADY/CPULL body: the digest as a
// length-prefixed byte string (wire.Writer.BytesField's encoding).
const digestLen = 1 + sha256.Size

// partySet is a set of party indices in [0, n).
type partySet []uint64

// partyWords is the length of a partySet over n parties.
func partyWords(n int) int { return (n + 63) / 64 }

func newPartySet(n int) partySet { return make(partySet, partyWords(n)) }

func (s partySet) has(i int) bool { return s[i>>6]&(1<<(i&63)) != 0 }

// add inserts i and reports whether it was absent.
func (s partySet) add(i int) bool {
	if s.has(i) {
		return false
	}
	s[i>>6] |= 1 << (i & 63)
	return true
}

// tally is what an instance knows about one digest.
type tally struct {
	echoed  partySet // who echoed it: the parties a pull may ask for the value
	echoes  int
	readies int
	// value is the canonical copy of the bytes hashing to the digest; held
	// tells an absent value from an empty one.
	value []byte
	held  bool
	// byDigest records that a CINIT or CECHO named the digest: the instance
	// is digest-dispersed from this party's point of view.
	byDigest bool
}

// pull is the retransmission a party runs when its READY quorum completes
// without the value, allocated when that first happens.
type pull struct {
	d       digest
	asked   partySet // sent a CPULL
	replied partySet // answered it, with whatever bytes
	n       int      // len(asked), at most t+1
}

// state is the per-instance receiver state machine, shared by both
// dispersal flavors.
type state struct {
	env     *runtime.Env
	session string
	sender  int

	echoed  bool
	readied bool

	// echoFrom and readyFrom admit one ECHO and one READY per peer, of
	// either flavor — a nonfaulty party sends exactly one of each — so
	// tallies holds at most 2n+1 digests. served marks requesters whose
	// pull this party answered.
	echoFrom  partySet
	readyFrom partySet
	served    partySet
	tallies   map[digest]*tally
	pull      *pull

	// body is the CECHO/CREADY/CPULL body last built, for bodyOf: a
	// party's echo and READY name the same digest unless the sender
	// equivocated. The first one lives in bodyBuf, inside the state's own
	// allocation.
	body    []byte
	bodyOf  digest
	bodyBuf [digestLen]byte

	// instrument handles (nil without Options.Metrics; all no-op then).
	// counted guards the delivery counters: serve keeps running the state
	// machine after delivery, so only the first delivery may count.
	counted         bool
	mDeliverClassic *obs.Counter
	mDeliverCoded   *obs.Counter
	mPullsSent      *obs.Counter
	mPullsServed    *obs.Counter
	mBadFull        *obs.Counter
}

func newState(env *runtime.Env, session string, sender int, opts Options) *state {
	words := partyWords(env.N)
	sets := make(partySet, 3*words)
	st := &state{
		env:       env,
		session:   session,
		sender:    sender,
		echoFrom:  sets[:words:words],
		readyFrom: sets[words : 2*words : 2*words],
		served:    sets[2*words:],
		tallies:   make(map[digest]*tally, 1),
	}
	if reg := opts.Metrics; reg != nil {
		deliveries := reg.CounterVec("rbc_deliveries_total", "Broadcast deliveries by dispersal mode (coded = digest dispersal).", "mode")
		st.mDeliverClassic = deliveries.With("classic")
		st.mDeliverCoded = deliveries.With("coded")
		st.mPullsSent = reg.Counter("rbc_pulls_sent_total", "Instances in which this party's READY quorum completed without the value and it pulled the value from parties that echoed its digest.")
		st.mPullsServed = reg.Counter("rbc_pulls_served_total", "Retransmission pulls this party answered with the full value.")
		st.mBadFull = reg.Counter("rbc_reconstruct_failures_total", "Pull replies refuted by the digest check.")
	}
	return st
}

// echoQuorum is ⌈(n+t+1)/2⌉, the number of echoes two of which always share
// a nonfaulty party; 2t+1 at n = 3t+1.
func (st *state) echoQuorum() int { return (st.env.N+st.env.T)/2 + 1 }

// handle advances the state machine by one message; done reports delivery.
func (st *state) handle(msg wire.Envelope) ([]byte, bool) {
	from := msg.From
	if from < 0 || from >= st.env.N || len(msg.Payload) > MaxValueSize {
		return nil, false
	}
	switch msg.Type {
	case msgInit:
		if from != st.sender || st.echoed {
			return nil, false
		}
		st.echoed = true
		st.env.SendAll(st.session, msgEcho, msg.Payload)
	case msgCInit:
		if from != st.sender || st.echoed {
			return nil, false
		}
		st.echoed = true
		d := sha256.Sum256(msg.Payload)
		tl := st.tally(d)
		tl.byDigest = true
		tl.hold(msg.Payload)
		st.env.SendAll(st.session, msgCEcho, st.digestBody(d))
		// The value can be the last thing a completed READY quorum lacked.
		return st.tryDeliver(d, tl)
	case msgEcho:
		if !st.echoFrom.add(from) {
			return nil, false
		}
		d := sha256.Sum256(msg.Payload)
		tl := st.tally(d)
		tl.hold(msg.Payload)
		return st.onEcho(d, tl, from)
	case msgCEcho:
		d, ok := parseDigest(msg.Payload)
		if !ok || !st.echoFrom.add(from) {
			return nil, false
		}
		tl := st.tally(d)
		tl.byDigest = true
		return st.onEcho(d, tl, from)
	case msgReady:
		if !st.readyFrom.add(from) {
			return nil, false
		}
		d := sha256.Sum256(msg.Payload)
		tl := st.tally(d)
		tl.hold(msg.Payload)
		return st.onReady(d, tl)
	case msgCReady:
		d, ok := parseDigest(msg.Payload)
		if !ok || !st.readyFrom.add(from) {
			return nil, false
		}
		return st.onReady(d, st.tally(d))
	case msgCPull:
		// A nonfaulty requester asks only parties whose echo of d it saw,
		// and a nonfaulty party holds what it echoed: a pull for anything
		// not held is Byzantine and retains nothing here.
		d, ok := parseDigest(msg.Payload)
		if !ok {
			return nil, false
		}
		if tl := st.tallies[d]; tl != nil && tl.held && st.served.add(from) {
			st.mPullsServed.Inc()
			st.env.Send(from, st.session, msgCFull, tl.value)
		}
	case msgCFull:
		p := st.pull
		if p == nil || !p.asked.has(from) || !p.replied.add(from) {
			return nil, false
		}
		if sha256.Sum256(msg.Payload) != p.d {
			st.mBadFull.Inc()
			return nil, false
		}
		tl := st.tallies[p.d]
		tl.hold(msg.Payload)
		return st.tryDeliver(p.d, tl)
	}
	return nil, false
}

// tally returns the record for d, creating it on first mention.
func (st *state) tally(d digest) *tally {
	tl := st.tallies[d]
	if tl == nil {
		tl = &tally{echoed: newPartySet(st.env.N)}
		st.tallies[d] = tl
	}
	return tl
}

// hold retains the canonical copy of the digest's value. The copy is
// private: an in-memory fabric hands every recipient the sender's slice.
func (tl *tally) hold(payload []byte) {
	if !tl.held {
		tl.value, tl.held = append([]byte(nil), payload...), true
	}
}

// onEcho counts from's echo of d — the caller admitted it as from's one
// echo of the instance — and drives READY, pulls and delivery.
func (st *state) onEcho(d digest, tl *tally, from int) ([]byte, bool) {
	tl.echoed.add(from)
	tl.echoes++
	if tl.echoes == st.echoQuorum() && !st.readied {
		st.sendReady(d, tl)
	}
	// An echo can supply the value a completed READY quorum lacked, or
	// name one more party to pull it from.
	return st.tryDeliver(d, tl)
}

// onReady counts one admitted READY for d (either flavor) and drives
// amplification and delivery.
func (st *state) onReady(d digest, tl *tally) ([]byte, bool) {
	tl.readies++
	if tl.readies == st.env.T+1 && !st.readied {
		st.sendReady(d, tl)
	}
	return st.tryDeliver(d, tl)
}

// sendReady emits this party's single READY. The classic path stays
// faithful to Bracha: READY carries the full value. An instance in which a
// CINIT or CECHO named the digest sends the 33-byte digest-only READY; so
// does amplification when the value is not at hand, which is safe because
// a party whose READY quorum completes without the value pulls it.
func (st *state) sendReady(d digest, tl *tally) {
	st.readied = true
	if tl.held && !tl.byDigest {
		st.env.SendAll(st.session, msgReady, tl.value)
		return
	}
	st.env.SendAll(st.session, msgCReady, st.digestBody(d))
}

// digestBody returns the CECHO/CREADY/CPULL body for d. Bodies are never
// written after they are built — recipients on an in-memory fabric share
// them — so a different digest gets a new one.
func (st *state) digestBody(d digest) []byte {
	if st.body != nil && st.bodyOf == d {
		return st.body
	}
	buf := st.bodyBuf[:0]
	if st.body != nil {
		buf = nil
	}
	st.body, st.bodyOf = appendDigest(buf, d), d
	return st.body
}

// appendDigest appends the CECHO/CREADY/CPULL body for d to dst.
func appendDigest(dst []byte, d digest) []byte {
	return append(append(dst, sha256.Size), d[:]...)
}

// parseDigest decodes a CECHO/CREADY/CPULL body.
func parseDigest(payload []byte) (digest, bool) {
	var d digest
	if len(payload) != digestLen || payload[0] != sha256.Size {
		return d, false
	}
	copy(d[:], payload[1:])
	return d, true
}

// tryDeliver outputs the value for d once its READY quorum is complete and
// the value is held. A complete quorum without the value asks for it.
func (st *state) tryDeliver(d digest, tl *tally) ([]byte, bool) {
	if tl.readies < 2*st.env.T+1 {
		return nil, false
	}
	if !tl.held {
		st.pullFrom(d, tl)
		return nil, false
	}
	if !st.counted {
		st.counted = true
		if tl.byDigest {
			st.mDeliverCoded.Inc()
		} else {
			st.mDeliverClassic.Inc()
		}
	}
	return tl.value, true
}

// pullFrom sends a CPULL for d to parties that echoed d and have not been
// asked, until t+1 have been: one of any t+1 is nonfaulty and holds the
// value. It runs again on every later echo of d, so it asks as the echoes
// arrive. Scanning from this party's successor spreads concurrent pullers
// over different holders.
func (st *state) pullFrom(d digest, tl *tally) {
	p := st.pull
	if p == nil {
		p = &pull{d: d, asked: newPartySet(st.env.N), replied: newPartySet(st.env.N)}
		st.pull = p
		st.mPullsSent.Inc()
	}
	if p.d != d {
		return // only one digest completes a READY quorum; see Consistency
	}
	n := st.env.N
	for k := 1; k < n && p.n <= st.env.T; k++ {
		i := (st.env.ID + k) % n
		if tl.echoed.has(i) && p.asked.add(i) {
			p.n++
			st.env.Send(i, st.session, msgCPull, st.digestBody(d))
		}
	}
}
