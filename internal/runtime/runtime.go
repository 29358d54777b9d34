// Package runtime provides the per-party execution substrate: session-
// addressed unbounded mailboxes, the protocol environment handed to every
// protocol instance, and the shun registry required by the SVSS contract.
//
// Protocols are written in blocking style: each instance runs in its own
// goroutine, owns a hierarchical session ID, and receives exactly the
// messages addressed to that session. Mailboxes are created on demand by
// either the first incoming message or the first local receive, so messages
// that arrive before the local instance starts are buffered — a hard
// requirement of the asynchronous model, where a fast peer may be several
// protocol phases ahead.
//
// A mailbox lives until its node closes, a RoutePrefix claim adopts it, or
// the subtree it belongs to is released. Release(session) retires one
// instance — a finished FBA, FairChoice or CoinFlip call (internal/core) —
// and ReleaseBelow(family, k) the instances family/0 … family/(k−1) — the
// slots of a ledger a quorum has stored (internal/shard). Either closes and
// deletes every mailbox at or under the released sessions (every blocked
// receiver returns ErrClosed, which is how the instance's helper goroutines
// end) and leaves a tombstone, so a late or hostile frame for a released
// instance is dropped instead of minting its mailbox again.
//
// Tombstones are one mechanism, a trie over path segments (see tomb): the
// released numbered children of a session are a sorted set of coalesced
// integer intervals — ReleaseBelow(family, k) is the interval [0, k), and
// family/0, family/1, … released one by one in any order cost one interval
// per gap, not one entry per instance — a released child with any other
// name is one entry, and releasing a session drops every tombstone beneath
// it. A session pays for the trie only when it has no mailbox yet.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"asyncft/internal/obs"
	"asyncft/internal/wire"
)

// ErrClosed is returned by Recv when the node shuts down or the mailbox's
// session is released.
var ErrClosed = errors.New("runtime: node closed")

// Node is one party's runtime state.
type Node struct {
	id, n, t int

	mu      sync.Mutex
	boxes   map[string]*Mailbox
	tombs   tomb           // released sessions (see Release, ReleaseBelow)
	routes  []*route       // prefix handlers, consulted before mailboxes
	shunGen map[int]uint64 // party -> generation at which it was shunned
	gen     uint64         // monotonically increases with each new mailbox
	shuns   int            // total shun events recorded by this node
	closed  bool

	// instrument handles (nil without Instrument; all updates no-op then).
	activeBoxes *obs.Gauge   // mailboxes currently registered
	sessions    *obs.Counter // mailboxes ever created
	depthHW     *obs.Gauge   // deepest any mailbox has been
}

// Instrument registers the runtime's metrics on reg: active session
// count, total sessions opened, and the mailbox depth high-water mark (a
// growing value means some instance is falling behind its traffic). Call
// before protocol traffic flows; a nil registry is a no-op.
func (nd *Node) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.activeBoxes = reg.Gauge("runtime_sessions_active", "Session mailboxes currently registered.")
	nd.sessions = reg.Counter("runtime_sessions_total", "Session mailboxes ever created.")
	nd.depthHW = reg.Gauge("runtime_mailbox_depth_highwater", "Peak envelopes buffered in any one session mailbox.")
}

// route diverts every envelope whose session starts with prefix to h
// instead of a mailbox. Routes carry epoch-group traffic in
// internal/reconfig: one physical node hosts a sequence of virtual
// per-epoch nodes, each claiming its session subtree.
type route struct {
	prefix string
	h      func(wire.Envelope)
}

// NewNode creates a node for party id among n parties tolerating t faults.
func NewNode(id, n, t int) *Node {
	return &Node{
		id:      id,
		n:       n,
		t:       t,
		boxes:   make(map[string]*Mailbox),
		shunGen: make(map[int]uint64),
	}
}

// ID returns this party's index.
func (nd *Node) ID() int { return nd.id }

// Dispatch routes an incoming envelope to its session mailbox, applying the
// shun filter. It is the network.Handler for this node. The envelope's
// session string is interned against the mailbox's canonical instance
// before the envelope is retained, so a hot session decoded from the wire
// thousands of times pins exactly one string: freshly decoded duplicates
// become garbage at the next GC instead of accumulating in mailboxes.
//
// Sessions claimed by a RoutePrefix handler bypass mailboxes (and the shun
// filter — a routed subtree does its own sender admission). The route check
// and the mailbox push happen under one critical section, so a message is
// either seen by RoutePrefix's adoption sweep or diverted to the route;
// none can slip into a mailbox the sweep already drained.
//
// An envelope for a released session (see Release) is dropped.
func (nd *Node) Dispatch(env wire.Envelope) {
	nd.mu.Lock()
	for i := len(nd.routes) - 1; i >= 0; i-- {
		if r := nd.routes[i]; strings.HasPrefix(env.Session, r.prefix) {
			nd.mu.Unlock()
			r.h(env)
			return
		}
	}
	box := nd.box(env.Session)
	if box == retiredBox {
		nd.mu.Unlock()
		return
	}
	env.Session = box.session
	if g, shunned := nd.shunGen[env.From]; shunned && box.gen > g {
		// Shunned parties are ignored in interactions that began after the
		// shun event; mailboxes opened earlier keep accepting (the paper:
		// "accepted messages from it in the current invocation, but won't
		// accept any messages from it in future interactions").
		nd.mu.Unlock()
		return
	}
	box.push(env)
	nd.mu.Unlock()
}

// RoutePrefix claims the session subtree rooted at prefix: every envelope
// whose session starts with prefix is handed to h instead of a mailbox,
// from this call on. Messages that arrived before the claim are not lost —
// mailboxes already buffering sessions under the prefix are adopted:
// removed from the node, drained into h in arrival order, and closed. The
// returned function releases the claim (buffered messages handed to h are
// not returned).
//
// h is called from Dispatch's goroutine (the transport read loop or the
// simulated router) and must not block.
func (nd *Node) RoutePrefix(prefix string, h func(wire.Envelope)) (remove func()) {
	r := &route{prefix: prefix, h: h}
	nd.mu.Lock()
	nd.routes = append(nd.routes, r)
	adopted := nd.reap(func(s string) bool { return strings.HasPrefix(s, prefix) })
	nd.mu.Unlock()
	for _, b := range adopted {
		for {
			env, ok := b.TryRecv()
			if !ok {
				break
			}
			h(env)
		}
		b.close()
	}
	return func() {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		for i, cur := range nd.routes {
			if cur == r {
				nd.routes = append(nd.routes[:i], nd.routes[i+1:]...)
				return
			}
		}
	}
}

// box returns (creating if needed) the mailbox for a session, or
// retiredBox for a released one. Caller holds mu.
func (nd *Node) box(session string) *Mailbox {
	b := nd.boxes[session]
	if b == nil {
		if nd.retired(session) {
			return retiredBox
		}
		nd.gen++
		b = newMailbox(session, nd.gen)
		b.depthHW = nd.depthHW
		if nd.closed {
			b.close()
		}
		nd.boxes[session] = b
		nd.sessions.Inc()
		nd.activeBoxes.Set(int64(len(nd.boxes)))
	}
	return b
}

// Mailbox returns the mailbox for a session, creating it if necessary. A
// released session (see Release) gets a closed, empty mailbox: Recv on it
// returns ErrClosed at once and nothing is registered.
func (nd *Node) Mailbox(session string) *Mailbox {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.box(session)
}

// retiredBox stands in for every released session's mailbox: closed and
// empty, so pushes are dropped and receives fail with ErrClosed. It is
// never mutated after init.
var retiredBox = func() *Mailbox {
	b := newMailbox("", 0)
	b.close()
	return b
}()

// Shun records that this party shuns party j from now on: j's messages are
// dropped for all sessions opened after this call. Shunning is idempotent;
// only the first call per peer counts as a shun event.
func (nd *Node) Shun(j int) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if _, ok := nd.shunGen[j]; ok {
		return
	}
	nd.shunGen[j] = nd.gen
	nd.shuns++
}

// Shunned reports whether party j is currently shunned.
func (nd *Node) Shunned(j int) bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	_, ok := nd.shunGen[j]
	return ok
}

// ShunCount returns the number of shun events this node has recorded.
func (nd *Node) ShunCount() int {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.shuns
}

// Close releases every mailbox; blocked receivers return ErrClosed.
func (nd *Node) Close() {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.closed = true
	for _, b := range nd.boxes {
		b.close()
	}
}

// ErrExpired is returned by RecvUntil when the caller's timer fired before
// a message arrived.
var ErrExpired = errors.New("runtime: receive timer expired")

// Mailbox is an unbounded FIFO of envelopes for one session. session is
// the canonical interned copy of the session string; Dispatch rewrites
// inbound envelopes to it.
type Mailbox struct {
	session string
	gen     uint64
	depthHW *obs.Gauge // shared node-wide high-water (nil = uninstrumented)

	mu sync.Mutex
	// The queue is items[head:]. Popping advances head instead of slicing
	// the front off, so the backing array's capacity survives: a mailbox
	// that alternates push and pop — the normal case — never reallocates.
	items  []wire.Envelope
	head   int
	notify chan struct{} // one token while a push may be unconsumed; wakes one receiver
	done   chan struct{} // closed with the mailbox; wakes every receiver
	closed bool
}

func newMailbox(session string, gen uint64) *Mailbox {
	return &Mailbox{session: session, gen: gen, notify: make(chan struct{}, 1), done: make(chan struct{})}
}

func (b *Mailbox) push(env wire.Envelope) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	if b.head > len(b.items)/2 {
		// The dead prefix outgrew the live queue: move the queue to the
		// front (amortised against the pops that made the prefix) and
		// clear what it leaves behind, so payloads stay collectable.
		n := copy(b.items, b.items[b.head:])
		for i := n; i < len(b.items); i++ {
			b.items[i] = wire.Envelope{}
		}
		b.items, b.head = b.items[:n], 0
	}
	b.items = append(b.items, env)
	depth := len(b.items) - b.head
	b.mu.Unlock()
	b.depthHW.SetMax(int64(depth))
	b.wake()
}

// wake leaves a token for one receiver.
func (b *Mailbox) wake() {
	select {
	case b.notify <- struct{}{}:
	default:
	}
}

// pop removes the head of a non-empty queue. Caller holds mu.
func (b *Mailbox) pop() wire.Envelope {
	env := b.items[b.head]
	b.items[b.head] = wire.Envelope{}
	if b.head++; b.head == len(b.items) {
		b.items, b.head = b.items[:0], 0
	}
	return env
}

// close marks the mailbox closed and wakes every blocked receiver: each
// drains what is queued and then returns ErrClosed. notify could not do
// this — it holds one token, and push sends on it after dropping the lock,
// so it can be neither broadcast on nor closed.
func (b *Mailbox) close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.done)
	}
	b.mu.Unlock()
}

// TryRecv returns the next queued message without blocking. It is the
// drain primitive helper goroutines use on shutdown: answer what is
// already queued (e.g. retransmission pulls racing a context
// cancellation) instead of dropping it.
func (b *Mailbox) TryRecv() (wire.Envelope, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.head == len(b.items) {
		return wire.Envelope{}, false
	}
	return b.pop(), true
}

// Recv blocks until a message is available, the context is cancelled, or
// the mailbox closes (its node shut down or its session was released).
func (b *Mailbox) Recv(ctx context.Context) (wire.Envelope, error) {
	return b.RecvUntil(ctx, nil)
}

// RecvUntil is Recv that also gives up, with ErrExpired, when expired
// delivers — the channel of a timer the caller owns and re-arms, so a loop
// with an idle deadline holds one timer for its lifetime instead of
// building a deadline context per receive. A queued message wins over a
// timer that has already fired. A nil channel never expires.
func (b *Mailbox) RecvUntil(ctx context.Context, expired <-chan time.Time) (wire.Envelope, error) {
	for {
		b.mu.Lock()
		if b.head < len(b.items) {
			env := b.pop()
			if b.head < len(b.items) {
				b.wake() // re-arm for the next receiver
			}
			b.mu.Unlock()
			return env, nil
		}
		closed := b.closed
		b.mu.Unlock()
		if closed {
			return wire.Envelope{}, ErrClosed
		}
		select {
		case <-b.notify:
		case <-b.done:
		case <-expired:
			return wire.Envelope{}, ErrExpired
		case <-ctx.Done():
			return wire.Envelope{}, ctx.Err()
		}
	}
}

// Env is the capability bundle handed to each protocol instance.
type Env struct {
	ID int // this party's index
	N  int // total parties
	T  int // fault tolerance (3T+1 ≤ N)

	Node *Node
	Net  Sender
	// Rand is this party's private randomness source. It is backed by a
	// locked source and safe for concurrent use: protocol instances spawn
	// coin goroutines and Fork sub-environments from arbitrary goroutines.
	Rand *rand.Rand
}

// lockedSource makes a math/rand source safe for concurrent use, and
// builds it on first use. The protocol stack flips coins and forks
// randomness streams from many goroutines of the same party; determinism
// per seed is preserved up to goroutine scheduling (which the asynchronous
// model treats as adversarial anyway). Fork runs once per sub-protocol
// instance — thousands of times per agreement — and most instances never
// draw, so a stream costs its seed until something is drawn from it, not
// the 607-word lagged-Fibonacci state rand.NewSource fills.
type lockedSource struct {
	mu   sync.Mutex
	seed int64
	src  rand.Source64 // nil until the first draw
}

// source returns the generator, seeding it on first use. Caller holds mu.
func (s *lockedSource) source() rand.Source64 {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	}
	return s.src
}

func (s *lockedSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.source().Int63()
}

func (s *lockedSource) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.source().Uint64()
}

func (s *lockedSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seed, s.src = seed, nil
}

// newLockedRand builds a concurrency-safe *rand.Rand from a seed.
func newLockedRand(seed int64) *rand.Rand {
	return rand.New(&lockedSource{seed: seed})
}

// Sender is the transmit half of a transport: the in-memory simulated
// router (internal/network) and the TCP transport (internal/transport)
// both implement it.
type Sender interface {
	Send(env wire.Envelope)
}

// NewEnv builds the root environment for a party.
func NewEnv(id, n, t int, node *Node, net Sender, seed int64) *Env {
	return &Env{ID: id, N: n, T: t, Node: node, Net: net, Rand: newLockedRand(seed)}
}

// Fork derives an independent environment (fresh randomness stream) for a
// concurrently running subprotocol. The label decorrelates streams between
// siblings. Safe to call from any goroutine.
func (e *Env) Fork(label string) *Env {
	var h uint64 = 14695981039346656037 // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	clone := *e
	clone.Rand = newLockedRand(e.Rand.Int63() ^ int64(h))
	return &clone
}

// Quorum returns N - T, the standard completion quorum.
func (e *Env) Quorum() int { return e.N - e.T }

// Send transmits a payload to one party (self-sends are delivered through
// the network like any other message).
func (e *Env) Send(to int, session string, typ uint8, payload []byte) {
	e.Net.Send(wire.Envelope{From: e.ID, To: to, Session: session, Type: typ, Payload: payload})
}

// SendAll transmits the same payload to every party, including self.
func (e *Env) SendAll(session string, typ uint8, payload []byte) {
	for to := 0; to < e.N; to++ {
		e.Send(to, session, typ, payload)
	}
}

// Recv receives the next message for a session.
func (e *Env) Recv(ctx context.Context, session string) (wire.Envelope, error) {
	return e.Node.Mailbox(session).Recv(ctx)
}

// SubSession derives a child session ID from parent by joining parts with
// the canonical "/" separator. It is the only sanctioned way to build
// session strings (enforced by the sessionfmt analyzer): ad-hoc
// fmt.Sprintf formats risk two protocol instances colliding in the
// mailbox namespace and silently consuming each other's messages.
//
// The result is parent and each part's fmt.Sprint form joined by "/"; it is
// built in one buffer, with the string and int parts that make up nearly
// every session in the tree appended without fmt.
func SubSession(parent string, parts ...interface{}) string {
	size := len(parent)
	for _, p := range parts {
		if s, ok := p.(string); ok {
			size += 1 + len(s)
		} else {
			size += 4 // "/" and a short number; longer parts grow the buffer
		}
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString(parent)
	for _, p := range parts {
		b.WriteByte('/')
		switch v := p.(type) {
		case string:
			b.WriteString(v)
		case int:
			var num [20]byte
			b.Write(strconv.AppendInt(num[:0], int64(v), 10))
		default:
			fmt.Fprint(&b, p)
		}
	}
	return b.String()
}
