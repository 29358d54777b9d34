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
// the numbered subtree it belongs to is released (ReleaseBelow): a caller
// that runs an unbounded sequence of instances under family/0, family/1, …
// — the slots of a ledger — releases the ones it no longer needs, which
// closes and deletes every mailbox under them (blocked receivers return
// ErrClosed, which is how the instance's helper goroutines end) and leaves
// a tombstone cursor behind, so a late or hostile frame for a released
// instance is dropped instead of minting its mailbox again.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"asyncft/internal/obs"
	"asyncft/internal/wire"
)

// ErrClosed is returned by Recv when the node shuts down.
var ErrClosed = errors.New("runtime: node closed")

// Node is one party's runtime state.
type Node struct {
	id, n, t int

	mu       sync.Mutex
	boxes    map[string]*Mailbox
	released map[string]int // family -> tombstone cursor (see ReleaseBelow)
	routes   []*route       // prefix handlers, consulted before mailboxes
	shunGen  map[int]uint64 // party -> generation at which it was shunned
	gen      uint64         // monotonically increases with each new mailbox
	shuns    int            // total shun events recorded by this node
	closed   bool

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
		id:       id,
		n:        n,
		t:        t,
		boxes:    make(map[string]*Mailbox),
		released: make(map[string]int),
		shunGen:  make(map[int]uint64),
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
// An envelope for a released session (see ReleaseBelow) is dropped.
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
	var adopted []*Mailbox
	for s, b := range nd.boxes {
		if strings.HasPrefix(s, prefix) {
			delete(nd.boxes, s)
			adopted = append(adopted, b)
		}
	}
	nd.activeBoxes.Set(int64(len(nd.boxes)))
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
// released session (see ReleaseBelow) gets a closed, empty mailbox: Recv on
// it returns ErrClosed at once and nothing is registered.
func (nd *Node) Mailbox(session string) *Mailbox {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.box(session)
}

// retiredBox stands in for every released session's mailbox: closed and
// empty, so pushes are dropped and receives fail with ErrClosed. It is
// never mutated after init.
var retiredBox = &Mailbox{closed: true}

// ReleaseBelow retires the instances family/0 … family/(below−1): every
// mailbox whose session is family/k or lies under family/k/ with k < below
// is closed (blocked receivers return ErrClosed) and deleted, and the
// family's tombstone cursor advances to below, so from now on Dispatch
// drops envelopes for those sessions and Mailbox hands out a closed
// mailbox instead of creating one. Instances at or above the cursor, other
// families and RoutePrefix claims are untouched. The cursor only moves
// forward; a call that would not advance it does nothing. The state kept
// per family is one integer, however many instances were released.
//
// The caller decides when an instance is no longer needed by anyone — for
// a ledger slot, once a quorum's stores hold it (see internal/shard).
func (nd *Node) ReleaseBelow(family string, below int) {
	nd.mu.Lock()
	if below <= nd.released[family] {
		nd.mu.Unlock()
		return
	}
	nd.released[family] = below
	var dead []*Mailbox
	for s, b := range nd.boxes {
		if !strings.HasPrefix(s, family) {
			continue
		}
		if k, ok := instance(s, len(family)); ok && k < below {
			delete(nd.boxes, s)
			dead = append(dead, b)
		}
	}
	nd.activeBoxes.Set(int64(len(nd.boxes)))
	nd.mu.Unlock()
	for _, b := range dead {
		b.close()
	}
}

// ReleasedBelow returns family's tombstone cursor: instances below it have
// been released.
func (nd *Node) ReleasedBelow(family string) int {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.released[family]
}

// retired reports whether session lies in a released instance of some
// family. It is consulted only when a session has no mailbox — creation is
// the rare path, and a live session never pays for it — and costs one map
// lookup per path segment, whatever the number of families. Caller holds mu.
func (nd *Node) retired(session string) bool {
	if len(nd.released) == 0 {
		return false
	}
	for i := 0; i < len(session); i++ {
		if session[i] != '/' {
			continue
		}
		if below, ok := nd.released[session[:i]]; ok {
			if k, ok := instance(session, i); ok && k < below {
				return true
			}
		}
	}
	return false
}

// instance parses the decimal path segment that follows the separator at
// session[at]: the k of family/k or family/k/… for a family of length at.
func instance(session string, at int) (k int, ok bool) {
	if at >= len(session) || session[at] != '/' {
		return 0, false
	}
	seg := session[at+1:]
	if end := strings.IndexByte(seg, '/'); end >= 0 {
		seg = seg[:end]
	}
	k, err := strconv.Atoi(seg)
	return k, err == nil && k >= 0
}

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

// Mailbox is an unbounded FIFO of envelopes for one session. session is
// the canonical interned copy of the session string; Dispatch rewrites
// inbound envelopes to it.
type Mailbox struct {
	session string
	gen     uint64
	depthHW *obs.Gauge // shared node-wide high-water (nil = uninstrumented)

	mu     sync.Mutex
	items  []wire.Envelope
	notify chan struct{}
	closed bool
}

func newMailbox(session string, gen uint64) *Mailbox {
	return &Mailbox{session: session, gen: gen, notify: make(chan struct{}, 1)}
}

func (b *Mailbox) push(env wire.Envelope) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.items = append(b.items, env)
	depth := len(b.items)
	b.mu.Unlock()
	b.depthHW.SetMax(int64(depth))
	select {
	case b.notify <- struct{}{}:
	default:
	}
}

func (b *Mailbox) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	select {
	case b.notify <- struct{}{}:
	default:
	}
}

// TryRecv returns the next queued message without blocking. It is the
// drain primitive helper goroutines use on shutdown: answer what is
// already queued (e.g. retransmission pulls racing a context
// cancellation) instead of dropping it.
func (b *Mailbox) TryRecv() (wire.Envelope, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.items) == 0 {
		return wire.Envelope{}, false
	}
	env := b.items[0]
	b.items = b.items[1:]
	return env, true
}

// Recv blocks until a message is available, the context is cancelled, or the
// node closes.
func (b *Mailbox) Recv(ctx context.Context) (wire.Envelope, error) {
	for {
		b.mu.Lock()
		if len(b.items) > 0 {
			env := b.items[0]
			b.items = b.items[1:]
			if len(b.items) > 0 {
				// Re-arm for the next receiver.
				select {
				case b.notify <- struct{}{}:
				default:
				}
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
func SubSession(parent string, parts ...interface{}) string {
	s := parent
	for _, p := range parts {
		s += "/" + fmt.Sprint(p)
	}
	return s
}
