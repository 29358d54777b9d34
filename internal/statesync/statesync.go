// Package statesync implements digest-verified ledger snapshot transfer:
// the catch-up path for a replica that fell behind the atomic-broadcast
// ledger or restarted with empty state. It rides the generalized
// CPULL/CFULL pull machinery of the coded broadcast (internal/rbc):
// snapshot servers answer ranged chunk requests out of their acs.Store,
// RS-coded above the usual coded threshold, and a client assembles and
// verifies the chunks against the ledger digest chain before installing
// them — after which the replica rejoins live slots via acs.RunFrom
// without replaying a single A-Cast.
//
// Trust model. The client never believes any single server. It first asks
// every party for a HEAD of the requested range — the chain digest at the
// range start, and per chunk the chain digest at the chunk end plus the
// SHA-256 of the chunk's canonical encoding — and accepts only a head
// reported identically by ≥ t+1 parties (at least one nonfaulty, and
// nonfaulty parties agree on every committed slot, so an agreed head is
// the true one). Chunk bytes then arrive digest-keyed through rbc.Pull,
// which is self-authenticating: wrong bytes hash wrong and are ignored,
// corrupted fragments are error-corrected or rejected, and the pull simply
// completes off another peer. A Byzantine snapshot server can therefore
// cause at most a mismatch and a retry, never a divergent ledger. Finally
// the decoded slots are re-chained from the (locally known or
// quorum-agreed) anchor and must land exactly on the agreed end digests.
//
// Liveness. Servers hold one pending head request per requester and
// answer the moment their store's contiguous prefix reaches the requested
// height, so snapshots are served concurrently with live slots and a
// client chasing a moving ledger streams chunk after chunk as the ledger
// commits (Sync). Memory on both sides is bounded: chunks are re-encoded
// from the store on demand (never cached), and a requester has at most
// one outstanding range.
//
// Cursors. A server also announces its store's cursor to every party as
// the ledger grows (one small message per cursorStride slots, on the head
// session) and remembers the highest cursor each party announced. Held(r)
// is the r-th largest of those: at most t announcements are lies, so
// Held(2t+1) slots are in the stores of t+1 nonfaulty parties — a range
// Fetch is certain to complete — and Held(n−t) is what the ledger driver
// (internal/shard) waits for before it releases a slot's sessions: what a
// quorum's stores hold, no replica needs any peer's protocol state for
// (the assumption SC-ABD, PAPERS.md, makes explicit). An announcement is
// a claim about the announcer's own store only; nothing is installed on
// the strength of one.
package statesync

import (
	"context"
	"crypto/sha256"
	"sync"
	"time"

	"asyncft/internal/acs"
	"asyncft/internal/obs"
	"asyncft/internal/rbc"
	"asyncft/internal/runtime"
)

// DefaultChunkSlots is the number of ledger slots per snapshot chunk when
// Options.ChunkSlots is zero.
const DefaultChunkSlots = 8

// DefaultMaxChunkBytes bounds one chunk's canonical encoding when
// Options.MaxChunkBytes is zero. It equals the broadcast value cap, and
// stays comfortably under the TCP transport's frame limit.
const DefaultMaxChunkBytes = rbc.MaxValueSize

// maxBoundsPerHead caps the chunk count of one head request, bounding the
// head response size a requester can provoke.
const maxBoundsPerHead = 4096

// Options tunes snapshot transfer. The zero value is ready to use.
// ChunkSlots is requester-side: servers chunk at whatever granularity a
// head request asks for, so differently-configured parties interoperate
// (though clients sharing a granularity also share the servers' digest
// registrations).
type Options struct {
	// ChunkSlots is the slot count per snapshot chunk (default
	// DefaultChunkSlots): the granularity of transfer, verification and
	// retry.
	ChunkSlots int
	// MaxChunkBytes bounds one chunk's encoded size (default
	// DefaultMaxChunkBytes). Oversized chunks are refused by the server;
	// pick ChunkSlots so that ChunkSlots · n · max payload stays under it.
	MaxChunkBytes int
	// RBC tunes the chunk transfer: chunks at or above its coded
	// threshold travel as per-server Reed–Solomon fragments instead of
	// full copies (see rbc.ServePulls).
	RBC rbc.Options
	// HeadRetry is how often an unanswered head request re-broadcasts
	// (default 2s). Bootstrap paths that race a live ledger — a joiner
	// entering a dynamic-membership run — tighten this so the first
	// request lost to a not-yet-known peer address does not cost a full
	// interval of lag.
	HeadRetry time.Duration
	// Metrics, when non-nil, is the node's shared observability registry;
	// snapshot transfer registers statesync_chunks_served_total,
	// statesync_chunks_installed_total and statesync_head_retries_total on
	// it. Every handle method tolerates a nil registry.
	Metrics *obs.Registry
}

// syncMetrics carries the handles snapshot transfer touches; the zero
// value (no registry) is a valid no-op.
type syncMetrics struct {
	chunksServed    *obs.Counter
	chunksInstalled *obs.Counter
	headRetries     *obs.Counter
}

func (o Options) metrics() syncMetrics {
	return syncMetrics{
		chunksServed:    o.Metrics.Counter("statesync_chunks_served_total", "Snapshot chunks served to peers (pull lookups answered from the store)."),
		chunksInstalled: o.Metrics.Counter("statesync_chunks_installed_total", "Snapshot chunks fetched, verified and installed locally."),
		headRetries:     o.Metrics.Counter("statesync_head_retries_total", "Head requests re-broadcast after a quiet retry interval."),
	}
}

func (o Options) chunkSlots() int {
	if o.ChunkSlots > 0 {
		return o.ChunkSlots
	}
	return DefaultChunkSlots
}

func (o Options) maxChunkBytes() int {
	if o.MaxChunkBytes > 0 {
		return o.MaxChunkBytes
	}
	return DefaultMaxChunkBytes
}

func (o Options) headRetry() time.Duration {
	if o.HeadRetry > 0 {
		return o.HeadRetry
	}
	return headRetryInterval
}

// Message types of the head session. Chunk transfer reuses the rbc pull
// service on the pull session.
const (
	msgHeadReq uint8 = 1
	msgHead    uint8 = 2
	msgCursor  uint8 = 3
)

// cursorStride coalesces cursor announcements: a server announces its
// cursor when it crosses a multiple of the stride, so the announcements
// cost a few frames per stride slots whatever the slot rate. Sessions are
// released in steps of the same size; a ledger's live state is its
// pipeline window plus about one stride of slots.
const cursorStride = 4

// HeadSession and PullSession name the two service endpoints of the sync
// service rooted at name. The "sync" root gives the transfer its own
// traffic class in the router's per-protocol metrics.
func HeadSession(name string) string { return "sync/" + name + "/head" }

// PullSession is the chunk transfer endpoint (see HeadSession).
func PullSession(name string) string { return "sync/" + name + "/pull" }

// Serve runs this party's snapshot server for the sync service rooted at
// name, serving ranges of store's contiguous prefix until ctx ends (or the
// node closes). It is meant to run for the lifetime of the ledger run —
// started alongside acs.RunFrom — so lagging peers can catch up while live
// slots keep committing.
func Serve(ctx context.Context, env *runtime.Env, name string, store *acs.Store, opts Options) {
	NewServer(env, name, store, opts).Run(ctx)
}

// NewServer builds the snapshot server Serve runs, for callers that also
// read the cursors its peers announce (Held, Reported).
func NewServer(env *runtime.Env, name string, store *acs.Store, opts Options) *Server {
	return &Server{
		env:      env,
		store:    store,
		opts:     opts,
		m:        opts.metrics(),
		headSess: HeadSession(name),
		pullSess: PullSession(name),
		pending:  make(map[int]headReq),
		ranges:   make(map[[sha256.Size]byte]chunkRange),
		cursors:  make([]int, env.N),
		reported: make(chan struct{}),
	}
}

// Run serves until ctx ends or the node closes.
func (s *Server) Run(ctx context.Context) {
	done := make(chan struct{})
	defer close(done)
	go s.answerLoop(ctx, done)
	go rbc.ServePulls(ctx, s.env, s.pullSess, s.opts.maxChunkBytes(), s.lookup, s.opts.RBC)
	s.serveHeads(ctx)
}

// Server is one party's side of a sync service: it serves ranges of its
// store, announces the store's cursor and tracks its peers' cursors.
type Server struct {
	env      *runtime.Env
	store    *acs.Store
	opts     Options
	m        syncMetrics
	headSess string
	pullSess string

	// announced is the last cursor broadcast; only answerLoop touches it.
	announced int

	mu sync.Mutex
	// cursors[j] is the highest cursor party j announced (this party's own
	// announcements arrive like any peer's). reported is closed and
	// replaced whenever an entry grows.
	cursors  []int
	reported chan struct{}
	// pending holds at most one outstanding head request per requester —
	// the issue's bounded-memory discipline; a newer request replaces the
	// older.
	pending map[int]headReq
	// ranges maps a chunk content digest to its slot range, letting the
	// pull service re-encode chunk bytes from the store on demand instead
	// of caching them. Bounded FIFO eviction guards against registry
	// bloat from hostile range spam.
	ranges   map[[sha256.Size]byte]chunkRange
	rangeLog [][sha256.Size]byte
}

type chunkRange struct{ lo, hi int }

// headReq is a parsed head request (codec in codec.go). The nonce is the
// requester's per-call token: answers go to a nonce-derived reply
// session, so concurrent sync clients on one party never consume each
// other's responses. Honest servers echo the whole request — nonce
// included — in their answer, which keeps quorum counting exact.
type headReq struct {
	lo, hi, chunk int
	nonce         uint64
}

func (r headReq) valid() bool {
	return r.lo >= 0 && r.hi > r.lo && r.chunk > 0 &&
		(r.hi-r.lo+r.chunk-1)/r.chunk <= maxBoundsPerHead
}

// serveHeads drains the head session: head requests are answered when
// satisfiable and parked otherwise (one per requester) for answerLoop;
// cursor announcements update the sender's entry.
func (s *Server) serveHeads(ctx context.Context) {
	for {
		msg, err := s.env.Recv(ctx, s.headSess)
		if err != nil {
			return
		}
		if msg.From < 0 || msg.From >= s.env.N {
			continue
		}
		switch msg.Type {
		case msgHeadReq:
			if req, ok := parseHeadReq(msg.Payload); ok && req.valid() {
				s.submit(msg.From, req)
			}
		case msgCursor:
			if c, ok := parseCursor(msg.Payload); ok {
				s.noteCursor(msg.From, c)
			}
		}
	}
}

// noteCursor records party from's announcement. An entry only grows: a
// nonfaulty party's cursor never moves back, and a faulty one gains
// nothing by announcing less than it did before.
func (s *Server) noteCursor(from, cursor int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cursor <= s.cursors[from] {
		return
	}
	s.cursors[from] = cursor
	close(s.reported)
	s.reported = make(chan struct{})
}

// Held returns the largest cursor that at least rank parties have
// announced reaching (0 when fewer have announced anything); rank must be
// in [1, n]. With at most t faulty parties, slots below Held(r) are in the
// stores of at least r−t nonfaulty ones.
func (s *Server) Held(rank int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	held := 0
	for _, c := range s.cursors {
		if c <= held {
			continue
		}
		reached := 0
		for _, other := range s.cursors {
			if other >= c {
				reached++
			}
		}
		if reached >= rank {
			held = c
		}
	}
	return held
}

// Reported returns a channel closed the next time some party's announced
// cursor grows.
func (s *Server) Reported() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reported
}

// submit parks a head request, then immediately retries it — parking
// first closes the race where the cursor reaches the requested height
// between a failed try and the insert, which would strand the request
// until a later (possibly never-coming) advance. A duplicate answer from
// the answerLoop racing this path is harmless: heads are idempotent and
// the client tracks one head per sender.
func (s *Server) submit(from int, req headReq) {
	s.mu.Lock()
	s.pending[from] = req
	s.mu.Unlock()
	if s.tryAnswer(from, req) {
		s.mu.Lock()
		if s.pending[from] == req {
			delete(s.pending, from)
		}
		s.mu.Unlock()
	}
}

// answerLoop runs whenever the store's cursor advances: it announces the
// cursor when it crossed a stride boundary and retries pending head
// requests.
func (s *Server) answerLoop(ctx context.Context, done <-chan struct{}) {
	for {
		advanced := s.store.Advanced()
		if next := s.store.Next(); next/cursorStride > s.announced/cursorStride {
			s.announced = next
			s.env.SendAll(s.headSess, msgCursor, encodeCursor(next))
		}
		s.mu.Lock()
		reqs := make(map[int]headReq, len(s.pending))
		for from, req := range s.pending {
			reqs[from] = req
		}
		s.mu.Unlock()
		for from, req := range reqs {
			if s.tryAnswer(from, req) {
				s.mu.Lock()
				if s.pending[from] == req {
					delete(s.pending, from)
				}
				s.mu.Unlock()
			}
		}
		select {
		case <-advanced:
		case <-ctx.Done():
			return
		case <-done:
			return
		}
	}
}

// tryAnswer answers a head request if the store already covers it. Chunk
// content digests computed for the answer are registered for the pull
// service.
func (s *Server) tryAnswer(from int, req headReq) bool {
	if s.store.Next() < req.hi {
		return false
	}
	chainLo, ok := s.store.ChainDigest(req.lo)
	if !ok {
		return false
	}
	h := head{req: req, chainLo: chainLo}
	for a := req.lo; a < req.hi; a += req.chunk {
		b := a + req.chunk
		if b > req.hi {
			b = req.hi
		}
		data, ok := s.store.EncodeRange(a, b)
		if !ok || len(data) > s.opts.maxChunkBytes() {
			return false // oversized chunk: refuse rather than lie
		}
		chainEnd, ok := s.store.ChainDigest(b)
		if !ok {
			return false
		}
		content := sha256.Sum256(data)
		s.register(content, chunkRange{lo: a, hi: b})
		h.bounds = append(h.bounds, boundary{end: b, chain: chainEnd, content: content})
	}
	s.env.Send(from, runtime.SubSession(s.headSess, "r", from, req.nonce), msgHead, encodeHead(h))
	return true
}

// lookup resolves a chunk content digest for the pull service by
// re-encoding the registered range from the store.
func (s *Server) lookup(d [sha256.Size]byte) ([]byte, bool) {
	s.mu.Lock()
	r, ok := s.ranges[d]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	data, ok := s.store.EncodeRange(r.lo, r.hi)
	if !ok || sha256.Sum256(data) != d {
		return nil, false
	}
	s.m.chunksServed.Inc()
	return data, true
}

// register records a content digest → range mapping with FIFO eviction.
func (s *Server) register(d [sha256.Size]byte, r chunkRange) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.ranges[d]; ok {
		return
	}
	// ~56 B per entry: even the full registry is a few MiB. Eviction is a
	// delay, not a failure — an evicted digest's pull goes unanswered
	// until the client's periodic re-request (after a fresh head) lands.
	const maxRanges = 1 << 16
	if len(s.rangeLog) >= maxRanges {
		delete(s.ranges, s.rangeLog[0])
		s.rangeLog = s.rangeLog[1:]
	}
	s.ranges[d] = r
	s.rangeLog = append(s.rangeLog, d)
}
