// Package svss implements a shunning verifiable secret sharing protocol with
// the contract of Definition 3.2 of the paper (the SVSS of Abraham, Dolev,
// Halpern, PODC'08 [2]):
//
//   - Validity of termination: a nonfaulty dealer's Share completes at every
//     nonfaulty party.
//   - Termination: if one nonfaulty party completes Share (resp. Rec), every
//     participating nonfaulty party does; if all nonfaulty parties begin Rec
//     they all complete it.
//   - Binding-or-shun: once the first nonfaulty party completes Share there
//     is a value r such that every nonfaulty party that completes Rec
//     outputs r, or some nonfaulty party newly shuns another party.
//   - Validity: a nonfaulty dealer's binding value is its secret.
//   - Hiding: before any nonfaulty party begins Rec, the adversary's view is
//     independent of a nonfaulty dealer's secret.
//
// Construction: the dealer embeds the secret at F(0,0) of a random symmetric
// bivariate polynomial of degree t and sends party i the row f_i(y)=F(x_i,y).
// Parties exchange cross points f_i(x_j) and declare READY once 2t+1 peers
// agree with their row; 2t+1 READYs complete the share. Reconstruction
// reveals rows, filters them by cross-consistency with the local row, and
// interpolates the zero polynomial g(x)=F(x,0) — optimistically first, then
// with Reed–Solomon error correction, shunning the senders of provably
// inconsistent rows.
//
// Deviation from ADH'08 (documented in DESIGN.md §2): ADH's certified-share
// machinery guarantees every shunned party is faulty; our cross-check rule
// can, under a Byzantine dealer that frames an honest party, shun an honest
// party. The global bound of < n² shun events — the only property the
// CoinFlip analysis consumes — holds regardless, because each ordered pair
// shuns at most once. Reconstruction liveness when binding is already
// broken (a Byzantine dealer) uses an idle-timer fallback that outputs a
// default value and shuns the dealer; with a nonfaulty dealer the fallback
// is provably unreachable once all honest rows arrive.
package svss

import (
	"context"
	"errors"
	"fmt"
	"time"

	"asyncft/internal/field"
	"asyncft/internal/rs"
	"asyncft/internal/runtime"
	"asyncft/internal/wire"
)

// Message types within an SVSS session.
const (
	// Share phase.
	MsgRow   uint8 = 1 // dealer -> i: row polynomial f_i
	MsgPoint uint8 = 2 // i -> j: cross point f_i(x_j)
	MsgReady uint8 = 3 // i -> all: row confirmed by a 2t+1 quorum
	// Reconstruction phase.
	MsgReveal uint8 = 4 // i -> all: full row polynomial
)

// RecSuffix is appended to the share session to form the reconstruction
// session. Exposed so adversarial behaviors can target the right mailboxes.
const RecSuffix = "/rec"

// ErrNoQuorum is wrapped by Rec errors when reconstruction gave up.
var ErrNoQuorum = errors.New("svss: reconstruction quorum never became consistent")

// Options tune protocol behavior.
type Options struct {
	// RecIdleTimeout is how long Rec waits without progress (after n-t rows
	// arrived but no consistent decode exists) before concluding that the
	// dealer was Byzantine, outputting the default value, and shunning the
	// dealer. Only reachable when binding is already broken.
	RecIdleTimeout time.Duration
	// NoDomainFastPath disables the precomputed-Lagrange fast path
	// (field.Domain) during reconstruction, recomputing interpolation
	// weights per call as the seed implementation did. The fast path is
	// exact — outputs are bit-identical either way — so this exists only
	// for cross-checking tests and ablation benchmarks.
	NoDomainFastPath bool
}

func (o Options) withDefaults() Options {
	if o.RecIdleTimeout <= 0 {
		o.RecIdleTimeout = 250 * time.Millisecond
	}
	return o
}

// Share is a party's output from the share phase and input to Rec.
type Share struct {
	Session string
	Dealer  int
	// Row is this party's verified row polynomial; nil when the dealer never
	// delivered a consistent row (possible only with a Byzantine dealer).
	Row field.Poly
}

// RunShare executes the share phase of session for the given dealer. When
// env.ID == dealer the secret is shared; other parties ignore the secret
// argument. Every nonfaulty party must call RunShare for termination.
func RunShare(ctx context.Context, env *runtime.Env, session string, dealer int, secret field.Elem) (*Share, error) {
	if dealer < 0 || dealer >= env.N {
		return nil, fmt.Errorf("svss %s: invalid dealer %d", session, dealer)
	}
	if env.ID == dealer {
		f := field.NewBivariate(env.Rand, env.T, secret)
		for i := 0; i < env.N; i++ {
			var w wire.Writer
			w.Poly(f.Row(field.X(i)))
			env.Send(i, session, MsgRow, w.Bytes())
		}
	}

	var (
		row      field.Poly             // our verified row (nil until MsgRow)
		points   = map[int]field.Elem{} // cross points received, by sender
		okCount  = 0
		okSeen   = map[int]bool{}
		readies  = map[int]bool{}
		readied  = false
		complete = false
	)
	checkPoint := func(j int) {
		if row == nil || okSeen[j] {
			return
		}
		p, ok := points[j]
		if !ok {
			return
		}
		if row.Eval(field.X(j)) == p {
			okSeen[j] = true
			okCount++
		}
	}
	maybeReady := func() {
		if !readied && okCount >= 2*env.T+1 {
			readied = true
			env.SendAll(session, MsgReady, nil)
		}
	}

	box := env.Node.Mailbox(session)
	for !complete {
		msg, err := box.Recv(ctx)
		if err != nil {
			return nil, fmt.Errorf("svss share %s: %w", session, err)
		}
		switch msg.Type {
		case MsgRow:
			if msg.From != dealer || row != nil {
				continue
			}
			r := wire.NewReader(msg.Payload)
			p := r.Poly(env.T + 1)
			if r.Err() != nil || len(p) == 0 {
				continue
			}
			row = p
			// Disperse cross points (including to self, which self-verifies).
			for j := 0; j < env.N; j++ {
				var w wire.Writer
				w.Elem(row.Eval(field.X(j)))
				env.Send(j, session, MsgPoint, w.Bytes())
			}
			// Re-examine points that arrived before the row.
			for j := range points {
				checkPoint(j)
			}
			maybeReady()
		case MsgPoint:
			if _, dup := points[msg.From]; dup {
				continue
			}
			r := wire.NewReader(msg.Payload)
			p := r.Elem()
			if r.Err() != nil {
				continue
			}
			points[msg.From] = p
			checkPoint(msg.From)
			maybeReady()
		case MsgReady:
			if readies[msg.From] {
				continue
			}
			readies[msg.From] = true
			if len(readies) >= env.T+1 && !readied {
				// Amplification: t+1 READYs prove a nonfaulty party readied.
				readied = true
				env.SendAll(session, MsgReady, nil)
			}
			if len(readies) >= 2*env.T+1 {
				complete = true
			}
		}
	}
	return &Share{Session: session, Dealer: dealer, Row: row}, nil
}

// AwaitRow blocks until the dealer's row of a completed share arrives and
// fills sh.Row. RunShare may terminate on a 2t+1 READY quorum formed
// entirely by third parties before the dealer's row reaches this party
// (the row is then still in flight); that is correct for the Share
// contract, but protocols whose local arithmetic needs the row — the MPC
// engine's aggregation and product re-sharing — call AwaitRow to close
// the race. With a nonfaulty dealer the row is guaranteed in flight, so
// AwaitRow terminates; with a Byzantine dealer it may only return when
// ctx does (the engine's detect-and-abort regime). No-op when the row is
// already present.
func AwaitRow(ctx context.Context, env *runtime.Env, sh *Share) error {
	if sh.Row != nil {
		return nil
	}
	box := env.Node.Mailbox(sh.Session)
	for sh.Row == nil {
		msg, err := box.Recv(ctx)
		if err != nil {
			return fmt.Errorf("svss await row %s: %w", sh.Session, err)
		}
		if msg.Type != MsgRow || msg.From != sh.Dealer {
			continue
		}
		r := wire.NewReader(msg.Payload)
		p := r.Poly(env.T + 1)
		if r.Err() != nil || len(p) == 0 {
			continue
		}
		sh.Row = p
	}
	return nil
}

// RunRec executes the reconstruction phase for a completed share. All
// nonfaulty parties that completed RunShare must call RunRec for it to
// terminate. The returned element is the reconstructed secret (the binding
// value, unless binding was broken by a Byzantine dealer, in which case a
// shun event has occurred). It is the single-opening form of RunRecBatch,
// bit- and wire-identical to a batch of size one.
func RunRec(ctx context.Context, env *runtime.Env, sh *Share, opts Options) (field.Elem, error) {
	vals, err := RunRecBatch(ctx, env, sh.Session+RecSuffix, sh.Dealer, []field.Poly{sh.Row}, opts)
	if err != nil {
		return 0, err
	}
	return vals[0], nil
}

// RunRecBatch opens m sharings in one message round: every party reveals
// all m of its rows in a single MsgReveal on the given session (one
// length-prefixed polynomial per opening, so a batch of one is
// wire-identical to the classic single reveal), and each opening is
// reconstructed independently with the cross-consistency filter,
// optimistic interpolation, and error-corrected fallback of the SVSS
// contract. This is THE reconstruction code path of the repository: the
// single-share RunRec, securesum's aggregate opening, and every per-layer
// opening batch of the MPC engine (internal/mpc) all run through it.
//
// rows[j] is this party's row of opening j; nil means the party holds no
// verified row for it (possible only under a Byzantine dealer) and
// participates with an empty claim. dealer is the single accountable
// dealer behind the batch, or a negative value for aggregate sharings that
// have none (the idle fallback then blames nobody; the RS error path still
// shuns provably lying revealers). All nonfaulty parties must call
// RunRecBatch with the same session and an equal-length rows slice.
//
// The returned slice has the reconstructed value of every opening, in
// order. Openings resolve independently as reveals arrive; the call
// returns once all m resolved, or errs if the batch stalls with a quorum
// present (binding broken — only reachable under a Byzantine dealer).
func RunRecBatch(ctx context.Context, env *runtime.Env, session string, dealer int, rows []field.Poly, opts Options) ([]field.Elem, error) {
	opts = opts.withDefaults()
	m := len(rows)
	if m == 0 {
		return nil, nil
	}
	var w wire.Writer
	for _, row := range rows {
		// A nil row encodes as the empty polynomial: the party announces
		// participation without a claim, so peers' progress accounting
		// still sees it.
		w.Poly(row)
	}
	env.SendAll(session, MsgReveal, w.Bytes())

	type opening struct {
		rows     map[int]field.Poly // accepted rows by sender
		accepted []int              // acceptance order, for deterministic points
		val      field.Elem
		done     bool
	}
	ops := make([]*opening, m)
	for j := range ops {
		ops[j] = &opening{rows: make(map[int]field.Poly, env.N)}
	}
	unresolved := m
	seen := map[int]bool{} // any reveal (accepted or not) by sender

	// Reconstruction interpolates over the fixed domain {1..n}; the shared
	// precomputed Domain makes each attempt inversion-free. A nil Domain
	// falls back to generic per-call interpolation (bit-identical results).
	dom := field.DomainFor(env.N)
	if opts.NoDomainFastPath {
		dom = nil
	}

	tryResolve := func(j int) {
		o := ops[j]
		if o.done || len(o.accepted) < 2*env.T+1 {
			return
		}
		pts := make([]field.Point, 0, len(o.accepted))
		for _, q := range o.accepted {
			pts = append(pts, field.Point{X: field.X(q), Y: o.rows[q].Secret()})
		}
		// Optimistic path: every accepted zero-value on one degree-t curve.
		if dom.FitsDegree(pts, env.T) {
			o.val, o.done = dom.InterpolateAt(pts, 0), true
			unresolved--
			return
		}
		// Error-corrected path.
		maxE := (len(pts) - env.T - 1) / 2
		g, bad, err := rs.DecodeIn(dom, pts, env.T, maxE)
		if err != nil {
			return
		}
		// The decoded curve must match our own verified share; otherwise the
		// "majority" is a fabrication we cannot endorse.
		if rows[j] != nil && g.Eval(field.X(env.ID)) != rows[j].Secret() {
			return
		}
		for _, idx := range bad {
			env.Node.Shun(o.accepted[idx])
		}
		o.val, o.done = g.Eval(0), true
		unresolved--
	}

	// The idle window is one timer for the whole call. Progress only moves
	// the deadline; the timer is re-armed when it fires, for what is then
	// left of the window (its channel is empty at that point, which Reset
	// needs before Go 1.23).
	box := env.Node.Mailbox(session)
	deadline := time.Now().Add(opts.RecIdleTimeout)
	idle := time.NewTimer(opts.RecIdleTimeout)
	defer idle.Stop()
	for unresolved > 0 {
		msg, err := box.RecvUntil(ctx, idle.C)
		if err != nil {
			if err != runtime.ErrExpired {
				return nil, fmt.Errorf("svss rec %s: %w", session, err)
			}
			if left := time.Until(deadline); left > 0 {
				idle.Reset(left)
				continue
			}
			idle.Reset(opts.RecIdleTimeout)
			// Idle: if a quorum reported and some opening still does not
			// resolve, the dealer must have equivocated. Give up, blame the
			// dealer when there is one to blame.
			if len(seen) >= env.N-env.T {
				if dealer >= 0 && dealer != env.ID {
					env.Node.Shun(dealer)
				}
				return nil, fmt.Errorf("svss rec %s: %w (dealer %d)", session, ErrNoQuorum, dealer)
			}
			deadline = time.Now().Add(opts.RecIdleTimeout)
			continue
		}
		if msg.Type != MsgReveal || seen[msg.From] {
			continue
		}
		seen[msg.From] = true
		deadline = time.Now().Add(opts.RecIdleTimeout)
		r := wire.NewReader(msg.Payload)
		claims := make([]field.Poly, m)
		for j := range claims {
			claims[j] = r.Poly(env.T + 1)
		}
		if r.Err() != nil {
			// Malformed batches contribute nothing (but still count as
			// participation — the sender spoke on the session).
			continue
		}
		for j, p := range claims {
			o := ops[j]
			if o.done || len(p) == 0 {
				continue
			}
			// Cross-consistency filter: a revealed row must agree with our
			// own row at the crossing point. Without a row we accept
			// provisionally; the decode consistency check above is then
			// vacuous.
			if rows[j] != nil && p.Eval(field.X(env.ID)) != rows[j].Eval(field.X(msg.From)) {
				continue
			}
			o.rows[msg.From] = p
			o.accepted = append(o.accepted, msg.From)
			tryResolve(j)
		}
	}
	out := make([]field.Elem, m)
	for j, o := range ops {
		out[j] = o.val
	}
	return out, nil
}
