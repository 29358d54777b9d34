// pull.go is a standalone digest-keyed value service, the broadcast's
// CPULL/CFULL pair lifted out of an A-Cast instance: a server answers pull
// requests for any value it can look up, and a client fetches a value it
// knows only the SHA-256 digest of. internal/statesync uses it to transfer
// ranged ledger snapshot chunks; the digests come from a t+1 head quorum
// there, so a Byzantine server can cause at most a digest mismatch and a
// retry against another peer — never a divergent value.
//
// From Options.CodedThreshold bytes (fragmentThreshold when that is zero)
// a server answers with only its own Reed–Solomon fragment of the value
// (PFRAG) instead of the full bytes (PFULL), so a client pulling from all
// n parties downloads ~n/(t+1) times the value size instead of n times,
// and each server uploads only |v|/(t+1). Reconstruction is digest-checked
// online error correction (reconstructPool), so up to t corrupted
// fragments are tolerated.
package rbc

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"asyncft/internal/field"
	"asyncft/internal/rs"
	"asyncft/internal/runtime"
	"asyncft/internal/wire"
)

// Pull-service message types (distinct sessions from broadcast instances,
// so the numbering is independent of the msg* constants in rbc.go).
const (
	msgPull  uint8 = 1 // request: digest | nonce
	msgPFull uint8 = 2 // response: full value (self-authenticating)
	msgPFrag uint8 = 3 // response: digest | total length | sender's fragment
)

// fragmentThreshold is the value size from which ServePulls answers with a
// fragment when Options.CodedThreshold is zero. It is not the broadcast's
// DefaultCodedThreshold: a client needs t+1 fragment replies, each with its
// own framing and 8/7 field packing, so small values are cheaper whole.
const fragmentThreshold = 512

// pullRetryInterval is how often an unanswered Pull re-broadcasts its
// request: a server that missed the original (restarted mid-stream, or
// evicted the digest's registration) gets another chance, so one lost
// request is a delay, never a hang.
const pullRetryInterval = 2 * time.Second

// replySession is the session a requester listens on for pull responses.
// Requests go to the shared server session; responses are directed and
// carry the request's nonce in the session, so a client and a server of
// the same service coexist on one party, and two concurrent pulls by the
// same party cannot consume each other's responses.
func replySession(session string, requester int, nonce uint64) string {
	return runtime.SubSession(session, "r", requester, nonce)
}

// ServePulls answers digest-keyed pull requests on session until the
// handoff channel closes (when non-nil) or ctx ends, then drains requests
// already queued — the same lifetime discipline as the broadcast serving
// helper. lookup resolves a digest to the value bytes (or reports it
// unknown: unknown digests are ignored, costing a Byzantine spammer
// nothing of the server's memory). Values of at least
// Options.CodedThreshold bytes (fragmentThreshold when that is zero) are
// answered with the server's own Reed–Solomon fragment; smaller ones with
// the full bytes. maxVal bounds served value sizes. Every valid request is answered — a client may legitimately pull
// the same digest again in a later range fetch — so a hostile requester's
// amplification is bounded by its own request rate, never state the
// server must retain.
func ServePulls(ctx context.Context, env *runtime.Env, session string, maxVal int, lookup func(d [sha256.Size]byte) ([]byte, bool), opts Options) {
	coder, err := rs.NewCoder(env.N, env.T+1)
	if err != nil {
		return
	}
	handle := func(msg wire.Envelope) {
		if msg.Type != msgPull || len(msg.Payload) > 2*sha256.Size {
			return
		}
		r := wire.NewReader(msg.Payload)
		db := r.BytesField(sha256.Size)
		nonce := r.Uint()
		if r.Err() != nil || len(db) != sha256.Size || msg.From < 0 || msg.From >= env.N {
			return
		}
		var d digest
		copy(d[:], db)
		v, ok := lookup(d)
		if !ok || len(v) > maxVal {
			return
		}
		reply := replySession(session, msg.From, nonce)
		if thr := opts.threshold(fragmentThreshold); thr >= 0 && len(v) >= thr {
			// Encoding the whole codeword to extract one fragment costs
			// O(n·|v|) per request — bounded by the requester's own request
			// rate (nothing amplifies it), so simplicity wins over a
			// single-point evaluation or a per-digest fragment cache here.
			frag := coder.Encode(v)[env.ID]
			var w wire.Writer
			w.BytesField(d[:])
			w.Int(len(v))
			w.Elems(frag)
			env.Send(msg.From, reply, msgPFrag, w.Bytes())
			return
		}
		env.Send(msg.From, reply, msgPFull, v)
	}
	serveUntil(ctx, opts.Handoff, env, session, handle)
}

// Pull fetches the value whose SHA-256 digest is d from the pull service
// on session: one request to every party, then responses are verified as
// they arrive — full values by hashing (self-authenticating, so a lying
// server is simply ignored), fragments by digest-checked error-corrected
// reconstruction once t+1 accumulate. maxVal bounds the accepted value
// size. It blocks until a verified value is assembled or ctx ends; the
// returned bytes are private to the caller.
func Pull(ctx context.Context, env *runtime.Env, session string, d [sha256.Size]byte, maxVal int) ([]byte, error) {
	coder, err := rs.NewCoder(env.N, env.T+1)
	if err != nil {
		return nil, fmt.Errorf("rbc pull %s: %w", session, err)
	}
	nonce := env.Rand.Uint64()
	var w wire.Writer
	w.BytesField(d[:])
	w.Uint(nonce)
	request := w.Bytes()
	env.SendAll(session, msgPull, request)

	reply := replySession(session, env.ID, nonce)
	maxFrag := 64 + coder.FragmentLen(maxVal)*8
	// One fragment claim per responding party, pooled by claimed total
	// length so a wrong length poisons only its own pool; a pool already
	// refuted is retried only after it grows.
	pools := make(map[int]map[int][]field.Elem)
	claimed := make(map[int]bool)
	lastTry := make(map[int]int)
	for {
		wctx, cancel := context.WithTimeout(ctx, pullRetryInterval)
		msg, err := env.Recv(wctx, reply)
		cancel()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, runtime.ErrClosed) {
				return nil, fmt.Errorf("rbc pull %s: %w", session, err)
			}
			// Quiet interval: re-broadcast the request (servers answer
			// every valid request, so a missed or evicted one self-heals).
			env.SendAll(session, msgPull, request)
			continue
		}
		switch msg.Type {
		case msgPFull:
			if len(msg.Payload) > maxVal || sha256.Sum256(msg.Payload) != d {
				continue // wrong bytes: ignore, await another peer
			}
			return append([]byte(nil), msg.Payload...), nil
		case msgPFrag:
			if len(msg.Payload) > maxFrag || msg.From < 0 || msg.From >= env.N || claimed[msg.From] {
				continue
			}
			r := wire.NewReader(msg.Payload)
			db := r.BytesField(sha256.Size)
			total := r.Int()
			if r.Err() != nil || len(db) != sha256.Size || total > maxVal {
				continue
			}
			var got digest
			copy(got[:], db)
			if got != d {
				continue // stale or lying digest claim
			}
			frag := r.Elems(coder.FragmentLen(total))
			if r.Err() != nil || len(frag) != coder.FragmentLen(total) {
				continue // truncated fragment
			}
			claimed[msg.From] = true
			pool := pools[total]
			if pool == nil {
				pool = make(map[int][]field.Elem)
				pools[total] = pool
			}
			pool[msg.From] = frag
			if len(pool) < coder.K() || len(pool) == lastTry[total] {
				continue
			}
			if v, ok := reconstructPool(coder, env.T, d, total, pool); ok {
				return v, nil
			}
			lastTry[total] = len(pool)
		}
	}
}

// reconstructPool is Pull's digest-checked online-error-correcting decode
// of one fragment pool. The allocation-free clean decode runs first (the
// overwhelmingly common case); its result is digest-checked even when
// spare fragments disagreed (the chosen subset may still be the right
// one). Only then does it escalate to Berlekamp–Welch, tolerating up to
// min(t, (m−(t+1))/2) wrong fragments. The digest check rejects any decode
// that is not the pulled value, so Pull simply retries as further
// fragments arrive until the honest fragments dominate.
func reconstructPool(coder *rs.Coder, tf int, d digest, total int, pool map[int][]field.Elem) ([]byte, bool) {
	k := coder.K()
	m := len(pool)
	if m < k {
		return nil, false
	}
	data, err := coder.ReconstructClean(total, pool)
	switch {
	case err == nil && sha256.Sum256(data) == d:
		return data, true
	case err == nil:
		// A fully consistent pool encoding a different value: error
		// correction cannot improve on consensus among the fragments.
		return nil, false
	case errors.Is(err, rs.ErrInconsistent) && sha256.Sum256(data) == d:
		// Spare fragments disagreed but the decoding subset was correct.
		return data, true
	case !errors.Is(err, rs.ErrInconsistent):
		return nil, false // malformed pool; Berlekamp–Welch would reject it too
	}
	maxErrors := (m - k) / 2
	if maxErrors > tf {
		maxErrors = tf
	}
	if maxErrors == 0 {
		return nil, false
	}
	data, err = coder.Reconstruct(total, pool, maxErrors)
	if err != nil || sha256.Sum256(data) != d {
		return nil, false
	}
	return data, true
}
