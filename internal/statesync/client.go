package statesync

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"asyncft/internal/acs"
	"asyncft/internal/obs"
	"asyncft/internal/rbc"
	"asyncft/internal/runtime"
)

// headRetryInterval is the default for how often an unanswered head
// request re-broadcasts (see fetchHead and Options.HeadRetry).
const headRetryInterval = 2 * time.Second

// Fetch retrieves and verifies the committed entries of slots [lo, hi)
// from the sync service rooted at name. anchor, when non-nil, is the
// caller's own digest-chain value at lo (a replica resuming from local
// state); the agreed head must match it or Fetch fails — a replica whose
// chain diverges from the network's has falsified agreement and must not
// splice foreign history onto it. A nil anchor accepts the quorum-agreed
// anchor (a replica with no state at all).
//
// Fetch blocks until ≥ t+1 parties report the identical head — which,
// under the standard resilience bound, happens once the nonfaulty parties
// reach slot hi — then pulls each chunk by its agreed content digest,
// decodes it, and re-chains it onto the anchor; every chunk must land
// exactly on its agreed boundary digest. Byzantine servers can delay
// nothing and corrupt nothing: wrong head claims never reach quorum,
// wrong chunk bytes never match their digest, and the pull retries
// against the remaining peers by construction.
func Fetch(ctx context.Context, env *runtime.Env, name string, lo, hi int, anchor *[sha256.Size]byte, opts Options) ([][]acs.Entry, error) {
	if lo < 0 || hi <= lo {
		return nil, fmt.Errorf("statesync %s: bad range [%d, %d)", name, lo, hi)
	}
	req := headReq{lo: lo, hi: hi, chunk: opts.chunkSlots(), nonce: env.Rand.Uint64()}
	if !req.valid() {
		return nil, fmt.Errorf("statesync %s: range [%d, %d) exceeds %d chunks", name, lo, hi, maxBoundsPerHead)
	}
	m := opts.metrics()
	h, err := fetchHead(ctx, env, name, req, opts.headRetry(), m.headRetries)
	if err != nil {
		return nil, err
	}
	if anchor != nil && h.chainLo != *anchor {
		return nil, fmt.Errorf("statesync %s: agreed chain anchor at slot %d diverges from local chain", name, lo)
	}
	prev := h.chainLo
	a := lo
	out := make([][]acs.Entry, 0, hi-lo)
	for _, b := range h.bounds {
		data, err := rbc.Pull(ctx, env, PullSession(name), b.content, opts.maxChunkBytes())
		if err != nil {
			return nil, fmt.Errorf("statesync %s: chunk [%d, %d): %w", name, a, b.end, err)
		}
		slots, err := acs.DecodeRange(data, a, b.end, env.N)
		if err != nil {
			// The bytes hash to the agreed digest yet decode hostile: the
			// quorum itself was corrupted (> t faults). Fatal by design.
			return nil, fmt.Errorf("statesync %s: agreed chunk [%d, %d) malformed: %w", name, a, b.end, err)
		}
		for _, entries := range slots {
			prev = acs.ChainNext(prev, entries)
		}
		if prev != b.chain {
			return nil, fmt.Errorf("statesync %s: chunk [%d, %d) does not re-chain to the agreed boundary", name, a, b.end)
		}
		out = append(out, slots...)
		a = b.end
		m.chunksInstalled.Inc()
	}
	return out, nil
}

// Sync catches store up to slot target through the sync service rooted at
// name, fetching chunk-sized ranges anchored at the store's own chain and
// installing each the moment it verifies — so a replica chasing a ledger
// that is still committing streams chunks as the network's cursor
// advances, instead of waiting for the full range to exist. It returns
// once store.Next() ≥ target, whoever got it there: a range the store
// comes to hold by its own commits while the fetch is out is no longer
// waited for.
func Sync(ctx context.Context, env *runtime.Env, name string, store *acs.Store, target int, opts Options) error {
	chunk := opts.chunkSlots()
	for {
		lo := store.Next()
		if lo >= target {
			return nil
		}
		hi := lo + chunk
		if hi > target {
			hi = target
		}
		anchor, ok := store.ChainDigest(lo)
		if !ok {
			return fmt.Errorf("statesync %s: local chain missing at cursor %d", name, lo)
		}
		fetchCtx, cancel := context.WithCancel(ctx)
		go func() {
			for {
				advanced := store.Advanced()
				if store.Next() >= hi {
					cancel()
					return
				}
				select {
				case <-advanced:
				case <-fetchCtx.Done():
					return
				}
			}
		}()
		slots, err := Fetch(fetchCtx, env, name, lo, hi, &anchor, opts)
		cancel()
		if err != nil {
			if ctx.Err() == nil && store.Next() >= hi {
				continue
			}
			return err
		}
		for i, entries := range slots {
			store.SetSlot(lo+i, entries)
		}
	}
}

// fetchHead broadcasts one head request and blocks until t+1 parties
// answer with the identical head for exactly this request. Each sender
// contributes only its latest answer, so a Byzantine flood of distinct
// heads can never assemble a quorum out of one corrupted party. The
// request is re-broadcast on quiet intervals: a server whose pending
// slot was displaced by this party's other concurrent sync client (one
// pending request per requester) answers the re-send once the range is
// available, so concurrent clients contend for the slot but never starve.
func fetchHead(ctx context.Context, env *runtime.Env, name string, req headReq, retry time.Duration, retries *obs.Counter) (head, error) {
	session := HeadSession(name)
	request := encodeHeadReq(req)
	env.SendAll(session, msgHeadReq, request)
	reply := runtime.SubSession(session, "r", env.ID, req.nonce)
	latest := make(map[int]string) // sender -> its current head encoding
	for {
		wctx, cancel := context.WithTimeout(ctx, retry)
		msg, err := env.Recv(wctx, reply)
		cancel()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, runtime.ErrClosed) {
				return head{}, fmt.Errorf("statesync %s: head [%d, %d): %w", name, req.lo, req.hi, err)
			}
			retries.Inc()
			env.SendAll(session, msgHeadReq, request)
			continue
		}
		if msg.Type != msgHead || msg.From < 0 || msg.From >= env.N {
			continue
		}
		h, ok := parseHead(msg.Payload)
		if !ok || h.req != req {
			continue // malformed, or a stale answer to an earlier request
		}
		latest[msg.From] = string(msg.Payload)
		votes := 0
		for _, enc := range latest {
			if enc == latest[msg.From] {
				votes++
			}
		}
		if votes >= env.T+1 {
			return h, nil
		}
	}
}
