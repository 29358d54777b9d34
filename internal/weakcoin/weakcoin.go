// Package weakcoin implements a Canetti–Rabin-style weak common coin from n
// parallel SVSS instances, the primitive underlying the almost-surely
// terminating Byzantine agreement of Abraham–Dolev–Halpern [2] that the
// paper's Algorithms 1 and 4 consume.
//
// Weak means: with constant probability all nonfaulty parties output the
// same uniformly random bit, but the adversary can also cause disagreement
// or bias in a constant fraction of flips (the paper's strong coin,
// internal/core.CoinFlip, is exactly the upgrade that removes this).
//
// Protocol sketch: every party deals one uniformly random field element via
// SVSS. After completing n−t share phases it broadcasts the set of dealers
// it saw complete (ATTACH). A party accepts an ATTACH set once all its
// dealers' share phases completed locally, takes the union U of the first
// n−t accepted sets, reconstructs every dealer's value in U, and outputs the
// parity of the sum. Values are bound (binding-or-shun) before any reveal
// begins, so the adversary cannot choose its contributions after seeing
// honest values; disagreement arises only from parties adopting different
// unions.
package weakcoin

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"asyncft/internal/field"
	"asyncft/internal/runtime"
	"asyncft/internal/svss"
	"asyncft/internal/wire"
)

// msgAttach carries the sender's set of completed dealers.
const msgAttach uint8 = 1

// Flip runs one weak coin flip on the given session. All nonfaulty parties
// must call Flip with the same session for it to terminate. Helper
// participation in other parties' reconstructions continues in the
// background under helperCtx after Flip returns, mirroring the paper's
// "continue participating in all relevant invocations until they
// terminate": pass a context that outlives the flip — the cluster's, or the
// scope of the core call the flip belongs to, which ends when that call is
// released.
func Flip(ctx, helperCtx context.Context, env *runtime.Env, session string, opts svss.Options) (byte, error) {
	v, err := FlipValue(ctx, helperCtx, env, session, opts)
	if err != nil {
		return 0, err
	}
	return v.Bit(), nil
}

// FlipValue is Flip exposing the full reconstructed field element instead of
// its parity. One flip can then seed many consumers — internal/core derives
// an independent bit per BA instance from a single per-(slot, round) flip,
// turning n coin protocols per round into one.
func FlipValue(ctx, helperCtx context.Context, env *runtime.Env, session string, opts svss.Options) (field.Elem, error) {
	n, t := env.N, env.T

	// Share completion tracking shared between the dealer goroutines and the
	// attach-set machinery.
	var (
		mu        sync.Mutex
		completed = make(map[int]*svss.Share)
		compCh    = make(chan int, n)
		recOnce   = make(map[int]bool)
	)

	shareSess := func(dealer int) string { return runtime.SubSession(session, "sh", dealer) }

	// Participate in every share phase (dealing our own random value).
	shareErr := make(chan error, n)
	for d := 0; d < n; d++ {
		d := d
		senv := env.Fork(shareSess(d))
		go func() {
			var secret field.Elem // only the dealer's value is shared
			if d == env.ID {
				secret = field.Random(senv.Rand)
			}
			sh, err := svss.RunShare(helperCtx, senv, shareSess(d), d, secret)
			if err != nil {
				shareErr <- err
				return
			}
			mu.Lock()
			completed[d] = sh
			mu.Unlock()
			select {
			case compCh <- d:
			default:
			}
			shareErr <- nil
		}()
	}

	// startRec launches (once) this party's participation in dealer d's
	// reconstruction, reporting the value on out if non-nil.
	startRec := func(d int, out chan<- recResult) {
		mu.Lock()
		if recOnce[d] {
			mu.Unlock()
			if out != nil {
				// The caller needs the value but a helper already started
				// the reconstruction; re-running RunRec would double-send.
				// This cannot happen: helpers only start after the union is
				// fixed, and union members get out != nil on first start.
				panic("weakcoin: reconstruction started twice with output")
			}
			return
		}
		recOnce[d] = true
		sh := completed[d]
		mu.Unlock()
		renv := env.Fork(shareSess(d) + "/rec")
		go func() {
			v, err := svss.RunRec(helperCtx, renv, sh, opts)
			if out != nil {
				out <- recResult{dealer: d, value: v, err: err}
			}
		}()
	}

	// Attach-set handling: broadcast ours after n−t completions; accept
	// others' once their dealers completed locally; union the first n−t
	// accepted; keep helping with late sets under helperCtx.
	attachCh := make(chan []int, 2*n)
	box := env.Node.Mailbox(session)
	go func() {
		for {
			msg, err := box.Recv(helperCtx)
			if err != nil {
				return
			}
			if msg.Type != msgAttach {
				continue
			}
			r := wire.NewReader(msg.Payload)
			set := r.Ints(n)
			if r.Err() != nil || !validSet(set, n, n-t) {
				continue
			}
			select {
			case attachCh <- set:
			case <-helperCtx.Done():
				return
			}
		}
	}()

	// Wait for n−t local share completions, then broadcast our attach set.
	done := 0
	var sent bool
	var pending [][]int
	accepted := 0
	union := map[int]bool{}
	var unionFixed bool

	acceptReady := func(set []int) bool {
		mu.Lock()
		defer mu.Unlock()
		for _, d := range set {
			if completed[d] == nil {
				return false
			}
		}
		return true
	}

	recResults := make(chan recResult, n)
	var wanted []int

	for !unionFixed {
		select {
		case <-compCh:
			mu.Lock()
			done = len(completed)
			mu.Unlock()
			if done >= n-t && !sent {
				sent = true
				mu.Lock()
				mine := make([]int, 0, done)
				for d := range completed {
					mine = append(mine, d)
				}
				mu.Unlock()
				sort.Ints(mine)
				if len(mine) > n-t {
					mine = mine[:n-t]
				}
				var w wire.Writer
				w.Ints(mine)
				env.SendAll(session, msgAttach, w.Bytes())
			}
			// A completion may unlock pending attach sets.
			remaining := pending[:0]
			for _, set := range pending {
				if accepted < n-t && acceptReady(set) {
					accepted++
					for _, d := range set {
						union[d] = true
					}
				} else {
					remaining = append(remaining, set)
				}
			}
			pending = remaining
		case set := <-attachCh:
			if accepted < n-t && acceptReady(set) {
				accepted++
				for _, d := range set {
					union[d] = true
				}
			} else {
				pending = append(pending, set)
			}
		case err := <-shareErr:
			if err != nil {
				return 0, fmt.Errorf("weakcoin %s: %w", session, err)
			}
			continue
		case <-ctx.Done():
			return 0, fmt.Errorf("weakcoin %s: %w", session, ctx.Err())
		}
		if accepted >= n-t {
			unionFixed = true
			for d := range union {
				wanted = append(wanted, d)
				startRec(d, recResults)
			}
		}
	}

	// Helper loop: join reconstructions requested by other parties' attach
	// sets (including those still pending when our union fixed) so their
	// Recs reach quorum. Runs until helperCtx ends.
	go func() {
		wantRec := map[int]bool{}
		for _, set := range pending {
			for _, d := range set {
				wantRec[d] = true
			}
		}
		for {
			var ready []int
			mu.Lock()
			for d := range wantRec {
				if completed[d] != nil {
					ready = append(ready, d)
				}
			}
			mu.Unlock()
			for _, d := range ready {
				startRec(d, nil)
				delete(wantRec, d)
			}
			select {
			case set := <-attachCh:
				for _, d := range set {
					wantRec[d] = true
				}
			case <-compCh:
			case <-helperCtx.Done():
				return
			}
		}
	}()

	// Collect our union's values; failed reconstructions (possible only
	// with a Byzantine dealer, and accompanied by a shun event) count as 0.
	var sum field.Elem
	for range wanted {
		select {
		case r := <-recResults:
			if r.err == nil {
				sum = field.Add(sum, r.value)
			}
		case <-ctx.Done():
			return 0, fmt.Errorf("weakcoin %s: %w", session, ctx.Err())
		}
	}
	return sum, nil
}

type recResult struct {
	dealer int
	value  field.Elem
	err    error
}

// validSet checks an attach set: exactly size distinct dealers in range.
func validSet(set []int, n, size int) bool {
	if len(set) != size {
		return false
	}
	seen := map[int]bool{}
	for _, d := range set {
		if d < 0 || d >= n || seen[d] {
			return false
		}
		seen[d] = true
	}
	return true
}
