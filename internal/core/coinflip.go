package core

import (
	"context"
	"fmt"
	"sync"

	"asyncft/internal/ba"
	"asyncft/internal/commonsubset"
	"asyncft/internal/field"
	"asyncft/internal/runtime"
	"asyncft/internal/svss"
)

// CoinFlip runs Algorithm 1: the ε-biased almost-surely terminating strong
// common coin. All nonfaulty parties must call CoinFlip with the same
// session and an equivalent Config (same K/Eps). The result satisfies
// Definition 3.1: every nonfaulty party that completes outputs the same bit,
// and each fixed outcome b has probability at least 1/2 − ε when k =
// PaperK(ε, n) rounds are used (smaller k trades bias for speed; the E1
// experiment measures the tradeoff).
//
// Per round r: every party deals one uniformly random field element via
// SVSS; CommonSubset agrees on a set S_r of at least n−t completed dealers;
// the parties reconstruct exactly the values in S_r and XOR their parities.
// The round parity is unbiased whenever no shun event spoiled the round,
// and fewer than n² shun events can ever occur, so the majority over enough
// rounds concentrates fairly. A final binary BA converts local majorities
// into perfect agreement.
//
// helperCtx should outlive the call (cluster lifetime): it is what the
// call's scope derives from, and the scope is what background participation
// in other parties' reconstructions and lingering BA coin instances run
// under — until n−t parties have announced the coin, when the call's whole
// session tree is released (see scoped).
func CoinFlip(ctx, helperCtx context.Context, env *runtime.Env, session string, cfg Config) (byte, error) {
	cfg = cfg.withDefaults()
	out, err := scoped(ctx, helperCtx, env, session, func(ctx, scope context.Context) ([]byte, error) {
		bit, err := coinFlip(ctx, scope, env, session, cfg)
		return []byte{bit}, err
	})
	if err != nil {
		return 0, err
	}
	if len(out) != 1 || out[0] > 1 {
		return 0, fmt.Errorf("coinflip %s: adopted output %x is not a bit", session, out)
	}
	return out[0], nil
}

// coinFlip is Algorithm 1 itself, run inside CoinFlip's scope. cfg is
// resolved by the caller.
func coinFlip(ctx, helperCtx context.Context, env *runtime.Env, session string, cfg Config) (byte, error) {
	k := cfg.roundsFor(env.N)

	ones := 0
	for r := 1; r <= k; r++ {
		bit, err := coinRound(ctx, helperCtx, env, runtime.SubSession(session, "r", r), cfg)
		if err != nil {
			return 0, fmt.Errorf("coinflip %s round %d: %w", session, r, err)
		}
		ones += int(bit)
	}
	maj := byte(0)
	if 2*ones > k {
		maj = 1
	}
	// Final agreement converts the (possibly non-unanimous, if shun events
	// spoiled rounds) local majorities into a single common output.
	finalSess := runtime.SubSession(session, "final")
	out, err := ba.Run(ctx, env, finalSess, maj, cfg.innerCoin(helperCtx, env, finalSess), cfg.BA)
	if err != nil {
		return 0, fmt.Errorf("coinflip %s: final ba: %w", session, err)
	}
	return out, nil
}

// coinRound executes one iteration of Algorithm 1's loop and returns the
// round bit b'_r.
func coinRound(ctx, helperCtx context.Context, env *runtime.Env, session string, cfg Config) (byte, error) {
	n, t := env.N, env.T
	shareSess := func(d int) string { return runtime.SubSession(session, "sh", d) }

	// Step 1–2: deal our own random value; participate in every share.
	pred := commonsubset.NewPredicate()
	var mu sync.Mutex
	shares := make(map[int]*svss.Share, n)
	shareReady := make(chan int, n)
	shareErrs := make(chan error, n)
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
				shareErrs <- err
				return
			}
			mu.Lock()
			shares[d] = sh
			mu.Unlock()
			pred.Set(d) // step 3: Q_ir(j) = 1 ⟺ SVSS-Share_jr completed
			shareReady <- d
		}()
	}

	// Step 4: agree on a common subset of at least n−t completed dealers.
	set, err := commonsubset.Run(ctx, env, runtime.SubSession(session, "cs"), pred, n-t,
		cfg.innerCoins(helperCtx, env, runtime.SubSession(session, "cs")), commonsubset.Options{BA: cfg.BA})
	if err != nil {
		return 0, err
	}

	// Step 5: reconstruct exactly the values in S_r. Our own share of
	// dealer j must have completed first; SVSS termination guarantees it
	// will (some nonfaulty party completed it, since Q held there).
	type recOut struct {
		bit byte
		err error
	}
	results := make(chan recOut, len(set))
	launch := func(j int) {
		renv := env.Fork(shareSess(j) + "/rec")
		mu.Lock()
		sh := shares[j]
		mu.Unlock()
		go func() {
			v, err := svss.RunRec(helperCtx, renv, sh, cfg.SVSS)
			if err != nil {
				// A failed reconstruction implies a Byzantine dealer and a
				// recorded shun event (svss contract); the round may be
				// spoiled, which the k − n² analysis already budgets for.
				// Count the value as 0 rather than aborting the coin.
				results <- recOut{bit: 0, err: nil}
				return
			}
			results <- recOut{bit: v.Bit()}
		}()
	}
	// Launch reconstructions whose share phase already completed; the rest
	// launch as completions stream in on shareReady.
	pendingLaunch := map[int]bool{}
	var ready []int
	mu.Lock()
	for _, j := range set {
		if shares[j] != nil {
			ready = append(ready, j)
		} else {
			pendingLaunch[j] = true
		}
	}
	mu.Unlock()
	for _, j := range ready {
		launch(j)
	}

	var bit byte
	collected := 0
	for collected < len(set) {
		select {
		case r := <-results:
			if r.err != nil {
				return 0, r.err
			}
			bit ^= r.bit
			collected++
		case d := <-shareReady:
			if pendingLaunch[d] {
				delete(pendingLaunch, d)
				launch(d)
			}
		case err := <-shareErrs:
			return 0, fmt.Errorf("share phase: %w", err)
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	return bit, nil
}
