package core

import (
	"context"
	"fmt"
	"math"

	"asyncft/internal/runtime"
	"asyncft/internal/wire"
)

// FairChoice runs Algorithm 2: all parties agree on one element of
// {0, …, m−1} such that for every subset G with |G| > m/2 the output lands
// in G with probability at least 1/2 (Theorem 4.3) — the "almost fair"
// selection FBA uses to pick a winning input when there is no majority.
//
// It flips l = log₂(N) strong coins for the smallest power of two N with
// 2m² ≤ N ≤ 4m², with per-coin bias ε = 1/(100·m·log₂ m), assembles the
// bits into a number r, and outputs r mod m. All nonfaulty parties must
// call it with the same session and m ≥ 3.
//
// cfg.K, if set, overrides the per-coin round count (the paper's ε-derived
// constant otherwise); all parties must use the same value.
func FairChoice(ctx, helperCtx context.Context, env *runtime.Env, session string, m int, cfg Config) (int, error) {
	cfg = cfg.withDefaults()
	if m < 3 {
		return 0, fmt.Errorf("fairchoice %s: m=%d < 3", session, m)
	}
	out, err := scoped(ctx, helperCtx, env, session, func(ctx, scope context.Context) ([]byte, error) {
		k, err := fairChoice(ctx, scope, env, session, m, cfg)
		return new(wire.Writer).Int(k).Bytes(), err
	})
	if err != nil {
		return 0, err
	}
	r := wire.NewReader(out)
	if k := r.Int(); r.Err() == nil && k >= 0 && k < m {
		return k, nil
	}
	return 0, fmt.Errorf("fairchoice %s: adopted output %x is not in [0, %d)", session, out, m)
}

// fairChoice is Algorithm 2 itself, run inside FairChoice's scope; each of
// its coin flips is a scoped call of its own and is released as it
// finishes. cfg is resolved and m checked by the caller.
func fairChoice(ctx, helperCtx context.Context, env *runtime.Env, session string, m int, cfg Config) (int, error) {
	l := choiceBits(m)
	// The paper pins the coin bias to 1/(100·m·log₂ m); keep it unless the
	// caller overrode the round count for tractability.
	cfg.Eps = 1 / (100 * float64(m) * math.Log2(float64(m)))

	r := 0
	for i := 1; i <= l; i++ {
		b, err := CoinFlip(ctx, helperCtx, env, runtime.SubSession(session, "cf", i), cfg)
		if err != nil {
			return 0, fmt.Errorf("fairchoice %s: flip %d: %w", session, i, err)
		}
		r = r<<1 | int(b&1)
	}
	return r % m, nil
}

// choiceBits returns l, the number of coin flips: the smallest l with
// 2^l ≥ 2m² (equivalently the smallest power of two N in [2m², 4m²]).
func choiceBits(m int) int {
	target := 2 * m * m
	l := 0
	for n := 1; n < target; n <<= 1 {
		l++
	}
	return l
}
