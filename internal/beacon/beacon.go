// Package beacon turns the paper's strong common coin into a randomness
// beacon: a stream of agreed, low-bias random bits and values that all
// parties observe identically. This is the canonical application of a
// *strong* (always-agreed) coin — a weak coin cannot provide a beacon,
// because a constant fraction of its outputs are not common knowledge.
//
// All nonfaulty parties construct a Beacon over the same session and call
// the same sequence of methods; the i-th call at every party runs the same
// underlying CoinFlip instances, so outputs match everywhere. Each bit's
// CoinFlip releases its session tree once n−t parties have output it, and
// the bits are numbered, so a beacon holds what its bits in flight hold
// however many it has emitted.
package beacon

import (
	"context"
	"fmt"
	"sync"

	"asyncft/internal/core"
	"asyncft/internal/runtime"
)

// Beacon is one party's handle on the shared randomness stream.
type Beacon struct {
	env       *runtime.Env
	helperCtx context.Context
	session   string
	cfg       core.Config

	mu   sync.Mutex
	next int
}

// New creates a beacon handle. cfg.K governs the per-bit cost/bias
// trade-off exactly as in core.CoinFlip.
func New(helperCtx context.Context, env *runtime.Env, session string, cfg core.Config) *Beacon {
	return &Beacon{env: env, helperCtx: helperCtx, session: session, cfg: cfg}
}

// Index returns the number of bits emitted so far.
func (b *Beacon) Index() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.next
}

// Bit emits the next agreed random bit. Every nonfaulty party's i-th Bit
// call returns the same value.
func (b *Beacon) Bit(ctx context.Context) (byte, error) {
	b.mu.Lock()
	i := b.next
	b.next++
	b.mu.Unlock()
	bit, err := core.CoinFlip(ctx, b.helperCtx, b.env, runtime.SubSession(b.session, "bit", i), b.cfg)
	if err != nil {
		return 0, fmt.Errorf("beacon %s bit %d: %w", b.session, i, err)
	}
	return bit, nil
}

// Bits emits the next n agreed bits, most significant first.
func (b *Beacon) Bits(ctx context.Context, n int) ([]byte, error) {
	out := make([]byte, n)
	for i := range out {
		v, err := b.Bit(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Uint emits an agreed random value in [0, 2^bits).
func (b *Beacon) Uint(ctx context.Context, bits int) (uint64, error) {
	if bits < 1 || bits > 63 {
		return 0, fmt.Errorf("beacon: bits=%d out of range [1,63]", bits)
	}
	var v uint64
	for i := 0; i < bits; i++ {
		bit, err := b.Bit(ctx)
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(bit&1)
	}
	return v, nil
}

// Intn emits an agreed random value in [0, m) by rejection sampling over
// the smallest covering power of two — unlike modulo reduction, this adds
// no bias beyond the per-bit ε. m must be at least 1.
func (b *Beacon) Intn(ctx context.Context, m int) (int, error) {
	if m < 1 {
		return 0, fmt.Errorf("beacon: m=%d < 1", m)
	}
	if m == 1 {
		return 0, nil
	}
	bits := 0
	for 1<<bits < m {
		bits++
	}
	for {
		v, err := b.Uint(ctx, bits)
		if err != nil {
			return 0, err
		}
		if int(v) < m {
			return int(v), nil
		}
		// Rejected: all parties see the same value, so all retry together.
	}
}
