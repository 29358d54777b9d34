package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"asyncft/internal/field"
)

// sharedCoin amortizes one weak-coin flip per (slot, round) across all n
// concurrent BA instances of a CommonSubset: the first instance to reach a
// round launches the flip, every other instance waits on the same result and
// derives its own bit from the shared field element. The flip itself runs
// under the helper context, which outlives the instances, so it survives
// individual instances deciding early (the halting gadget can finish a BA
// while its coin request is still in flight).
type sharedCoin struct {
	mu     sync.Mutex
	rounds map[int]*sharedFlip
}

type sharedFlip struct {
	done  chan struct{}
	value field.Elem
	err   error
}

func newSharedCoin() *sharedCoin {
	return &sharedCoin{rounds: map[int]*sharedFlip{}}
}

// get returns the round's shared value, launching run (once per round) in
// the background. Waiters block on their own ctx, so a cancelled instance
// never cancels the flip for its siblings.
func (s *sharedCoin) get(ctx context.Context, round int, run func() (field.Elem, error)) (field.Elem, error) {
	s.mu.Lock()
	f := s.rounds[round]
	if f == nil {
		f = &sharedFlip{done: make(chan struct{})}
		s.rounds[round] = f
		go func() {
			f.value, f.err = run()
			close(f.done)
		}()
	}
	s.mu.Unlock()
	select {
	case <-f.done:
		return f.value, f.err
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// deriveCoinBit expands one shared flip into per-instance bits: instance j's
// bit is the low bit of SHA-256(value ‖ j). Instances get decorrelated bits
// from a single coin protocol; commonness across parties is inherited from
// the underlying flip agreeing on the field element.
func deriveCoinBit(v field.Elem, j int) byte {
	var b [12]byte
	binary.BigEndian.PutUint64(b[:8], uint64(v))
	binary.BigEndian.PutUint32(b[8:], uint32(j))
	h := sha256.Sum256(b[:])
	return h[0] & 1
}
