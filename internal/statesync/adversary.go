package statesync

import (
	"context"
	"crypto/sha256"
	"fmt"

	"asyncft/internal/acs"
	"asyncft/internal/rbc"
	"asyncft/internal/runtime"
)

// LyingServer is the Byzantine snapshot server behavior (it satisfies
// internal/adversary.Behavior): a real statesync server over a forged
// ledger — plausible-looking slots whose entries, content digests and
// chain digests are all fabrications. Because it is a genuine server it
// answers head requests immediately (its forged store is pre-filled, so a
// syncing client usually hears the lie before the truth) and serves pull
// requests with wrong bytes. The trust model must shrug all of it off:
// forged heads never reach a t+1 quorum, and forged chunks never hash to
// an agreed digest.
type LyingServer struct {
	// Session is the sync service name (for the public Cluster API:
	// "abc/" + AtomicBroadcastSpec.Session).
	Session string
	// Slots is how deep the forged ledger pretends to be (default 256).
	Slots int
}

// Name implements adversary.Behavior.
func (LyingServer) Name() string { return "lying-snapshot-server" }

// Run implements adversary.Behavior.
func (a LyingServer) Run(ctx context.Context, env *runtime.Env) error {
	slots := a.Slots
	if slots <= 0 {
		slots = 256
	}
	forged := acs.NewStore()
	for k := 0; k < slots; k++ {
		forged.SetSlot(k, []acs.Entry{{
			Slot:    k,
			Party:   env.ID,
			Payload: []byte(fmt.Sprintf("forged/%d/%d", env.ID, k)),
		}})
	}
	Serve(ctx, env, a.Session, forged, Options{})
	return nil
}

// WrongBytesServer answers every snapshot pull with wrong bytes for
// exactly the digest the victim asked about (alternating full-length
// corruption and truncation), which is the sharpest chunk-level attack a
// snapshot server can mount: the response is addressed, well-formed and
// instant — only the hash is a lie. rbc.Pull must reject it and complete
// off an honest peer.
type WrongBytesServer struct {
	// Session is the sync service name ("abc/" + spec.Session publicly).
	Session string
}

// Name implements adversary.Behavior.
func (WrongBytesServer) Name() string { return "wrong-bytes-snapshot-server" }

// Run implements adversary.Behavior.
func (a WrongBytesServer) Run(ctx context.Context, env *runtime.Env) error {
	flip := false
	rbc.ServePulls(ctx, env, PullSession(a.Session), DefaultMaxChunkBytes,
		func(d [sha256.Size]byte) ([]byte, bool) {
			wrong := make([]byte, 512)
			for i := range wrong {
				wrong[i] = d[i%sha256.Size] ^ byte(i)
			}
			flip = !flip
			if flip {
				return wrong[:37], true // truncated-range flavor
			}
			return wrong, true // wrong-bytes flavor
		}, rbc.Options{})
	return nil
}

// CursorLiar announces a cursor the party's store never reached — the
// announcement-level attack on whoever counts announced cursors toward a
// quorum (internal/shard releases a slot's sessions on n−t of them). One
// liar moves Held(r) only as far as the r−1 next-highest announcements
// allow, so with at most t liars Held(n−t) never passes what t+1 nonfaulty
// stores hold.
type CursorLiar struct {
	// Session is the sync service name.
	Session string
	// Cursor is the claimed cursor.
	Cursor int
}

// Name implements adversary.Behavior.
func (CursorLiar) Name() string { return "cursor-liar" }

// Run implements adversary.Behavior. An entry only grows, so one
// announcement per victim is the whole attack.
func (a CursorLiar) Run(ctx context.Context, env *runtime.Env) error {
	env.SendAll(HeadSession(a.Session), msgCursor, encodeCursor(a.Cursor))
	<-ctx.Done()
	return nil
}
