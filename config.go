package asyncft

import (
	"context"
	"fmt"
	"time"

	"asyncft/internal/adversary"
	"asyncft/internal/ba"
	"asyncft/internal/core"
	"asyncft/internal/network"
	"asyncft/internal/shard"
	"asyncft/internal/statesync"
	"asyncft/internal/svss"
)

// Scheduling selects the network scheduling regime — the adversary's
// control over message delivery order.
type Scheduling int

const (
	// SchedulingRandom reorders messages pseudo-randomly (seeded): the
	// default adversarial-but-fair asynchronous schedule.
	SchedulingRandom Scheduling = iota
	// SchedulingFIFO delivers in send order — effectively synchronous.
	SchedulingFIFO
	// SchedulingTargeted starts FIFO but exposes Cluster.Hold/Lift for
	// targeted adversarial delays.
	SchedulingTargeted
)

// CoinKind selects the coin driving the binary-agreement substrate.
type CoinKind int

const (
	// CoinWeak uses the SVSS-based weak common coin of [2] — the
	// information-theoretically faithful configuration.
	CoinWeak CoinKind = iota
	// CoinLocal uses private randomness (Ben-Or): far cheaper, with
	// exponential worst-case expected termination; intended for large
	// parameter sweeps.
	CoinLocal
)

// Config describes a cluster.
type Config struct {
	// N is the number of parties; T the corruption budget. 3T+1 ≤ N is
	// required (optimal resilience is N = 3T+1).
	N, T int
	// Seed makes runs reproducible (default 1).
	Seed int64
	// Timeout bounds every protocol run on the cluster (default 60s).
	Timeout time.Duration
	// Scheduling selects the message-delivery adversary.
	Scheduling Scheduling
	// Coin selects the BA substrate coin (default CoinWeak).
	Coin CoinKind
	// CoinRounds overrides the per-CoinFlip round count k. Zero uses the
	// paper's constant PaperK(Eps, N) — conservative to the point of
	// impracticality; set explicitly for interactive use.
	CoinRounds int
	// Eps is the strong coin's target bias (default 0.1).
	Eps float64
	// MaxBARounds caps binary-agreement rounds as a harness failsafe
	// (default 64; exceeded caps surface as errors, never silently).
	MaxBARounds int
	// Byzantine assigns behaviors to corrupted parties. len(Byzantine) must
	// not exceed T. Corrupted parties run the behavior instead of honest
	// protocol code.
	Byzantine map[int]Behavior
	// TraceCapacity, when positive, records the last TraceCapacity network
	// events (sends/deliveries) for post-mortem inspection via DumpTrace.
	TraceCapacity int
	// SyncChunkSlots is the slot count per state-transfer snapshot chunk
	// (Cluster.SyncFrom, AtomicBroadcastSpec.Resume). Zero uses
	// statesync's default. It is requester-side: servers chunk whatever
	// granularity a request asks for, so differently-configured parties
	// interoperate. Size it so a chunk's encoding stays under the
	// transfer cap (N · batch size · SyncChunkSlots ≲ 1 MiB).
	SyncChunkSlots int
}

func (c Config) validate() error {
	if c.N <= 0 || c.T < 0 {
		return fmt.Errorf("asyncft: invalid N=%d T=%d", c.N, c.T)
	}
	if 3*c.T+1 > c.N {
		return fmt.Errorf("asyncft: resilience bound violated: need N ≥ 3T+1, got N=%d T=%d", c.N, c.T)
	}
	if len(c.Byzantine) > c.T {
		return fmt.Errorf("asyncft: %d Byzantine parties exceed corruption budget T=%d", len(c.Byzantine), c.T)
	}
	for id := range c.Byzantine {
		if id < 0 || id >= c.N {
			return fmt.Errorf("asyncft: Byzantine party %d out of range", id)
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.Eps <= 0 || c.Eps >= 0.5 {
		c.Eps = 0.1
	}
	return c
}

// coreConfig translates the public knobs into the internal protocol config.
func (c Config) coreConfig() core.Config {
	inner := core.InnerCoinWeak
	if c.Coin == CoinLocal {
		inner = core.InnerCoinLocal
	}
	return core.Config{
		K:         c.CoinRounds,
		Eps:       c.Eps,
		InnerCoin: inner,
		SVSS:      svss.Options{},
		BA:        ba.Options{MaxRounds: c.MaxBARounds},
	}
}

// syncOptions translates the public state-transfer knobs.
func (c Config) syncOptions() statesync.Options {
	return statesync.Options{ChunkSlots: c.SyncChunkSlots}
}

func (c Config) policy() network.Policy {
	switch c.Scheduling {
	case SchedulingFIFO:
		return network.FIFO{}
	case SchedulingTargeted:
		return network.NewTargeted()
	default:
		return network.NewRandomReorder(c.Seed, 0.3, 6)
	}
}

// Behavior is an opaque Byzantine strategy; construct with Crash, Noise,
// EquivocatingDealer, or LyingRevealer.
type Behavior struct {
	inner adversary.Behavior
}

// Crash returns the silent adversary: the corrupted party sends nothing.
func Crash() Behavior { return Behavior{adversary.Crash{}} }

// Noise returns a fuzzing adversary that floods protocol sessions with
// garbage messages honest parties must ignore.
func Noise(sessions ...string) Behavior {
	return Behavior{adversary.Noise{Sessions: sessions}}
}

// EquivocatingDealer returns the SVSS binding attacker for the given share
// session: victims in camp 0 see a sharing of 0, camp 1 a sharing of 1.
func EquivocatingDealer(session string, camp map[int]int, seed int64) Behavior {
	return Behavior{adversary.EquivocatingDealer{Session: session, Camp: camp, Seed: seed}}
}

// LyingRevealer returns an adversary that runs the share phase of session
// honestly and lies during reconstruction.
func LyingRevealer(session string, dealer int) Behavior {
	return Behavior{adversary.LyingRevealer{Session: session, Dealer: dealer}}
}

// LyingSnapshotServer returns the Byzantine snapshot server for the given
// atomic-broadcast session: a real state-transfer server over a forged
// ledger, answering head requests with fabricated digests and pulls with
// wrong bytes — typically before any honest server answers. Syncing
// replicas must reject all of it and complete off the honest peers.
func LyingSnapshotServer(session string) Behavior {
	return Behavior{statesync.LyingServer{Session: shard.Session("abc/"+session, 0)}}
}

// WrongBytesSnapshotServer returns a Byzantine snapshot server that
// answers every state-transfer pull instantly with corrupted or truncated
// bytes for exactly the requested digest. Syncing replicas must reject
// each response on its digest and retry against an honest peer.
func WrongBytesSnapshotServer(session string) Behavior {
	return Behavior{statesync.WrongBytesServer{Session: shard.Session("abc/"+session, 0)}}
}

// BehaviorFunc adapts a function into a Behavior for custom attacks; see
// the Party type for the capabilities handed to it.
func BehaviorFunc(name string, fn func(ctx context.Context, p *Party) error) Behavior {
	return Behavior{behaviorFunc{name: name, fn: fn}}
}
