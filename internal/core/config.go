// Package core implements the paper's contributions: the ε-biased
// almost-surely terminating strong common coin (Algorithm 1, CoinFlip), the
// fair-choice protocol (Algorithm 2, FairChoice), and fair Byzantine
// agreement (Algorithm 3, FBA), over the substrates in internal/svss,
// internal/ba, internal/commonsubset and internal/rbc.
//
// # Lifetime of a call
//
// Every call of FBA, FairChoice or CoinFlip — the FairChoice inside an FBA
// and the CoinFlips inside a FairChoice included — is a scope (scope.go): a
// helper context derived from the caller's helperCtx, under which every
// sub-protocol of the call runs, and a termination gadget on the call's
// "out" sub-session. A party sends OUTPUT(v) to all when it outputs v; a
// party without an output that holds t+1 matching OUTPUT(v) from distinct
// parties adopts v as its output and sends OUTPUT(v) itself; a party that
// holds n−t matching OUTPUT(v) ends the scope and releases the call's whole
// session tree (runtime.Node.Release). The caller returns the moment it has
// an output; the rest happens behind it. A call therefore leaves nothing
// behind — no mailbox, no goroutine — once n−t parties have output,
// however long the node lives. The argument is three lines:
//
//   - Adoption is agreement. Of t+1 matching OUTPUT(v) one is a nonfaulty
//     party's, sent because it output or adopted v, so some nonfaulty
//     party's run output v; every nonfaulty party that completes outputs
//     the same value (Definitions 3.1 and 4.1), so v is what the adopter's
//     own run would output. Agreement, validity, fair validity and the
//     coin's bias are properties of that value and are untouched.
//   - Release never strands anyone. Of n−t matching OUTPUT(v) at least t+1
//     are nonfaulty parties', who sent theirs to everyone: every party
//     still running reaches t+1 and terminates by adoption, with no help
//     from the party that released. Before anyone releases, every nonfaulty
//     party — adopters too, whose runs go on until the release — takes part
//     as the paper has it, so almost-sure termination is preserved.
//   - Liars are bounded by one vote each. A party's first well-formed
//     OUTPUT is its only one, so t Byzantine parties put at most t votes
//     behind any value: below t+1, they cause neither an adoption nor a
//     release; a tally holds at most n values of at most the A-Cast cap.
//
// This deviates, on purpose, from the paper's "continue participating in
// all relevant invocations until they terminate": a party stops
// participating in an invocation once n−t parties have announced its
// output, because from then on whoever has not terminated terminates by
// adoption. (An adopter does not stop at t+1: with t ≥ 2, t+1 votes may
// contain a single nonfaulty one, and the parties short of t+1 still need
// every nonfaulty party's messages.) The gadget draws no randomness and
// forks no Env, so the protocols' random streams are what they were
// without it. What is not covered: a party that never calls the entry
// point keeps what peers sent it, and a session a Byzantine peer invents
// under a tree that was never released is still minted (ROADMAP).
package core

import (
	"context"
	"math"
	"time"

	"asyncft/internal/ba"
	"asyncft/internal/commonsubset"
	"asyncft/internal/field"
	"asyncft/internal/obs"
	"asyncft/internal/rbc"
	"asyncft/internal/runtime"
	"asyncft/internal/svss"
	"asyncft/internal/trace"
	"asyncft/internal/weakcoin"
)

// InnerCoinKind selects the coin used by the binary BA instances inside
// CommonSubset and the final BA of CoinFlip.
type InnerCoinKind int

const (
	// InnerCoinWeak is the SVSS-based weak common coin of [2] — the
	// information-theoretically faithful choice, giving almost-surely
	// terminating inner BAs.
	InnerCoinWeak InnerCoinKind = iota
	// InnerCoinLocal is Ben-Or's private coin: much cheaper, exponential
	// worst-case expectation (fine at small n; used for large sweeps).
	InnerCoinLocal
)

// Config tunes the core protocols. The zero value is a faithful,
// test-friendly configuration.
type Config struct {
	// K is the number of coin rounds per CoinFlip. Zero means use the
	// paper's constant PaperK(Eps, N) — astronomically conservative (see
	// DESIGN.md §2); experiments sweep practical values.
	K int
	// Eps is the target coin bias ε ∈ (0, 1/2); used by PaperK and
	// FairChoice's internal parameterization. Default 0.1.
	Eps float64
	// InnerCoin selects the BA-level coin (default: weak coin).
	InnerCoin InnerCoinKind
	// SharedCoin amortizes one weak-coin flip per (slot, round) across all
	// n BA instances of a CommonSubset instead of one flip per instance per
	// round; each instance derives its bit from the shared field element.
	// Only meaningful with InnerCoinWeak (a local coin is already free).
	// All nonfaulty parties of a session must agree on this flag: it
	// changes the weak-coin session namespace (one flip session per round
	// instead of one per instance per round), so a mixed setting leaves
	// every flip short of its n−t participants and deadlocks the first BA
	// round that reaches the real coin.
	SharedCoin bool
	// SVSS configures secret-sharing reconstruction behavior.
	SVSS svss.Options
	// BA configures the binary agreement instances.
	BA ba.Options
	// RBC configures reliable-broadcast dispersal: the batch size from
	// which the atomic-broadcast slots echo a digest instead of the bytes.
	RBC rbc.Options
	// FastPath enables the unanimous-slot fast path in internal/acs: when
	// all n A-Casts of a slot deliver before agreement starts, the slot
	// commits the full contributor set after one confirmation round and
	// skips the n BA instances. All nonfaulty parties of a session must
	// agree on this flag. Safety never depends on it — any disagreement,
	// digest mismatch or timeout falls back to full agreement.
	//
	// FastPath forces BA.UseBCA (see withDefaults): the fast path's safety
	// argument needs the fallback agreement to satisfy unanimous-input
	// validity against a worst-case scheduler, which only the BCA engine
	// provides — its BV-broadcast never admits a value lacking an honest
	// supporter, whereas the classic report/propose rounds can be steered
	// to the coin even on unanimous honest input.
	FastPath bool
	// FastPathWait is how long a slot with ≥ n−t (but not yet n) local
	// deliveries waits for unanimity before falling back (default 200ms).
	// It trades fallback latency against fast-path hit rate; safety is
	// unaffected.
	FastPathWait time.Duration
	// Trace, when non-nil, receives per-slot agreement milestones
	// ("fast-path commit", "fallback", rounds per decision) and the
	// slot-lifecycle spans the Chrome-trace exporter renders.
	Trace *trace.Recorder
	// Metrics, when non-nil, is the shared observability registry every
	// layer under this configuration registers its instruments on:
	// withDefaults copies it into BA.Metrics and RBC.Metrics, and the
	// protocols layered on this package (acs, mpc, reconfig) read it for
	// their own series. One registry per node — the operational HTTP
	// endpoint (internal/obs) serves it as /metrics.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Eps <= 0 || c.Eps >= 0.5 {
		c.Eps = 0.1
	}
	if c.FastPathWait <= 0 {
		c.FastPathWait = 200 * time.Millisecond
	}
	if c.FastPath {
		// The fast path commits the full contributor set on n matching
		// FASTs and relies on the fallback CommonSubset reproducing that
		// set from all-true predicates — i.e. on deterministic unanimous-
		// input validity of the inner BA. The classic report/propose
		// rounds only give that probabilistically (an adversarial
		// scheduler can starve the round's candidate and hand the round
		// to the coin), so the fast path always runs the BCA engine.
		// FastPath already requires cluster-wide agreement, so the forced
		// flag stays consistent on the wire.
		c.BA.UseBCA = true
	}
	if c.Metrics != nil {
		// One registry feeds every layer; the sub-option copies let ba and
		// rbc instances register without knowing about core.
		c.BA.Metrics = c.Metrics
		c.RBC.Metrics = c.Metrics
	}
	return c
}

// WithDefaults exposes the resolved configuration (defaults filled in) for
// packages that read tuning fields directly, e.g. internal/acs's fast path.
func (c Config) WithDefaults() Config { return c.withDefaults() }

// PaperK returns the paper's round count k = 4·⌈(e/(ε·π))²·n⁴⌉ for
// Algorithm 1. The result saturates at math.MaxInt32 to stay usable in
// arithmetic even for parameters where the paper's constant is absurd.
func PaperK(eps float64, n int) int {
	c := math.E / (eps * math.Pi)
	v := 4 * math.Ceil(c*c*math.Pow(float64(n), 4))
	if v > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(v)
}

// roundsFor resolves the configured K.
func (c Config) roundsFor(n int) int {
	if c.K > 0 {
		return c.K
	}
	return PaperK(c.Eps, n)
}

// innerCoins builds the per-BA-instance coin factory for a CommonSubset (or
// any collection of BA instances) rooted at session.
func (c Config) innerCoins(helperCtx context.Context, env *runtime.Env, session string) commonsubset.CoinFactory {
	if c.InnerCoin == InnerCoinLocal {
		return func(j int) ba.Coin { return ba.LocalCoin(env) }
	}
	if c.SharedCoin {
		sc := newSharedCoin()
		return func(j int) ba.Coin {
			return func(ctx context.Context, round int) (byte, error) {
				v, err := sc.get(ctx, round, func() (field.Elem, error) {
					sess := runtime.SubSession(session, "wc", round)
					return weakcoin.FlipValue(helperCtx, helperCtx, env.Fork(sess), sess, c.SVSS)
				})
				if err != nil {
					return 0, err
				}
				return deriveCoinBit(v, j), nil
			}
		}
	}
	return func(j int) ba.Coin {
		return func(ctx context.Context, round int) (byte, error) {
			sess := runtime.SubSession(session, "ba", j, "wc", round)
			return weakcoin.Flip(ctx, helperCtx, env.Fork(sess), sess, c.SVSS)
		}
	}
}

// innerCoin builds the coin for a single BA instance rooted at session.
func (c Config) innerCoin(helperCtx context.Context, env *runtime.Env, session string) ba.Coin {
	return c.innerCoins(helperCtx, env, session)(0)
}

// InnerCoinFor exposes the configured BA coin for a standalone agreement
// instance rooted at session (used by the public Cluster API).
func (c Config) InnerCoinFor(helperCtx context.Context, env *runtime.Env, session string) ba.Coin {
	return c.withDefaults().innerCoin(helperCtx, env, session)
}

// guidedCoin fixes a BA coin's first two rounds to the schedule 1, 0
// (Cobalt-style). Safety never depends on coin values, and almost-sure
// termination only needs the coin to be random eventually — rounds ≥ 3
// still invoke the real coin. The payoff: a CommonSubset's overwhelmingly
// common instances — unanimous 1 (a delivered broadcast), unanimous 0 (the
// low gear) — decide in one or two deterministic rounds with zero
// coin-protocol invocations, which is where most of a slot's BA rounds
// (and, under InnerCoinWeak, most of its coin flips) used to go.
//
// The schedule is only sound over the BCA engine: BV-broadcast admission
// means an estimate can only ever move to a value with an honest
// supporter, so a fixed coin merely delays decisions. The classic
// report/propose rounds lack that filter — a scheduler that starves the
// round's candidate makes every honest party adopt the coin directly, and
// a deterministic coin then steers the whole cluster onto a value no
// honest party input (e.g. deciding 1 for a proposer that never
// broadcast, hanging the slot on a delivery that never comes). CoinsFor
// therefore applies guidedCoin only when BA.UseBCA is set.
func guidedCoin(c ba.Coin) ba.Coin {
	return func(ctx context.Context, round int) (byte, error) {
		switch round {
		case 1:
			return 1, nil
		case 2:
			return 0, nil
		}
		return c(ctx, round)
	}
}

// CoinsFor exposes the configured per-instance coin factory for a
// CommonSubset rooted at session (used by protocols layered on this
// package, e.g. internal/acs, internal/mpc and internal/reconfig). Under
// the BCA engine (BA.UseBCA, forced by FastPath) the factory's coins are
// guided (see guidedCoin); the classic engine keeps unguided coins, since
// a deterministic first-round schedule is unsound without BV-broadcast
// validity. The core protocols of the paper (CoinFlip, FBA) keep their
// unguided inner coins either way.
//
// Callers running a CommonSubset with these coins must build its options
// via CSOptions (not from the unresolved BA field), so the engine the
// coins assume and the engine the instances run can never disagree.
func (c Config) CoinsFor(helperCtx context.Context, env *runtime.Env, session string) commonsubset.CoinFactory {
	c = c.withDefaults()
	base := c.innerCoins(helperCtx, env, session)
	if !c.BA.UseBCA {
		return base
	}
	return func(j int) ba.Coin { return guidedCoin(base(j)) }
}

// CSOptions returns the commonsubset options matching CoinsFor's resolved
// configuration. Every CommonSubset fed by CoinsFor must use it: passing
// the raw BA field instead would let a resolved-only flag (FastPath
// forcing UseBCA) produce guided coins over the classic engine — exactly
// the unsound pairing CoinsFor exists to rule out.
func (c Config) CSOptions() commonsubset.Options {
	return commonsubset.Options{BA: c.withDefaults().BA}
}
