// Package ba implements almost-surely terminating binary asynchronous
// Byzantine agreement (Definition 3.3 of the paper) with optimal resilience
// n ≥ 3t+1, in the style of Ben-Or's randomized agreement driven by a
// pluggable common coin — the structure of the Abraham–Dolev–Halpern
// protocol [2] the paper builds on.
//
// Properties (for any coin, even adversarial):
//
//   - Validity: a unanimous nonfaulty input is the only possible output.
//     The BCA engine (Options.UseBCA) guarantees this deterministically —
//     BV-broadcast admission never lets an estimate move to a value
//     lacking an honest supporter. The classic report/propose rounds
//     guarantee it only when the round's candidate reaches its quorum: a
//     worst-case scheduler can mix t faulty reports into every party's
//     n−t sample so no value clears the (n+t)/2 bar, handing the round to
//     the coin — layers whose safety leans on unanimous-input validity
//     (the acs fast path, the guided coin schedule) must therefore use
//     the BCA engine, and core.Config enforces exactly that.
//   - Correctness (agreement): no two nonfaulty parties output differently.
//   - Termination: almost-sure, with expected round count governed by the
//     coin quality — a perfect common coin gives O(1) expected rounds, the
//     weak coin of [2] a constant factor more, and a purely local coin the
//     exponential expectation of Ben-Or's original protocol (measured in
//     EXPERIMENTS.md E7).
//
// Each round has a report phase and a proposal phase with quorum-
// intersection thresholds that make safety coin-independent; the coin only
// steers liveness. A decision gadget (DECIDED amplification, à la Bracha's
// termination module) lets parties halt: t+1 DECIDED messages for one value
// are adopted, 2t+1 permit halting.
package ba

import (
	"context"
	"errors"
	"fmt"

	"asyncft/internal/obs"
	"asyncft/internal/runtime"
	"asyncft/internal/wire"
)

// Message types.
const (
	msgReport  uint8 = 1
	msgPropose uint8 = 2
	msgDecided uint8 = 3
)

// noProposal is the on-wire ⊥ for the proposal phase.
const noProposal byte = 2

// Coin supplies the shared randomness for a round. Implementations range
// from a local random bit to the paper's strong common coin (see
// internal/core). The same round number always yields the same value at
// whichever parties complete the call, for common coins.
type Coin func(ctx context.Context, round int) (byte, error)

// LocalCoin returns a coin that is simply a private random bit — Ben-Or's
// original scheme, with exponential expected termination when inputs are
// split. It is the E7 baseline.
func LocalCoin(env *runtime.Env) Coin {
	return func(ctx context.Context, round int) (byte, error) {
		return byte(env.Rand.Intn(2)), nil
	}
}

// ErrMaxRounds is returned when the round cap is exceeded — a test-harness
// failsafe, reported loudly rather than hiding non-termination; almost-sure
// termination makes it vanishingly rare at sensible caps.
var ErrMaxRounds = errors.New("ba: round cap exceeded")

// Stats receives instrumentation from a run when attached via Options.
type Stats struct {
	// Rounds is the number of rounds the party entered before halting.
	Rounds int
	// Decided is the round in which this party first decided (0 if it
	// adopted the decision from the halting gadget without deciding
	// locally).
	Decided int
}

// Options tune an agreement instance.
type Options struct {
	// MaxRounds caps the number of rounds (default 64).
	MaxRounds int
	// Stats, when non-nil, is filled with run instrumentation (single
	// goroutine use only).
	Stats *Stats
	// UseBCA selects the Binding Crusader Agreement round structure (see
	// bca.go) instead of the classic report/propose rounds. All nonfaulty
	// parties of a session must agree on this flag; the two paths use
	// disjoint message types and do not interoperate. Unlike the classic
	// rounds, BCA provides unanimous-input validity deterministically (see
	// the package comment), which the acs fast path and the guided coin
	// schedule depend on — core.Config forces this flag on when FastPath
	// is set.
	UseBCA bool
	// Metrics, when non-nil, receives aggregate counters across instances:
	// rounds entered, decisions reached and coin callback invocations,
	// each labeled by engine ("classic" or "bca").
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxRounds <= 0 {
		o.MaxRounds = 64
	}
	return o
}

// roundState accumulates one round's messages. Messages for future rounds
// buffer here until the local party catches up.
type roundState struct {
	reports    map[int]byte
	proposals  map[int]byte
	sentReport bool
	sentProp   bool
	coinAsked  bool
}

type parsedMsg struct {
	from  int
	typ   uint8
	round int
	value byte
	err   error
}

// Run executes one binary agreement. All nonfaulty parties must call Run
// with the same session for termination. input must be 0 or 1. Coin
// invocations run in the background under ctx; pass a context that outlives
// the call (e.g. the cluster context) so that parties that halt early keep
// their coin participation alive for slower parties.
func Run(ctx context.Context, env *runtime.Env, session string, input byte, coin Coin, opts Options) (byte, error) {
	opts = opts.withDefaults()
	if input > 1 {
		return 0, fmt.Errorf("ba %s: input %d not binary", session, input)
	}
	var m *baMetrics
	if opts.Metrics != nil {
		m = newBAMetrics(opts.Metrics, opts.UseBCA)
		if opts.Stats == nil {
			// The per-run Stats carry the round count the aggregate
			// counters need; attach a private one when the caller brought
			// none.
			opts.Stats = &Stats{}
		}
		inner := coin
		coin = func(ctx context.Context, round int) (byte, error) {
			m.coins.Inc()
			return inner(ctx, round)
		}
	}
	run := runClassic
	if opts.UseBCA {
		run = runBCA
	}
	v, err := run(ctx, env, session, input, coin, opts)
	if m != nil && err == nil {
		m.rounds.Add(uint64(opts.Stats.Rounds))
		m.decisions.Inc()
	}
	return v, err
}

// baMetrics are one engine's aggregate counters on a shared registry.
type baMetrics struct {
	rounds, decisions, coins *obs.Counter
}

func newBAMetrics(reg *obs.Registry, useBCA bool) *baMetrics {
	engine := "classic"
	if useBCA {
		engine = "bca"
	}
	return &baMetrics{
		rounds:    reg.CounterVec("ba_rounds_total", "BA rounds entered before halting, by engine.", "engine").With(engine),
		decisions: reg.CounterVec("ba_decisions_total", "BA instances decided, by engine.", "engine").With(engine),
		coins:     reg.CounterVec("ba_coin_invocations_total", "Coin callback invocations (guided rounds included), by engine.", "engine").With(engine),
	}
}

// runClassic executes the report/propose round structure. opts are
// resolved by Run.
func runClassic(ctx context.Context, env *runtime.Env, session string, input byte, coin Coin, opts Options) (byte, error) {
	n, t := env.N, env.T

	rounds := map[int]*roundState{}
	state := func(r int) *roundState {
		s := rounds[r]
		if s == nil {
			s = &roundState{reports: map[int]byte{}, proposals: map[int]byte{}}
			rounds[r] = s
		}
		return s
	}

	// decidedBy[v] is the set of parties that announced DECIDED(v); a party
	// equivocating across values counts in both, but 2t+1 of one value
	// still implies t+1 honest announcements.
	decidedBy := map[byte]map[int]bool{0: {}, 1: {}}
	decided := false
	var decision byte

	type coinResult struct {
		round int
		value byte
		err   error
	}
	coinCh := make(chan coinResult, opts.MaxRounds+1)
	coinVals := map[int]byte{}

	// Message pump: parse and forward session traffic.
	msgs := make(chan parsedMsg, 64)
	box := env.Node.Mailbox(session)
	go func() {
		for {
			m, err := box.Recv(ctx)
			if err != nil {
				select {
				case msgs <- parsedMsg{err: err}:
				case <-ctx.Done():
				}
				return
			}
			r := wire.NewReader(m.Payload)
			var pm parsedMsg
			pm.from, pm.typ = m.From, m.Type
			switch m.Type {
			case msgReport, msgPropose:
				pm.round = r.Int()
				pm.value = r.Byte()
			case msgDecided:
				pm.value = r.Byte()
			default:
				continue
			}
			if r.Err() != nil || pm.round < 0 || pm.round > opts.MaxRounds {
				continue
			}
			select {
			case msgs <- pm:
			case <-ctx.Done():
				return
			}
		}
	}()

	sendRound := func(typ uint8, round int, v byte) {
		var w wire.Writer
		w.Int(round).Byte(v)
		env.SendAll(session, typ, w.Bytes())
	}

	est := input
	r := 1
	phase := 1 // 1 awaiting reports, 2 awaiting proposals, 3 round done

	decide := func(v byte) {
		if !decided {
			decided = true
			decision = v
			if opts.Stats != nil && opts.Stats.Decided == 0 {
				opts.Stats.Decided = r
			}
			var w wire.Writer
			w.Byte(v)
			env.SendAll(session, msgDecided, w.Bytes())
		}
	}

	startRound := func() {
		s := state(r)
		if !s.sentReport {
			s.sentReport = true
			sendRound(msgReport, r, est)
		}
		if !s.coinAsked {
			s.coinAsked = true
			round := r
			go func() {
				v, err := coin(ctx, round)
				select {
				case coinCh <- coinResult{round, v & 1, err}:
				case <-ctx.Done():
				}
			}()
		}
	}
	startRound()

	// step advances the state machine as far as current information allows;
	// it reports whether it made progress.
	step := func() (bool, error) {
		s := state(r)
		switch phase {
		case 1:
			if len(s.reports) < n-t {
				return false, nil
			}
			var tally [2]int
			for _, v := range s.reports {
				tally[v]++
			}
			// A value reported by more than (n+t)/2 parties is the round's
			// candidate; two distinct values cannot both clear this bar.
			cand := noProposal
			for v := 0; v < 2; v++ {
				if 2*tally[v] > n+t {
					cand = byte(v)
				}
			}
			if !s.sentProp {
				s.sentProp = true
				sendRound(msgPropose, r, cand)
			}
			phase = 2
			return true, nil
		case 2:
			if len(s.proposals) < n-t {
				return false, nil
			}
			var tally [2]int
			for _, v := range s.proposals {
				if v != noProposal {
					tally[v]++
				}
			}
			for v := byte(0); v < 2; v++ {
				switch {
				case tally[v] >= 2*t+1:
					// Every honest party sees ≥ t+1 of these proposals
					// (quorum intersection), so all adopt est = v below.
					decide(v)
					est = v
					phase = 3
					return true, nil
				case tally[v] >= t+1:
					est = v
					phase = 3
					return true, nil
				}
			}
			// No guidance: adopt the round's coin once it lands.
			cv, ok := coinVals[r]
			if !ok {
				return false, nil
			}
			est = cv
			phase = 3
			return true, nil
		default: // phase 3: advance
			r++
			if r > opts.MaxRounds {
				return false, ErrMaxRounds
			}
			phase = 1
			startRound()
			return true, nil
		}
	}

	for {
		// Halting gadget.
		for v := byte(0); v < 2; v++ {
			if len(decidedBy[v]) >= t+1 {
				decide(v)
			}
			if decided && decision == v && len(decidedBy[v]) >= 2*t+1 {
				if opts.Stats != nil {
					opts.Stats.Rounds = r
				}
				return v, nil
			}
		}
		progressed, err := step()
		if err != nil {
			return 0, fmt.Errorf("ba %s: %w", session, err)
		}
		if progressed {
			continue
		}
		select {
		case cr := <-coinCh:
			if cr.err != nil {
				if ctx.Err() != nil {
					return 0, fmt.Errorf("ba %s: %w", session, ctx.Err())
				}
				return 0, fmt.Errorf("ba %s round %d: coin: %w", session, cr.round, cr.err)
			}
			coinVals[cr.round] = cr.value
		case <-ctx.Done():
			// The pump may have ended on this same cancellation without
			// handing its error over; nothing else would wake this loop.
			return 0, fmt.Errorf("ba %s: %w", session, ctx.Err())
		case pm := <-msgs:
			if pm.err != nil {
				return 0, fmt.Errorf("ba %s: %w", session, pm.err)
			}
			switch pm.typ {
			case msgReport:
				if pm.value <= 1 {
					s := state(pm.round)
					if _, dup := s.reports[pm.from]; !dup {
						s.reports[pm.from] = pm.value
					}
				}
			case msgPropose:
				if pm.value <= 1 || pm.value == noProposal {
					s := state(pm.round)
					if _, dup := s.proposals[pm.from]; !dup {
						s.proposals[pm.from] = pm.value
					}
				}
			case msgDecided:
				if pm.value <= 1 {
					decidedBy[pm.value][pm.from] = true
				}
			}
		}
	}
}
