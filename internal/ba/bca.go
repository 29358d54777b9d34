// Binding Crusader Agreement round structure (Mostéfaoui–Moumen–Raynal
// style, with the PACE external-validity reuse), selectable via
// Options.UseBCA. Each round runs a BV-broadcast (VAL with t+1 echo relay
// and 2t+1 admission into binval) followed by an AUX vote; the coin only
// steers which admitted value is adopted, so safety is coin-independent
// exactly as in the classic path.
//
// The PACE optimization: an AUX(r, v) message doubles as a VAL(r+1, v)
// vote, so a party whose estimate is unchanged after round r skips the
// VAL broadcast of round r+1 entirely — steady-state rounds cost one
// message step instead of two.
package ba

import (
	"context"
	"fmt"

	"asyncft/internal/runtime"
	"asyncft/internal/wire"
)

// BCA message types (disjoint from the classic path's so a mixed
// configuration fails loudly instead of silently cross-talking).
const (
	msgBcaVal uint8 = 4
	msgBcaAux uint8 = 5
)

// encodeBCARound is the wire form shared by VAL and AUX: a round number
// followed by a binary value.
func encodeBCARound(round int, v byte) []byte {
	var w wire.Writer
	w.Int(round).Byte(v)
	return w.Bytes()
}

// decodeBCARound parses a VAL/AUX payload, rejecting non-binary values and
// negative rounds.
func decodeBCARound(p []byte) (round int, v byte, ok bool) {
	r := wire.NewReader(p)
	round = r.Int()
	v = r.Byte()
	if r.Err() != nil || round < 0 || v > 1 {
		return 0, 0, false
	}
	return round, v, true
}

// bcaRound accumulates one round's BV-broadcast and AUX state. votes[v]
// holds every party seen supporting value v this round — via an explicit
// VAL, an echo, or the previous round's AUX (the PACE credit); a party may
// legitimately support both values, so the sets are per-(party, value).
type bcaRound struct {
	votes     [2]map[int]bool
	aux       map[int]byte
	sentVal   [2]bool
	binval    [2]bool
	sentAux   bool
	auxVal    byte
	coinAsked bool
}

// runBCA executes one binary agreement over the BCA round structure. The
// decision gadget (DECIDED amplification) is shared with the classic path.
func runBCA(ctx context.Context, env *runtime.Env, session string, input byte, coin Coin, opts Options) (byte, error) {
	n, t := env.N, env.T

	rounds := map[int]*bcaRound{}
	state := func(r int) *bcaRound {
		s := rounds[r]
		if s == nil {
			s = &bcaRound{
				votes: [2]map[int]bool{{}, {}},
				aux:   map[int]byte{},
			}
			rounds[r] = s
		}
		return s
	}

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
			var pm parsedMsg
			pm.from, pm.typ = m.From, m.Type
			switch m.Type {
			case msgBcaVal, msgBcaAux:
				round, v, ok := decodeBCARound(m.Payload)
				if !ok || round > opts.MaxRounds {
					continue
				}
				pm.round, pm.value = round, v
			case msgDecided:
				r := wire.NewReader(m.Payload)
				pm.value = r.Byte()
				if r.Err() != nil || pm.value > 1 {
					continue
				}
			default:
				continue
			}
			select {
			case msgs <- pm:
			case <-ctx.Done():
				return
			}
		}
	}()

	est := input
	r := 1
	phase := 1 // 1 awaiting binval, 2 awaiting AUX quorum + coin, 3 round done

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
		if !s.sentVal[est] {
			s.sentVal[est] = true
			// PACE reuse: our AUX(r-1, est) already counts as VAL(r, est)
			// at every party, so only a changed estimate needs a broadcast.
			prev := rounds[r-1]
			if !(prev != nil && prev.sentAux && prev.auxVal == est) {
				env.SendAll(session, msgBcaVal, encodeBCARound(r, est))
			}
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

	// sweep applies the BV-broadcast thresholds for the current round: echo
	// a value once t+1 parties support it, admit it into binval at 2t+1.
	sweep := func(s *bcaRound) {
		for v := byte(0); v < 2; v++ {
			if len(s.votes[v]) >= t+1 && !s.sentVal[v] {
				s.sentVal[v] = true
				env.SendAll(session, msgBcaVal, encodeBCARound(r, v))
			}
			if len(s.votes[v]) >= 2*t+1 {
				s.binval[v] = true
			}
		}
	}

	// step advances the state machine as far as current information allows;
	// it reports whether it made progress.
	step := func() (bool, error) {
		s := state(r)
		sweep(s)
		switch phase {
		case 1:
			if !s.binval[0] && !s.binval[1] {
				return false, nil
			}
			// Vote for an admitted value, preferring our own estimate.
			w := est
			if !s.binval[w] {
				w = 1 - w
			}
			s.sentAux = true
			s.auxVal = w
			env.SendAll(session, msgBcaAux, encodeBCARound(r, w))
			phase = 2
			return true, nil
		case 2:
			// Wait for n−t AUX votes whose values are all admitted; vals is
			// the set of values among them (the crusader output).
			cnt := 0
			var present [2]bool
			for _, v := range s.aux {
				if s.binval[v] {
					cnt++
					present[v] = true
				}
			}
			if cnt < n-t {
				return false, nil
			}
			cv, ok := coinVals[r]
			if !ok {
				return false, nil
			}
			if present[0] != present[1] {
				// vals = {v}: binding — no honest party can adopt 1−v this
				// round, so deciding when the coin agrees is safe.
				v := byte(0)
				if present[1] {
					v = 1
				}
				est = v
				if cv == v {
					decide(v)
				}
			} else {
				est = cv
			}
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
		// Halting gadget (shared with the classic path).
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
			case msgBcaVal:
				state(pm.round).votes[pm.value][pm.from] = true
			case msgBcaAux:
				s := state(pm.round)
				if _, dup := s.aux[pm.from]; !dup {
					s.aux[pm.from] = pm.value
				}
				// PACE credit: this AUX also supports pm.value in the next
				// round's BV-broadcast.
				if pm.round < opts.MaxRounds {
					state(pm.round + 1).votes[pm.value][pm.from] = true
				}
			case msgDecided:
				decidedBy[pm.value][pm.from] = true
			}
		}
	}
}
