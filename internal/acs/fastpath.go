// The unanimous-slot fast path: when all n A-Casts of a slot deliver
// locally before agreement starts, the slot can commit the full contributor
// set after a single confirmation round — skipping the n BA instances (and
// their coins) entirely.
//
// Confirmation round: a party with all n deliveries broadcasts
// FAST(digest), where the digest fingerprints the full slot output. It
// commits the full set once it holds matching FAST messages from all n
// parties. Safety: a fast commit implies every party — in particular every
// nonfaulty one — sent FAST, so every nonfaulty party saw all n broadcasts
// deliver (with identical bytes, by A-Cast consistency). Any nonfaulty
// party that instead falls back therefore enters CommonSubset with an
// all-true predicate and inputs 1 to every BA instance; by unanimous-input
// validity the fallback also outputs the full set. Fast and fallback
// committers agree, whatever the adversary does.
//
// That argument leans on the inner BA delivering unanimous-input validity
// deterministically, which only the BCA engine does (BV-broadcast never
// admits a value without an honest supporter; the classic report/propose
// rounds can be steered to the coin by an adversarial scheduler even on
// unanimous honest input). core.Config therefore forces BA.UseBCA whenever
// FastPath is set — see Config.withDefaults.
//
// Fallback triggers (liveness only, never safety): a FAST digest mismatch
// (impossible between nonfaulty parties, so it proves a Byzantine sender),
// a peer's SLOW, or FastPathWait expiring after ≥ n−t deliveries. A party
// entering fallback first broadcasts SLOW; parties that already
// fast-committed answer a SLOW by echoing it and joining the fallback
// CommonSubset in the background (under helperCtx), so stragglers always
// find the ≥ n−t participants agreement needs. A Byzantine party can force
// the fallback (e.g. by sending SLOW or withholding its FAST) but that only
// costs the latency the fast path would have saved.
package acs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"asyncft/internal/commonsubset"
	"asyncft/internal/core"
	"asyncft/internal/runtime"
	"asyncft/internal/wire"
)

// Fast-path message types (on the slot's "fp" subsession).
const (
	msgFast uint8 = 1
	msgSlow uint8 = 2
)

// allParties is the full contributor set 0..n−1.
func allParties(n int) []int {
	set := make([]int, n)
	for j := range set {
		set[j] = j
	}
	return set
}

// fastDigest fingerprints the slot output the fast path would commit: the
// SHA-256 of the canonical encoding of the full contributor set's entries,
// Digest(commitEntries(slot, allParties(n), got)). Two nonfaulty parties
// with all n deliveries always compute the same digest (A-Cast
// consistency), so honest FAST messages can only agree. It streams
// Encode's bytes into the hash instead of building them: the encoding is a
// second copy of every batch in the slot.
func fastDigest(slot int, n int, got map[int][]byte) [sha256.Size]byte {
	entries := 0
	for j := 0; j < n; j++ {
		if len(got[j]) > 0 {
			entries++
		}
	}
	h := sha256.New()
	var hdr [3 * binary.MaxVarintLen64]byte
	h.Write(binary.AppendUvarint(hdr[:0], uint64(entries)))
	for j := 0; j < n; j++ {
		if len(got[j]) == 0 {
			continue
		}
		b := binary.AppendUvarint(hdr[:0], uint64(slot))
		b = binary.AppendUvarint(b, uint64(j))
		b = binary.AppendUvarint(b, uint64(len(got[j])))
		h.Write(b)
		h.Write(got[j])
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

type fpMsg struct {
	from   int
	typ    uint8
	digest []byte
}

func runSlotFast(ctx, helperCtx context.Context, env *runtime.Env, session string, slot int, st *slotState, cfg core.Config) ([]Entry, error) {
	n, t := env.N, env.T
	fpSess := runtime.SubSession(session, "fp")
	cfg.Trace.Begin(env.ID, session, "confirm")
	var confirmOnce sync.Once
	endConfirm := func() {
		confirmOnce.Do(func() { cfg.Trace.End(env.ID, session, "confirm") })
	}
	defer endConfirm()

	// Pump FAST/SLOW traffic. Runs under helperCtx so the post-commit
	// responder can keep reading after the slot returns; closes fpc on
	// receive failure (runtime shutdown) so the responder exits too. Honest
	// traffic is ≤ 2 messages per party, so the buffer never fills for
	// honest senders. Once resolved closes — the slot fell back, errored
	// out, or its responder saw the SLOW it was waiting for — nobody reads
	// fpc again, so the pump drops traffic instead of blocking: a Byzantine
	// peer flooding FAST/SLOW can then neither wedge this goroutine on a
	// full buffer nor grow the session mailbox without bound.
	fpc := make(chan fpMsg, 4*n)
	resolved := make(chan struct{})
	var resolveOnce sync.Once
	resolve := func() { resolveOnce.Do(func() { close(resolved) }) }
	handedOff := false
	defer func() {
		if !handedOff {
			resolve()
		}
	}()
	go func() {
		defer close(fpc)
		for {
			m, err := env.Recv(helperCtx, fpSess)
			if err != nil {
				return
			}
			pm := fpMsg{from: m.From, typ: m.Type}
			switch m.Type {
			case msgFast:
				r := wire.NewReader(m.Payload)
				pm.digest = r.BytesField(sha256.Size)
				if r.Err() != nil || len(pm.digest) != sha256.Size {
					continue
				}
			case msgSlow:
			default:
				continue
			}
			select {
			case fpc <- pm:
			case <-resolved:
				// Dropped: the slot resolved and this message can no
				// longer influence anything.
			case <-helperCtx.Done():
				return
			}
		}
	}()

	var (
		fasts     = make(map[int][]byte, n)
		myDigest  []byte
		refDigest []byte // first digest seen; any later mismatch → fallback
		slowSeen  bool
		timer     <-chan time.Time
		fallback  string // non-empty = fall back, value is the reason
	)

	committable := func() bool {
		if myDigest == nil || len(fasts) < n {
			return false
		}
		for _, d := range fasts {
			if !bytes.Equal(d, myDigest) {
				return false
			}
		}
		return true
	}

	for fallback == "" {
		if committable() {
			entries := commitEntries(slot, allParties(n), st.got)
			st.m.fastHits.Inc()
			endConfirm()
			if cfg.Trace != nil {
				cfg.Trace.Recordf(env.ID, session, "acs",
					"slot %d fast-path commit: %d entries, 0 ba instances", slot, len(entries))
			}
			handedOff = true // the responder owns fpc consumption now
			go fastResponder(helperCtx, env, session, fpSess, slowSeen, fpc, resolve, st.pred, cfg)
			return entries, nil
		}
		select {
		case d := <-st.delivc:
			if d.err != nil {
				st.errs[d.j] = d.err
				fallback = "broadcast failure"
				continue
			}
			st.got[d.j] = d.val
			st.pred.Set(d.j)
			st.noteDelivered()
			if len(st.got) == n {
				dg := fastDigest(slot, n, st.got)
				myDigest = dg[:]
				fasts[env.ID] = myDigest
				var w wire.Writer
				w.BytesField(myDigest)
				env.SendAll(fpSess, msgFast, w.Bytes())
				if refDigest == nil {
					refDigest = myDigest
				} else if !bytes.Equal(refDigest, myDigest) {
					fallback = "digest mismatch"
				}
			}
			if timer == nil && len(st.got) >= n-t {
				timer = time.After(cfg.FastPathWait)
			}
		case pm, ok := <-fpc:
			if !ok {
				// Runtime shutting down; the fallback path reports the
				// definitive error.
				fpc = nil
				fallback = "runtime closing"
				continue
			}
			switch pm.typ {
			case msgFast:
				if pm.from != env.ID {
					if _, dup := fasts[pm.from]; !dup {
						fasts[pm.from] = pm.digest
					}
				}
				if refDigest == nil {
					refDigest = pm.digest
				} else if !bytes.Equal(refDigest, pm.digest) {
					fallback = "digest mismatch"
				}
			case msgSlow:
				slowSeen = true
				fallback = fmt.Sprintf("SLOW from party %d", pm.from)
			}
		case <-timer:
			fallback = "confirmation timeout"
		case <-ctx.Done():
			return nil, &SlotError{Session: session, Slot: slot, Err: ctx.Err()}
		}
	}

	// Fallback: announce, then run full agreement from the state collected
	// so far. The SLOW broadcast wakes fast-committed peers' responders so
	// the CommonSubset below always finds enough participants. Nothing
	// reads fpc from here on, so flip the pump to drop mode first.
	resolve()
	st.m.fallbacks.Inc()
	endConfirm()
	if cfg.Trace != nil {
		cfg.Trace.Recordf(env.ID, session, "acs", "slot %d fast-path fallback: %s", slot, fallback)
	}
	env.SendAll(fpSess, msgSlow, nil)
	return runSlotAgree(ctx, helperCtx, env, session, slot, st, cfg)
}

// fastResponder keeps a fast-committed party responsive to stragglers: if
// any peer announces SLOW, it echoes the SLOW (so every fast committer
// joins, even when a Byzantine party sent SLOW selectively) and runs the
// fallback CommonSubset in the background with its all-true predicate. Its
// own output is discarded — the party already committed the full set, and
// the safety argument above guarantees the fallback agrees with it.
// resolve flips the slot's pump to drop mode; the responder calls it the
// moment it stops consuming fpc (a SLOW arrived, or the run is ending) so
// later floods can't wedge the pump.
func fastResponder(helperCtx context.Context, env *runtime.Env, session, fpSess string, slowSeen bool, fpc <-chan fpMsg, resolve func(), pred *commonsubset.Predicate, cfg core.Config) {
	defer resolve()
	for !slowSeen {
		select {
		case pm, ok := <-fpc:
			if !ok {
				return
			}
			if pm.typ == msgSlow {
				slowSeen = true
			}
		case <-helperCtx.Done():
			return
		}
	}
	resolve()
	env.SendAll(fpSess, msgSlow, nil)
	csSess := runtime.SubSession(session, "cs")
	_, _ = commonsubset.Run(helperCtx, env, csSess, pred, env.N-env.T,
		cfg.CoinsFor(helperCtx, env, csSess), cfg.CSOptions())
}
