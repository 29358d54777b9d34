package acs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"asyncft/internal/ba"
	"asyncft/internal/commonsubset"
	"asyncft/internal/core"
	"asyncft/internal/obs"
	"asyncft/internal/runtime"
	"asyncft/internal/testkit"
	"asyncft/internal/wire"
)

// fastCfg returns the local-coin test configuration with the unanimous-slot
// fast path armed. wait tunes the fallback timer: generous when the test
// expects fast commits, short when it expects forced fallbacks.
// partyRegistries returns one metrics registry per party: the agreement
// series (acs_fastpath_*, ba_*) the tests below assert on are per party.
func partyRegistries(n int) []*obs.Registry {
	regs := make([]*obs.Registry, n)
	for i := range regs {
		regs[i] = obs.NewRegistry()
	}
	return regs
}

func fastCfg(wait time.Duration) core.Config {
	cfg := localCfg
	cfg.FastPath = true
	cfg.FastPathWait = wait
	return cfg
}

// TestFastPathUnanimousSlots is the benign case at n=4 and n=7: every
// A-Cast delivers, every slot must fast-commit the FULL contributor set
// (n entries per slot — strictly more than the n−t the classic path
// guarantees) with zero BA instances, and the ledgers must be
// bit-identical across parties.
func TestFastPathUnanimousSlots(t *testing.T) {
	const slots = 3
	for _, n := range []int{4, 7} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			tf := (n - 1) / 3
			c := testkit.New(n, tf, testkit.WithSeed(int64(n)), testkit.WithTimeout(90*time.Second))
			defer c.Close()
			regs := partyRegistries(n)
			res := c.Run(c.Honest(), func(ctx context.Context, env *runtime.Env) (interface{}, error) {
				cfg := fastCfg(5 * time.Second)
				cfg.Metrics = regs[env.ID]
				return Run(ctx, c.Ctx, env, "abc/fastu", slots, 1, func(slot int) []byte {
					return payloadFor(env.ID, slot)
				}, cfg)
			})
			ledger := agreeLedgers(t, res)
			if len(ledger) != slots*n {
				t.Fatalf("ledger has %d entries, want the full %d (all n contributors, every slot)", len(ledger), slots*n)
			}
			for id, reg := range regs {
				if got := reg.Total("acs_fastpath_hits_total"); got != slots {
					t.Errorf("party %d: %v fast commits, want %d", id, got, slots)
				}
				if got := reg.Total("ba_decisions_total"); got != 0 {
					t.Errorf("party %d: %v BA instances ran on the fast path", id, got)
				}
			}
		})
	}
}

// TestFastPathScenarios drives the fast-path ledger through the adversarial
// scenario schedules at n=4 and n=7: crash-at-start, partition-then-heal,
// slow-replica, and hold-one-A-Cast (which starves unanimity so the fast
// path MUST fall back). The property under every schedule: all collected
// ledgers bit-identical, all committed bytes exactly the proposer's bytes.
func TestFastPathScenarios(t *testing.T) {
	const slots = 3
	type tc struct {
		name         string
		seed         int64
		victimRuns   bool // highest party runs protocol code (it may be faulted mid-run)
		victimWaited bool // its ledger is collected and compared too
		mustFallback bool // at least one slot must take the fallback at every waited party
		steps        func(c *testkit.Cluster, n int, victim int, sess string) []testkit.Step
	}
	cases := []tc{
		{
			name: "crash-at-start", seed: 11,
			steps: func(c *testkit.Cluster, n, victim int, sess string) []testkit.Step {
				return []testkit.Step{{Name: "crash", At: 0, Do: func(c *testkit.Cluster) { c.Crash(victim) }}}
			},
		},
		{
			name: "partition-then-heal", seed: 47, victimRuns: true, victimWaited: true,
			steps: func(c *testkit.Cluster, n, victim int, sess string) []testkit.Step {
				var handle int
				rest := make([]int, 0, n-1)
				for j := 0; j < n-1; j++ {
					rest = append(rest, j)
				}
				return []testkit.Step{
					{Name: "partition", At: 1, Do: func(c *testkit.Cluster) { handle = c.Partition([]int{victim}, rest) }},
					{Name: "heal", At: 2, Do: func(c *testkit.Cluster) { c.Heal(handle) }},
				}
			},
		},
		{
			name: "slow-replica", seed: 53, victimRuns: true, victimWaited: true,
			steps: func(c *testkit.Cluster, n, victim int, sess string) []testkit.Step {
				var handle int
				return []testkit.Step{
					{Name: "lag", At: 0, Do: func(c *testkit.Cluster) { handle = c.Slow(victim) }},
					{Name: "catch-up", At: 2, Do: func(c *testkit.Cluster) { c.Heal(handle) }},
				}
			},
		},
		{
			// The victim's slot-0 A-Cast is held back from everyone: no party
			// can assemble all n deliveries, so slot 0 must fall back to full
			// agreement at every party. The victim itself keeps running.
			name: "hold-one-acast", seed: 61, victimRuns: true, victimWaited: true, mustFallback: true,
			steps: func(c *testkit.Cluster, n, victim int, sess string) []testkit.Step {
				prefix := runtime.SubSession(runtime.SubSession(sess, "slot", 0), "rbc", victim)
				var handle int
				return []testkit.Step{
					{Name: "hold", At: 0, Do: func(c *testkit.Cluster) { handle = c.HoldSession(victim, -1, prefix) }},
					{Name: "release", At: 2, Do: func(c *testkit.Cluster) { c.Heal(handle) }},
				}
			},
		},
	}
	for _, n := range []int{4, 7} {
		n := n
		for _, tc := range cases {
			tc := tc
			t.Run(fmt.Sprintf("n=%d/%s", n, tc.name), func(t *testing.T) {
				t.Parallel()
				tf := (n - 1) / 3
				victim := n - 1
				sess := runtime.SubSession("abc/fscen", n, tc.name)
				c := testkit.New(n, tf, testkit.WithSeed(tc.seed+int64(n)), testkit.WithTimeout(120*time.Second))
				defer c.Close()
				c.Start(testkit.Scenario{Name: tc.name, Steps: tc.steps(c, n, victim, sess)})
				regs := partyRegistries(n)
				// Slots run sequentially (not via Run) so Progress reflects the
				// slot a party actually reached — Run builds every slot's input
				// upfront, which would fire all scenario steps at start.
				body := func(ctx context.Context, env *runtime.Env) (interface{}, error) {
					cfg := fastCfg(100 * time.Millisecond)
					cfg.Metrics = regs[env.ID]
					var out [][]Entry
					for k := 0; k < slots; k++ {
						c.Progress(k)
						entries, err := RunSlot(ctx, c.Ctx, env, runtime.SubSession(sess, "slot", k), k, payloadFor(env.ID, k), cfg)
						if err != nil {
							return nil, err
						}
						out = append(out, entries)
					}
					return BuildLedger(out), nil
				}
				waited := make([]int, 0, n)
				for j := 0; j < n-1; j++ {
					waited = append(waited, j)
				}
				if tc.victimWaited {
					waited = append(waited, victim)
				} else if tc.victimRuns {
					c.Go(victim, body)
				} else {
					c.Progress(0)
				}
				ledger := agreeLedgers(t, c.Run(waited, body))
				if len(ledger) < slots*(n-tf-1) {
					t.Fatalf("ledger has %d entries, want ≥ %d", len(ledger), slots*(n-tf-1))
				}
				for _, e := range ledger {
					if want := string(payloadFor(e.Party, e.Slot)); string(e.Payload) != want {
						t.Fatalf("slot %d party %d: payload %q, want %q", e.Slot, e.Party, e.Payload, want)
					}
				}
				if tc.mustFallback {
					for _, id := range waited {
						if regs[id].Total("acs_fastpath_fallbacks_total") == 0 {
							t.Errorf("party %d never fell back under %s", id, tc.name)
						}
					}
				}
			})
		}
	}
}

// TestFastPathFullStack exercises every tentpole optimization at once in a
// forced-fallback schedule: BCA-based BA instances, one shared weak-coin
// flip per (slot, round), and the fast path falling back on a held A-Cast.
func TestFastPathFullStack(t *testing.T) {
	if testing.Short() {
		t.Skip("weak-coin fallback is heavyweight")
	}
	const n, tf = 4, 1
	sess := "abc/fstack"
	c := testkit.New(n, tf, testkit.WithSeed(71), testkit.WithTimeout(120*time.Second))
	defer c.Close()
	prefix := runtime.SubSession(runtime.SubSession(sess, "slot", 0), "rbc", 3)
	c.Start(testkit.Scenario{Name: "fullstack", Steps: []testkit.Step{
		{Name: "hold", At: 0, Do: func(c *testkit.Cluster) { c.HoldSession(3, -1, prefix) }},
	}})
	regs := partyRegistries(n)
	res := c.Run(c.Honest(), func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		cfg := core.Config{K: 1, Eps: 0.1, InnerCoin: core.InnerCoinWeak, SharedCoin: true}
		cfg.BA.UseBCA = true
		cfg.FastPath = true
		cfg.FastPathWait = 100 * time.Millisecond
		cfg.Metrics = regs[env.ID]
		c.Progress(0)
		return RunSlot(ctx, c.Ctx, env, runtime.SubSession(sess, "slot", 0), 0, payloadFor(env.ID, 0), cfg)
	})
	entries := agreeLedgers(t, res)
	if len(entries) < n-tf-1 {
		t.Fatalf("slot committed %d entries, want ≥ %d", len(entries), n-tf-1)
	}
	for id, reg := range regs {
		if got := reg.Total("acs_fastpath_fallbacks_total"); got != 1 {
			t.Errorf("party %d: %v fallbacks, want exactly one", id, got)
		}
	}
}

// TestFastPathConfirmFlood floods slot confirmation sessions from a
// Byzantine party with far more FAST/SLOW traffic than the pump buffers —
// before the slots start, while they run, and after every honest party has
// resolved them. The junk digests and SLOWs force the honest parties
// through the fallback; the slots must still commit byte-identical ledgers,
// with the post-resolution flood absorbed by the pump's resolved-drop path
// (a blocking pump would wedge on the full 4n buffer and let the session
// mailbox grow without bound). Run under -race, which also checks the drop
// path races cleanly with the flood.
func TestFastPathConfirmFlood(t *testing.T) {
	const n, tf, slots = 4, 1, 2
	sess := "abc/flood"
	c := testkit.New(n, tf, testkit.WithSeed(83), testkit.WithTimeout(60*time.Second))
	defer c.Close()
	byz := n - 1
	junkDigest := func() []byte {
		var w wire.Writer
		w.BytesField(bytes.Repeat([]byte{0xA5}, sha256.Size))
		return w.Bytes()
	}()
	flood := func(burst int) {
		for k := 0; k < slots; k++ {
			fpSess := runtime.SubSession(runtime.SubSession(sess, "slot", k), "fp")
			for i := 0; i < burst; i++ {
				c.Envs[byz].SendAll(fpSess, msgFast, junkDigest)
				c.Envs[byz].SendAll(fpSess, msgSlow, nil)
			}
		}
	}
	flood(8 * n) // pre-fill every pump buffer before the slots start
	regs := partyRegistries(n)
	honest := []int{0, 1, 2}
	res := c.Run(honest, func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		cfg := fastCfg(5 * time.Second)
		cfg.Metrics = regs[env.ID]
		var out [][]Entry
		for k := 0; k < slots; k++ {
			entries, err := RunSlot(ctx, c.Ctx, env, runtime.SubSession(sess, "slot", k), k, payloadFor(env.ID, k), cfg)
			if err != nil {
				return nil, err
			}
			flood(2 * n) // keep the pressure on between and after slots
			out = append(out, entries)
		}
		return BuildLedger(out), nil
	})
	ledger := agreeLedgers(t, res)
	if len(ledger) != slots*(n-tf) {
		t.Fatalf("ledger has %d entries, want %d (the n−t honest contributors, every slot)", len(ledger), slots*(n-tf))
	}
	flood(8 * n) // post-resolution: only the drop path can absorb this
	for _, id := range honest {
		if got := regs[id].Total("acs_fastpath_fallbacks_total"); got != slots {
			t.Errorf("party %d: %v fallbacks, want %d (the flood's SLOWs must route every slot through full agreement)",
				id, got, slots)
		}
	}
}

// TestSlotErrorSurfacesMaxRounds is the round-cap failsafe regression test:
// when a BA instance inside a slot exhausts MaxRounds, the error must
// identify the slot and the instance, and errors.Is must still see
// ba.ErrMaxRounds through the chain.
//
// Deterministic cap construction: every predicate admits instances 0 and 1,
// parties 0 and 1 additionally admit instance 2, and k=2. BA_0 and BA_1
// decide 1 unanimously, after which parties 2 and 3 reach the low gear and
// input 0 to instance 2 — which parties 0 and 1 already joined with input 1.
// The 2-2 split never yields a report candidate (a value would need more
// than (n+t)/2 = 2.5 of the 3 sampled reports), so every round ends with all
// parties proposing ⊥ and adopting their coin; the per-side constant coin
// re-confirms each side's estimate, and every party drives instance 2 into
// the MaxRounds failsafe.
func TestSlotErrorSurfacesMaxRounds(t *testing.T) {
	const n, tf = 4, 1
	c := testkit.New(n, tf, testkit.WithSeed(11), testkit.WithTimeout(60*time.Second))
	defer c.Close()
	opts := commonsubset.Options{BA: ba.Options{MaxRounds: 4}}
	res := c.Run(c.Honest(), func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		pred := commonsubset.NewPredicate()
		pred.Set(0)
		pred.Set(1)
		if env.ID <= 1 {
			pred.Set(2)
		}
		coins := func(j int) ba.Coin {
			return func(context.Context, int) (byte, error) {
				if env.ID <= 1 {
					return 1, nil
				}
				return 0, nil
			}
		}
		sess := "abc/cap/slot/0"
		_, err := commonsubset.Run(ctx, env, runtime.SubSession(sess, "cs"), pred, 2, coins, opts)
		if err == nil {
			return nil, errors.New("commonsubset terminated despite the flapping instance")
		}
		// Wrap exactly as RunSlot's agreement path does, so the assertions
		// below exercise the full production error chain.
		return nil, &SlotError{Session: sess, Slot: 0, Err: err}
	})
	for id, r := range res {
		if r.Err == nil {
			t.Fatalf("party %d: expected a round-cap error, got success", id)
		}
		var se *SlotError
		if !errors.As(r.Err, &se) {
			t.Fatalf("party %d: error lost SlotError context: %v", id, r.Err)
		}
		if se.Slot != 0 {
			t.Fatalf("party %d: wrong slot attributed: %v", id, se)
		}
		var be *commonsubset.BAError
		if !errors.As(r.Err, &be) {
			t.Fatalf("party %d: error lost BAError context: %v", id, r.Err)
		}
		if be.Instance != 2 {
			t.Fatalf("party %d: cap attributed to instance %d, want 2 (%v)", id, be.Instance, r.Err)
		}
		if !errors.Is(r.Err, ba.ErrMaxRounds) {
			t.Fatalf("party %d: errors.Is lost ba.ErrMaxRounds: %v", id, r.Err)
		}
	}
}

// TestRunSlotWrapsCommonSubsetErrors checks the production path (RunSlot
// itself) attributes a cap failure to its slot: a 1-round cap with split
// predicates reliably trips at least one party in a hostile schedule.
func TestRunSlotWrapsCommonSubsetErrors(t *testing.T) {
	const n, tf = 4, 1
	c := testkit.New(n, tf, testkit.WithSeed(5), testkit.WithTimeout(60*time.Second))
	defer c.Close()
	cfg := localCfg
	cfg.BA.MaxRounds = 1
	res := c.Run(c.Honest(), func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		return RunSlot(ctx, c.Ctx, env, "abc/wrap", 7, payloadFor(env.ID, 0), cfg)
	})
	for id, r := range res {
		// A party whose peer capped first may die of context expiry instead
		// of reaching its own cap; only cap errors carry instance context.
		if r.Err == nil || !errors.Is(r.Err, ba.ErrMaxRounds) {
			continue
		}
		var se *SlotError
		if !errors.As(r.Err, &se) || se.Slot != 7 {
			t.Fatalf("party %d: slot context missing or wrong: %v", id, r.Err)
		}
		var be *commonsubset.BAError
		if !errors.As(r.Err, &be) {
			t.Fatalf("party %d: instance context missing: %v", id, r.Err)
		}
	}
}

// TestFastDigestMatchesEncode pins the streamed FAST fingerprint to the
// SHA-256 of the canonical encoding it no longer builds, on random slots —
// empty and missing batches, large slot numbers, n above one varint byte of
// parties — so FAST stays wire-compatible with every party that hashes
// Encode's bytes.
func TestFastDigestMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(200)
		slot := rng.Intn(1 << uint(1+rng.Intn(40)))
		got := make(map[int][]byte)
		for j := 0; j < n; j++ {
			switch rng.Intn(4) {
			case 0: // no delivery recorded
			case 1:
				got[j] = []byte{}
			default:
				got[j] = make([]byte, 1+rng.Intn(300))
				rng.Read(got[j])
			}
		}
		want := sha256.Sum256(Encode(commitEntries(slot, allParties(n), got)))
		if fastDigest(slot, n, got) != want {
			t.Fatalf("trial %d (n=%d, slot=%d): streamed digest differs from sha256(Encode(...))", trial, n, slot)
		}
	}
}
