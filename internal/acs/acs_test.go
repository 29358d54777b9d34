package acs

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"asyncft/internal/adversary"
	"asyncft/internal/core"
	"asyncft/internal/network"
	"asyncft/internal/rbc"
	"asyncft/internal/runtime"
	"asyncft/internal/testkit"
)

var localCfg = core.Config{K: 1, Eps: 0.1, InnerCoin: core.InnerCoinLocal}

// agreeLedgers asserts every result succeeded with a byte-identical ledger
// and returns it.
func agreeLedgers(t *testing.T, res map[int]testkit.Result) []Entry {
	t.Helper()
	ledgers := make(map[int][]Entry, len(res))
	for id, r := range res {
		if r.Err != nil {
			t.Fatalf("party %d: %v", id, r.Err)
		}
		ledgers[id] = r.Value.([]Entry)
	}
	ref, err := AgreeLedgers(ledgers)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func payloadFor(id, slot int) []byte { return []byte(fmt.Sprintf("tx/p%d/s%d", id, slot)) }

func TestSlotCommitsQuorumPayloads(t *testing.T) {
	const n, tf = 4, 1
	c := testkit.New(n, tf)
	defer c.Close()
	res := c.Run(c.Honest(), func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		return RunSlot(ctx, c.Ctx, env, "abc/one", 0, payloadFor(env.ID, 0), localCfg)
	})
	entries := agreeLedgers(t, res)
	if len(entries) < n-tf {
		t.Fatalf("slot committed %d entries, want ≥ %d", len(entries), n-tf)
	}
	for i, e := range entries {
		if i > 0 && entries[i-1].Party >= e.Party {
			t.Fatalf("entries not in increasing party order: %v", entries)
		}
		if want := payloadFor(e.Party, 0); !bytes.Equal(e.Payload, want) {
			t.Fatalf("party %d committed as %q, want %q", e.Party, e.Payload, want)
		}
	}
}

func TestSlotElidesEmptyContribution(t *testing.T) {
	const n, tf = 4, 1
	c := testkit.New(n, tf, testkit.WithSeed(7))
	defer c.Close()
	res := c.Run(c.Honest(), func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		var in []byte
		if env.ID != 2 { // party 2 participates without contributing
			in = payloadFor(env.ID, 0)
		}
		return RunSlot(ctx, c.Ctx, env, "abc/empty", 0, in, localCfg)
	})
	for _, e := range agreeLedgers(t, res) {
		if e.Party == 2 {
			t.Fatalf("empty batch committed: %v", e)
		}
	}
}

func TestSlotRejectsOversizedPayload(t *testing.T) {
	c := testkit.New(4, 1)
	defer c.Close()
	_, err := RunSlot(c.Ctx, c.Ctx, c.Envs[0], "abc/big", 0, make([]byte, MaxPayloadSize+1), localCfg)
	if err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestRunRejectsBadSlotCount(t *testing.T) {
	c := testkit.New(4, 1)
	defer c.Close()
	if _, err := Run(c.Ctx, c.Ctx, c.Envs[0], "abc/bad", 0, 0, nil, localCfg); err == nil {
		t.Fatal("slots=0 accepted")
	}
}

func TestPipelinedLedgerIdenticalAndDeduped(t *testing.T) {
	const n, tf, slots = 4, 1, 6
	c := testkit.New(n, tf, testkit.WithSeed(3), testkit.WithTimeout(60*time.Second))
	defer c.Close()
	// Party 0 re-proposes the same batch in slots 1 and 4: it must land
	// exactly once. Everyone else proposes distinct batches per slot.
	input := func(id int) func(int) []byte {
		return func(slot int) []byte {
			if id == 0 && (slot == 1 || slot == 4) {
				return []byte("tx/repeat")
			}
			return payloadFor(id, slot)
		}
	}
	res := c.Run(c.Honest(), func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		return Run(ctx, c.Ctx, env, "abc/pipe", slots, 2, input(env.ID), localCfg)
	})
	ledger := agreeLedgers(t, res)
	count := 0
	seen := make(map[string]int)
	for _, e := range ledger {
		seen[string(e.Payload)]++
		if string(e.Payload) == "tx/repeat" {
			count++
		}
	}
	for p, k := range seen {
		if k != 1 {
			t.Fatalf("payload %q committed %d times", p, k)
		}
	}
	// Each slot commits ≥ n−t batches; the repeat dedups to one entry, so
	// the ledger holds at least slots·(n−t) − 1 distinct batches.
	if len(ledger) < slots*(n-tf)-1 {
		t.Fatalf("ledger has %d entries, want ≥ %d", len(ledger), slots*(n-tf)-1)
	}
	if count != 1 {
		t.Fatalf("repeated batch committed %d times, want exactly 1", count)
	}
}

// The crashed-party ledger tests live in scenario_test.go, ported onto
// the testkit scenario harness (crash-at-start and crash-at-slot cases of
// TestLedgerScenarios).

func TestLedgerUnderNoiseAdversary(t *testing.T) {
	const n, tf, slots = 4, 1, 2
	c := testkit.New(n, tf, testkit.WithSeed(13), testkit.WithTimeout(60*time.Second))
	defer c.Close()
	// Party 3 is Byzantine: it floods the exact sub-sessions of the run
	// with garbage instead of participating honestly.
	sessions := []string{"abc/noise/slot/0", "abc/noise/slot/1"}
	var noisy []string
	for _, s := range sessions {
		for j := 0; j < n; j++ {
			noisy = append(noisy, runtime.SubSession(s, "rbc", j), runtime.SubSession(s, "cs", "ba", j))
		}
	}
	go func() {
		_ = adversary.Noise{Sessions: noisy, Messages: 512}.Run(c.Ctx, c.Envs[3])
	}()
	res := c.Run(c.Honest(3), func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		return Run(ctx, c.Ctx, env, "abc/noise", slots, 0, func(slot int) []byte {
			return payloadFor(env.ID, slot)
		}, localCfg)
	})
	if ledger := agreeLedgers(t, res); len(ledger) < slots*(n-tf-1) {
		t.Fatalf("ledger has %d entries, want ≥ %d", len(ledger), slots*(n-tf-1))
	}
}

// TestLedgerPropertyRandomSchedules is the replication property test: under
// seeded-random reordering and latency-bound delay schedules alike, every
// party's ledger must be bit-identical, slot after slot.
func TestLedgerPropertyRandomSchedules(t *testing.T) {
	const n, tf, slots = 4, 1, 4
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		for _, sched := range []string{"reorder", "delay"} {
			sched := sched
			t.Run(fmt.Sprintf("%s/seed=%d", sched, seed), func(t *testing.T) {
				t.Parallel()
				opts := []testkit.Option{testkit.WithSeed(seed), testkit.WithTimeout(90 * time.Second)}
				if sched == "delay" {
					opts = append(opts, testkit.WithPolicy(network.NewDelay(seed, 100*time.Microsecond, 500*time.Microsecond)))
				} else {
					opts = append(opts, testkit.WithPolicy(network.NewRandomReorder(seed, 0.5, 8)))
				}
				c := testkit.New(n, tf, opts...)
				defer c.Close()
				res := c.Run(c.Honest(), func(ctx context.Context, env *runtime.Env) (interface{}, error) {
					return Run(ctx, c.Ctx, env, "abc/prop", slots, 0, func(slot int) []byte {
						return payloadFor(env.ID, slot)
					}, localCfg)
				})
				ledger := agreeLedgers(t, res)
				if len(ledger) < slots*(n-tf) {
					t.Fatalf("ledger has %d entries, want ≥ %d", len(ledger), slots*(n-tf))
				}
			})
		}
	}
}

// TestLedgerWeakCoin runs one slot on the information-theoretically
// faithful configuration (SVSS-backed weak coins inside the BAs).
func TestLedgerWeakCoin(t *testing.T) {
	if testing.Short() {
		t.Skip("weak-coin slot is heavyweight")
	}
	const n, tf = 4, 1
	c := testkit.New(n, tf, testkit.WithSeed(17), testkit.WithTimeout(120*time.Second))
	defer c.Close()
	cfg := core.Config{K: 1, Eps: 0.1, InnerCoin: core.InnerCoinWeak}
	res := c.Run(c.Honest(), func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		return RunSlot(ctx, c.Ctx, env, "abc/weak", 0, payloadFor(env.ID, 0), cfg)
	})
	if entries := agreeLedgers(t, res); len(entries) < n-tf {
		t.Fatalf("slot committed %d entries, want ≥ %d", len(entries), n-tf)
	}
}

func TestBuildLedgerDedup(t *testing.T) {
	slots := [][]Entry{
		{{Slot: 0, Party: 1, Payload: []byte("a")}, {Slot: 0, Party: 2, Payload: []byte("b")}},
		{{Slot: 1, Party: 0, Payload: []byte("b")}, {Slot: 1, Party: 3, Payload: []byte("c")}},
	}
	got := BuildLedger(slots)
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("ledger %v, want payloads %v", got, want)
	}
	for i, e := range got {
		if string(e.Payload) != want[i] {
			t.Fatalf("entry %d payload %q, want %q", i, e.Payload, want[i])
		}
	}
	if got[1].Slot != 0 || got[1].Party != 2 {
		t.Fatalf("dedup kept the wrong occurrence: %+v", got[1])
	}
}

func TestAgreeLedgersDetectsFork(t *testing.T) {
	a := []Entry{{Slot: 0, Party: 1, Payload: []byte("x")}}
	b := []Entry{{Slot: 0, Party: 2, Payload: []byte("x")}}
	if _, err := AgreeLedgers(map[int][]Entry{0: a, 1: a, 2: b}); err == nil {
		t.Fatal("forked ledgers accepted")
	}
	got, err := AgreeLedgers(map[int][]Entry{0: a, 1: a})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Party != 1 {
		t.Fatalf("common ledger wrong: %v", got)
	}
}

func TestEncodeDigestDiscriminates(t *testing.T) {
	a := []Entry{{Slot: 0, Party: 1, Payload: []byte("x")}}
	b := []Entry{{Slot: 0, Party: 2, Payload: []byte("x")}}
	if bytes.Equal(Encode(a), Encode(b)) {
		t.Fatal("distinct ledgers encode identically")
	}
	if Digest(a) == Digest(b) {
		t.Fatal("distinct ledgers share a digest")
	}
	if Digest(nil) != Digest([]Entry{}) {
		t.Fatal("empty ledger digest not canonical")
	}
}

// bigPayloadFor builds a deterministic per-(party, slot) batch large enough
// to cross the coded-dispersal threshold.
func bigPayloadFor(id, slot, size int) []byte {
	p := []byte(fmt.Sprintf("big/p%d/s%d/", id, slot))
	for len(p) < size {
		p = append(p, byte('a'+(len(p)*7+id+slot)%26))
	}
	return p[:size]
}

// checkLedgerContent asserts every committed entry is bit-identical to the
// bytes its proposer deterministically built — the cross-flavor identity
// guarantee: whichever dispersal path carried a batch, the committed bytes
// are the proposer's bytes.
func checkLedgerContent(t *testing.T, ledger []Entry, size int) {
	t.Helper()
	for _, e := range ledger {
		if want := bigPayloadFor(e.Party, e.Slot, size); !bytes.Equal(e.Payload, want) {
			t.Fatalf("slot %d party %d: committed payload differs from proposed bytes", e.Slot, e.Party)
		}
	}
}

// TestCodedLedgerMatchesClassic runs the pipelined ledger with large
// batches through both dispersal flavors under random and delay schedules:
// each run must replicate byte-identically across parties, and every
// committed batch must be bit-identical to its proposer's input.
func TestCodedLedgerMatchesClassic(t *testing.T) {
	const n, tf, slots, size = 4, 1, 3, 4096
	for _, sched := range []string{"reorder", "delay"} {
		sched := sched
		for _, coded := range []bool{true, false} {
			coded := coded
			t.Run(fmt.Sprintf("%s/coded=%v", sched, coded), func(t *testing.T) {
				t.Parallel()
				opts := []testkit.Option{testkit.WithSeed(23), testkit.WithTimeout(90 * time.Second)}
				if sched == "delay" {
					opts = append(opts, testkit.WithPolicy(network.NewDelay(23, 100*time.Microsecond, 500*time.Microsecond)))
				} else {
					opts = append(opts, testkit.WithPolicy(network.NewRandomReorder(23, 0.5, 8)))
				}
				c := testkit.New(n, tf, opts...)
				defer c.Close()
				cfg := localCfg
				if !coded {
					cfg.RBC.CodedThreshold = -1
				}
				sess := runtime.SubSession("abc/cvc", sched, coded)
				res := c.Run(c.Honest(), func(ctx context.Context, env *runtime.Env) (interface{}, error) {
					return Run(ctx, c.Ctx, env, sess, slots, 0, func(slot int) []byte {
						return bigPayloadFor(env.ID, slot, size)
					}, cfg)
				})
				ledger := agreeLedgers(t, res)
				if len(ledger) < slots*(n-tf) {
					t.Fatalf("ledger has %d entries, want ≥ %d", len(ledger), slots*(n-tf))
				}
				checkLedgerContent(t, ledger, size)
			})
		}
	}
}

// TestCodedLedgerVouchingAdversary mounts the lying-holder attack inside a
// full ledger run: on every slot broadcast the Byzantine party, instead of
// participating, echoes and READYs the digest without keeping the value
// and answers pulls with other bytes. Every honest batch must commit
// intact.
func TestCodedLedgerVouchingAdversary(t *testing.T) {
	const n, tf, slots, size = 4, 1, 2, 4096
	c := testkit.New(n, tf, testkit.WithSeed(31), testkit.WithTimeout(90*time.Second))
	defer c.Close()
	sess := "abc/codedvouch"
	for k := 0; k < slots; k++ {
		for j := 0; j < n; j++ {
			rbcSess := runtime.SubSession(runtime.SubSession(sess, "slot", k), "rbc", j)
			go func() { _ = rbc.VouchWithoutValue(c.Ctx, c.Envs[3], rbcSess) }()
		}
	}
	res := c.Run(c.Honest(3), func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		return Run(ctx, c.Ctx, env, sess, slots, 0, func(slot int) []byte {
			return bigPayloadFor(env.ID, slot, size)
		}, localCfg)
	})
	ledger := agreeLedgers(t, res)
	if len(ledger) < slots*(n-tf-1) {
		t.Fatalf("ledger has %d entries, want ≥ %d", len(ledger), slots*(n-tf-1))
	}
	checkLedgerContent(t, ledger, size)
}
