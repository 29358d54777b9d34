package acs

import (
	"bytes"
	"context"
	"testing"
	"time"

	"asyncft/internal/obs"
	"asyncft/internal/runtime"
	"asyncft/internal/testkit"
)

func slotEntries(k int, parties ...int) []Entry {
	var out []Entry
	for _, p := range parties {
		out = append(out, Entry{Slot: k, Party: p, Payload: payloadFor(p, k)})
	}
	return out
}

func TestStoreContiguousCursorAndChain(t *testing.T) {
	s := NewStore()
	if s.Next() != 0 {
		t.Fatalf("fresh store cursor %d", s.Next())
	}
	if d, ok := s.ChainDigest(0); !ok || d != ChainStart() {
		t.Fatal("fresh store chain anchor wrong")
	}
	// Out-of-order commit: slot 1 first buffers, slot 0 then advances past both.
	s.SetSlot(1, slotEntries(1, 0, 2))
	if s.Next() != 0 {
		t.Fatalf("cursor advanced past a gap: %d", s.Next())
	}
	adv := s.Advanced()
	s.SetSlot(0, slotEntries(0, 1))
	select {
	case <-adv:
	default:
		t.Fatal("Advanced channel not closed on cursor move")
	}
	if s.Next() != 2 {
		t.Fatalf("cursor %d after contiguous commit, want 2", s.Next())
	}
	// Chain must replay exactly.
	want := ChainNext(ChainNext(ChainStart(), slotEntries(0, 1)), slotEntries(1, 0, 2))
	if got, ok := s.ChainDigest(2); !ok || got != want {
		t.Fatal("chain digest does not replay")
	}
	if _, ok := s.ChainDigest(3); ok {
		t.Fatal("chain digest beyond cursor available")
	}
	// Idempotence: re-recording a slot must not fork the chain.
	s.SetSlot(0, slotEntries(0, 3))
	if got, _ := s.ChainDigest(2); got != want {
		t.Fatal("duplicate SetSlot mutated the chain")
	}
}

func TestStoreRangeRoundTrip(t *testing.T) {
	s := NewStore()
	for k := 0; k < 4; k++ {
		s.SetSlot(k, slotEntries(k, 0, 1, 2))
	}
	if _, ok := s.EncodeRange(2, 5); ok {
		t.Fatal("encoded a range beyond the contiguous prefix")
	}
	data, ok := s.EncodeRange(1, 3)
	if !ok {
		t.Fatal("in-prefix range refused")
	}
	got, err := DecodeRange(data, 1, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, entries := range got {
		want, _ := s.Slot(1 + i)
		if len(entries) != len(want) {
			t.Fatalf("slot %d: %d entries, want %d", 1+i, len(entries), len(want))
		}
		for j := range entries {
			if entries[j].Slot != want[j].Slot || entries[j].Party != want[j].Party ||
				!bytes.Equal(entries[j].Payload, want[j].Payload) {
				t.Fatalf("slot %d entry %d mismatch", 1+i, j)
			}
		}
	}
	// Hostile decodes: wrong range header, truncation, slot-index lies.
	if _, err := DecodeRange(data, 0, 2, 4); err == nil {
		t.Fatal("range header mismatch accepted")
	}
	if _, err := DecodeRange(data[:len(data)-3], 1, 3, 4); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	evil, _ := s.EncodeRange(2, 3)
	if _, err := DecodeRange(evil, 1, 2, 4); err == nil {
		t.Fatal("slot-shifted snapshot accepted")
	}
}

// TestRunFromRecordsStoreDuringRun: the pipelined run must publish each
// slot into the store as it commits, and the final store ledger must equal
// the classic Run output.
func TestRunFromRecordsStoreDuringRun(t *testing.T) {
	const n, tf, slots = 4, 1, 3
	c := testkit.New(n, tf, testkit.WithSeed(41))
	defer c.Close()
	stores := make([]*Store, n)
	for i := range stores {
		stores[i] = NewStore()
	}
	res := c.Run(c.Honest(), func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		err := RunFrom(ctx, c.Ctx, env, "abc/store", 0, slots, 0, func(slot int) []byte {
			return payloadFor(env.ID, slot)
		}, localCfg, stores[env.ID])
		if err != nil {
			return nil, err
		}
		return stores[env.ID].Ledger(), nil
	})
	ledger := agreeLedgers(t, res)
	if len(ledger) < slots*(n-tf) {
		t.Fatalf("ledger has %d entries, want ≥ %d", len(ledger), slots*(n-tf))
	}
	// Chains must agree across parties at every prefix.
	for k := 0; k <= slots; k++ {
		ref, ok := stores[0].ChainDigest(k)
		if !ok {
			t.Fatalf("party 0 chain missing at %d", k)
		}
		for id := 1; id < n; id++ {
			if d, ok := stores[id].ChainDigest(k); !ok || d != ref {
				t.Fatalf("chain digest disagreement at slot %d party %d", k, id)
			}
		}
	}
}

func TestRunFromRejectsBadRange(t *testing.T) {
	c := testkit.New(4, 1)
	defer c.Close()
	if err := RunFrom(c.Ctx, c.Ctx, c.Envs[0], "abc/badfrom", 2, 2, 0, nil, localCfg, NewStore()); err == nil {
		t.Fatal("from ≥ slots accepted")
	}
	if err := RunFrom(c.Ctx, c.Ctx, c.Envs[0], "abc/nilstore", 0, 1, 0, nil, localCfg, nil); err == nil {
		t.Fatal("nil store accepted")
	}
}

// TestRunFromYieldsToInstalledSlots: a party whose peers are gone cannot
// finish a slot by protocol. When the slots reach its store another way —
// state transfer, for a party behind a quorum that retired them — RunFrom
// cancels its own runs of them, skips the ones it had not started, still
// asks input for every slot, and returns without error; Retire then ends
// what the cancelled runs left under helperCtx.
func TestRunFromYieldsToInstalledSlots(t *testing.T) {
	const n, tf, slots, width = 4, 1, 6, 2
	c := testkit.New(n, tf, testkit.WithSeed(43))
	defer c.Close()
	reg := obs.NewRegistry()
	c.Nodes[0].Instrument(reg)
	store := NewStore()
	asked := make(chan int, slots)
	done := make(chan error, 1)
	go func() {
		done <- RunFrom(c.Ctx, c.Ctx, c.Envs[0], "abc/yield", 0, slots, width, func(slot int) []byte {
			asked <- slot
			return payloadFor(0, slot)
		}, localCfg, store)
	}()
	for want := 0; want < width; want++ { // the window is admitted and stuck: nobody else runs
		select {
		case <-asked:
		case <-c.Ctx.Done():
			t.Fatal("window never admitted")
		}
	}
	select {
	case err := <-done:
		t.Fatalf("RunFrom returned %v with no peers", err)
	case <-time.After(20 * time.Millisecond):
	}
	for k := 0; k < slots; k++ {
		store.SetSlot(k, slotEntries(k, 1, 2, 3))
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunFrom: %v", err)
		}
	case <-c.Ctx.Done():
		t.Fatal("RunFrom kept waiting for slots its store already holds")
	}
	if got := len(asked) + width; got != slots {
		t.Fatalf("input asked for %d slots, want all %d", got, slots)
	}
	// The cancelled runs' broadcasts still listen under helperCtx; retiring
	// the slots ends them and empties the session tree.
	if v, _ := reg.Snapshot("runtime_sessions_active"); v[""] == 0 {
		t.Fatal("no session left behind by the cancelled slots: nothing for Retire to prove")
	}
	Retire(c.Envs[0], "abc/yield", slots)
	if v, _ := reg.Snapshot("runtime_sessions_active"); v[""] != 0 {
		t.Fatalf("runtime_sessions_active = %v after retiring every slot", v[""])
	}
}
