package reconfig

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"asyncft/internal/acs"
	"asyncft/internal/core"
	"asyncft/internal/field"
	"asyncft/internal/runtime"
	"asyncft/internal/testkit"
)

// testCfg is the fast inner-coin configuration every ledger test in the
// repository uses.
func testCfg() core.Config {
	return core.Config{K: 1, Eps: 0.1, InnerCoin: core.InnerCoinLocal}
}

func payloadFor(id, slot int) []byte {
	return []byte(fmt.Sprintf("app/p%d/s%d", id, slot))
}

// runDynamic executes a dynamic-membership run across every honest party
// of the universe and returns the per-party results after asserting the
// universal agreement obligations: bit-identical ledgers, identical final
// member sets, and (when the pool is checked) pool continuity across all
// epochs.
func runDynamic(t *testing.T, c *testkit.Cluster, parties []int, opts Options) map[int]*Result {
	t.Helper()
	res := c.Run(parties, func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		o := opts // copy: per-party closure state
		o.Input = func(slot int) []byte { return payloadFor(env.ID, slot) }
		return Run(ctx, c.Ctx, env, o)
	})
	out := make(map[int]*Result, len(res))
	ledgers := make(map[int][]acs.Entry, len(res))
	for id, r := range res {
		if r.Err != nil {
			t.Fatalf("party %d: %v", id, r.Err)
		}
		rr := r.Value.(*Result)
		out[id] = rr
		ledgers[id] = rr.Ledger
	}
	if _, err := acs.AgreeLedgers(ledgers); err != nil {
		t.Fatal(err)
	}
	var refMembers []int
	var refFinal []field.Elem
	var refGenesis []field.Elem
	for id, rr := range out {
		if refMembers == nil {
			refMembers = rr.FinalMembers
		} else if !equalInts(refMembers, rr.FinalMembers) {
			t.Fatalf("party %d final members %v != %v", id, rr.FinalMembers, refMembers)
		}
		if rr.PoolGenesis != nil {
			if refGenesis == nil {
				refGenesis = rr.PoolGenesis
			} else if !equalElems(refGenesis, rr.PoolGenesis) {
				t.Fatalf("party %d genesis pool %v != %v", id, rr.PoolGenesis, refGenesis)
			}
		}
		if rr.PoolFinal != nil {
			if refFinal == nil {
				refFinal = rr.PoolFinal
			} else if !equalElems(refFinal, rr.PoolFinal) {
				t.Fatalf("party %d final pool %v != %v", id, rr.PoolFinal, refFinal)
			}
		}
	}
	if opts.CheckPool && opts.PoolSize > 0 {
		if refGenesis == nil || refFinal == nil {
			t.Fatalf("pool check requested but not reported (genesis %v, final %v)", refGenesis, refFinal)
		}
		if !equalElems(refGenesis, refFinal) {
			t.Fatalf("pool drift across epochs: genesis %v, final %v", refGenesis, refFinal)
		}
	}
	return out
}

func equalElems(a, b []field.Elem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// committedBy returns the slots at which a party's own application
// batches committed.
func committedBy(ledger []acs.Entry, id int) []int {
	prefix := []byte(fmt.Sprintf("app/p%d/", id))
	var slots []int
	for _, e := range ledger {
		_, app, _ := DecodePayload(e.Payload)
		if bytes.HasPrefix(app, prefix) {
			slots = append(slots, e.Slot)
		}
	}
	return slots
}

// --- codec ---

func TestPayloadCodecRoundTrip(t *testing.T) {
	cases := [][]Change{
		{{Add: true, Party: 4, Addr: "127.0.0.1:9999"}},
		{{Add: false, Party: 0}},
		{{Add: true, Party: 7}, {Add: false, Party: 1, Addr: ""}},
	}
	apps := [][]byte{nil, []byte("x"), bytes.Repeat([]byte("payload"), 100)}
	for _, chs := range cases {
		for _, app := range apps {
			enc := EncodePayload(chs, app)
			got, gotApp, ok := DecodePayload(enc)
			if !ok {
				t.Fatalf("round trip failed for %v", chs)
			}
			if len(got) != len(chs) {
				t.Fatalf("got %v, want %v", got, chs)
			}
			for i := range chs {
				if got[i] != chs[i] {
					t.Fatalf("change %d: got %+v, want %+v", i, got[i], chs[i])
				}
			}
			if !bytes.Equal(gotApp, app) && len(app) > 0 {
				t.Fatalf("app payload mangled: %q != %q", gotApp, app)
			}
		}
	}
}

func TestPlainPayloadPassesThrough(t *testing.T) {
	app := []byte("just an app payload")
	if enc := EncodePayload(nil, app); !bytes.Equal(enc, app) {
		t.Fatalf("ops-free encode reframed the payload: %q", enc)
	}
	chs, got, ok := DecodePayload(app)
	if ok || chs != nil || !bytes.Equal(got, app) {
		t.Fatalf("plain payload misclassified: %v %q %v", chs, got, ok)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	good := EncodePayload([]Change{{Add: true, Party: 4}}, []byte("app"))
	malformed := [][]byte{
		[]byte("\x00rcfg1"),                     // magic, no body
		append(append([]byte{}, good...), 0x00), // trailing garbage
		good[:len(good)-1],                      // truncated
		[]byte("\x00rcfg1\xff\xff\xff\xff\xff"), // absurd count
		[]byte("\x00rcfg1\x01\x02\x04\x00\x00"), // bad flags
	}
	for i, b := range malformed {
		chs, app, ok := DecodePayload(b)
		if ok || chs != nil {
			t.Fatalf("case %d: malformed bytes decoded as ops: %v", i, chs)
		}
		if !bytes.Equal(app, b) {
			t.Fatalf("case %d: malformed bytes not preserved as app data", i)
		}
	}
}

// --- schedule ---

func storeWith(t *testing.T, slots ...[]acs.Entry) *acs.Store {
	t.Helper()
	st := acs.NewStore()
	for k, entries := range slots {
		st.SetSlot(k, entries)
	}
	return st
}

func opsEntry(slot, party int, chs ...Change) acs.Entry {
	return acs.Entry{Slot: slot, Party: party, Payload: EncodePayload(chs, nil)}
}

// endorsed builds one committed entry per backer, all carrying the same
// operations — the shape the Source contract produces, and the minimum
// the endorsement rule accepts when len(backers) ≥ t+1.
func endorsed(slot int, backers []int, chs ...Change) []acs.Entry {
	entries := make([]acs.Entry, 0, len(backers))
	for _, p := range backers {
		entries = append(entries, opsEntry(slot, p, chs...))
	}
	return entries
}

func TestScheduleFoldsCommittedOpsAtLag(t *testing.T) {
	// Genesis m=4, t=1: ops need ≥ 2 distinct contributors to apply.
	st := storeWith(t,
		endorsed(0, []int{0, 1}, Change{Add: true, Party: 4}),
		[]acs.Entry{},
		endorsed(2, []int{1, 2}, Change{Add: false, Party: 0}),
		[]acs.Entry{},
		[]acs.Entry{},
	)
	sc := newSchedule([]int{0, 1, 2, 3}, 2, 8)
	if got := sc.membershipAt(st, 0); !equalInts(got, []int{0, 1, 2, 3}) {
		t.Fatalf("slot 0: %v", got)
	}
	if got := sc.membershipAt(st, 1); !equalInts(got, []int{0, 1, 2, 3}) {
		t.Fatalf("slot 1: %v", got)
	}
	// Add committed in slot 0 activates at slot 2 (lag 2).
	if got := sc.membershipAt(st, 2); !equalInts(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("slot 2: %v", got)
	}
	if got := sc.membershipAt(st, 3); !equalInts(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("slot 3: %v", got)
	}
	// Remove committed in slot 2 activates at slot 4.
	if got := sc.membershipAt(st, 4); !equalInts(got, []int{1, 2, 3, 4}) {
		t.Fatalf("slot 4: %v", got)
	}
}

func TestScheduleGuardsDeterministically(t *testing.T) {
	st := storeWith(t,
		endorsed(0, []int{0, 1},
			Change{Add: false, Party: 0}, // would shrink below MinMembers: ignored
			Change{Add: true, Party: 99}, // outside universe: ignored
			Change{Add: true, Party: 2},  // already a member: no-op
			Change{Add: false, Party: 7}, // not a member: no-op
		),
		[]acs.Entry{},
		[]acs.Entry{},
	)
	sc := newSchedule([]int{0, 1, 2, 3}, 1, 8)
	if got := sc.membershipAt(st, 2); !equalInts(got, []int{0, 1, 2, 3}) {
		t.Fatalf("guard rails violated: %v", got)
	}
}

// TestScheduleRejectsUnendorsedOps is the forgery regression for the
// endorsement rule: a membership operation carried by a single committed
// entry — what one Byzantine member can always manufacture — must never
// apply, in either direction, no matter how many slots re-commit it from
// the same lone contributor.
func TestScheduleRejectsUnendorsedOps(t *testing.T) {
	st := storeWith(t,
		[]acs.Entry{opsEntry(0, 1, Change{Add: true, Party: 6}, Change{Add: false, Party: 0})},
		[]acs.Entry{opsEntry(1, 1, Change{Add: true, Party: 6}, Change{Add: false, Party: 0})},
		[]acs.Entry{},
		[]acs.Entry{},
	)
	sc := newSchedule([]int{0, 1, 2, 3, 4}, 1, 8) // m=5, t=1: needs 2 backers
	processed := 0
	sc.onProcessed = func(Change, int) { processed++ }
	if got := sc.membershipAt(st, 3); !equalInts(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("unendorsed ops applied: %v", got)
	}
	if processed != 0 {
		t.Fatalf("unendorsed ops reported processed %d times", processed)
	}
}

// TestScheduleRemovalKeepsReshareQuorum: an endorsed batch of removals
// stops applying once it would leave fewer than 2·t+1 survivors of the
// slot's base set — the dealer quorum the boundary pool re-share needs.
func TestScheduleRemovalKeepsReshareQuorum(t *testing.T) {
	// m=7, t=2: ops need 3 backers; removals must keep ≥ 5 of the base 7.
	st := storeWith(t,
		endorsed(0, []int{3, 4, 5},
			Change{Add: false, Party: 0}, // 6 survivors: applied
			Change{Add: false, Party: 1}, // 5 survivors: applied
			Change{Add: false, Party: 2}, // 4 survivors: ignored
		),
		[]acs.Entry{},
	)
	sc := newSchedule([]int{0, 1, 2, 3, 4, 5, 6}, 1, 8)
	if got := sc.membershipAt(st, 1); !equalInts(got, []int{2, 3, 4, 5, 6}) {
		t.Fatalf("survivor guard broken: %v", got)
	}
}

// TestMembershipAtPanicsOnMissingSlot: a gate violation (querying a slot
// whose fold window is not fully committed) must fail loudly instead of
// deterministically folding a partial prefix.
func TestMembershipAtPanicsOnMissingSlot(t *testing.T) {
	st := acs.NewStore() // nothing committed
	sc := newSchedule([]int{0, 1, 2, 3}, 1, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("membershipAt folded past a missing slot without panicking")
		}
	}()
	sc.membershipAt(st, 1)
}

func TestScheduleDuplicateOpsIdempotent(t *testing.T) {
	// Every member submits the same pending op: n entries carrying the
	// same change in one slot must fold identically to one.
	entries := make([]acs.Entry, 0, 4)
	for p := 0; p < 4; p++ {
		e := acs.Entry{Slot: 0, Party: p, Payload: EncodePayload(
			[]Change{{Add: true, Party: 5}}, payloadFor(p, 0))}
		entries = append(entries, e)
	}
	st := storeWith(t, entries, []acs.Entry{}, []acs.Entry{})
	sc := newSchedule([]int{0, 1, 2, 3}, 1, 8)
	if got := sc.membershipAt(st, 1); !equalInts(got, []int{0, 1, 2, 3, 5}) {
		t.Fatalf("duplicate fold broken: %v", got)
	}
}

// --- driver ---

// A static run (no changes) through the dynamic driver must behave like
// plain atomic broadcast: one epoch, everyone's batches commit.
func TestStaticRunSingleEpoch(t *testing.T) {
	c := testkit.New(4, 1, testkit.WithSeed(7), testkit.WithTimeout(120*time.Second))
	defer c.Close()
	// The fast path commits all n batches of a unanimous slot; classic
	// agreement may leave the same party out of all six n−t subsets.
	cfg := testCfg()
	cfg.FastPath = true
	res := runDynamic(t, c, []int{0, 1, 2, 3}, Options{
		Session: "rc/static",
		Genesis: []int{0, 1, 2, 3},
		Slots:   6,
		Core:    cfg,
	})
	for id, rr := range res {
		if rr.Epochs != 1 {
			t.Fatalf("party %d saw %d epochs, want 1", id, rr.Epochs)
		}
		if len(committedBy(rr.Ledger, id)) == 0 {
			t.Fatalf("party %d committed nothing", id)
		}
	}
}

// One joiner: the schedule must add it at the lagged boundary, the joiner
// must bootstrap via statesync and commit its own batches post-join, and
// the pool must survive the switch.
func TestJoinerBootstrapsAndCommits(t *testing.T) {
	c := testkit.New(5, 1, testkit.WithSeed(11), testkit.WithTimeout(240*time.Second))
	defer c.Close()
	res := runDynamic(t, c, []int{0, 1, 2, 3, 4}, Options{
		Session:   "rc/join",
		Genesis:   []int{0, 1, 2, 3},
		Slots:     10,
		Core:      testCfg(),
		PoolSize:  2,
		CheckPool: true,
		Source:    NewSource(ScheduledChange{Slot: 1, Change: Change{Add: true, Party: 4}}),
	})
	joiner := res[4]
	if joiner.JoinedAt < 0 {
		t.Fatal("party 4 never joined")
	}
	if !equalInts(res[0].FinalMembers, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("final members %v", res[0].FinalMembers)
	}
	slots := committedBy(res[0].Ledger, 4)
	if len(slots) == 0 {
		t.Fatal("joiner's own submissions never committed")
	}
	for _, s := range slots {
		if s < joiner.JoinedAt {
			t.Fatalf("joiner batch committed at slot %d before join boundary %d", s, joiner.JoinedAt)
		}
	}
}

// One removal: the removed party drains, is torn down, and still ends
// with the identical full ledger by following as an observer.
func TestRemovedPartyDrainsAndFollows(t *testing.T) {
	c := testkit.New(5, 1, testkit.WithSeed(13), testkit.WithTimeout(240*time.Second))
	defer c.Close()
	res := runDynamic(t, c, []int{0, 1, 2, 3, 4}, Options{
		Session:   "rc/remove",
		Genesis:   []int{0, 1, 2, 3, 4},
		Slots:     10,
		Core:      testCfg(),
		PoolSize:  1,
		CheckPool: true,
		Source:    NewSource(ScheduledChange{Slot: 1, Change: Change{Add: false, Party: 0}}),
	})
	removed := res[0]
	if removed.RemovedAt < 0 {
		t.Fatal("party 0 never removed")
	}
	if !equalInts(res[1].FinalMembers, []int{1, 2, 3, 4}) {
		t.Fatalf("final members %v", res[1].FinalMembers)
	}
	if removed.PoolFinal != nil {
		t.Fatal("removed party reported a final pool it must no longer hold")
	}
}
