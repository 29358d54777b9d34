package shard

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asyncft/internal/network"
	"asyncft/internal/obs"
	rt "asyncft/internal/runtime"
	"asyncft/internal/statesync"
	"asyncft/internal/testkit"
)

// instrument attaches one registry per listed party to the party's node
// and returns them by party.
func instrument(c *testkit.Cluster, parties []int) map[int]*obs.Registry {
	regs := make(map[int]*obs.Registry, len(parties))
	for _, id := range parties {
		regs[id] = obs.NewRegistry()
		c.Nodes[id].Instrument(regs[id])
	}
	return regs
}

// sumSeries adds a single-valued series up over the registries.
func sumSeries(regs map[int]*obs.Registry, name string) int {
	total := 0.0
	for _, reg := range regs {
		v, _ := reg.Snapshot(name)
		total += v[""]
	}
	return int(total)
}

// slotFamily is where shard s's slots are numbered (acs.RunFrom's layout).
func slotFamily(root string, s int) string { return rt.SubSession(Session(root, s), "slot") }

// ackedOp is one acknowledged submission.
type ackedOp struct {
	payload string
	pos     Pos
}

// closedLoop runs clients per listed party, each submitting its next op
// when the last one resolved, until its engine's run ends. It returns the
// acked ops and the payloads that resolved with an error, once every
// client has stopped.
func closedLoop(c *testkit.Cluster, engines map[int]*Engine, parties []int, clients int, tag string) (wait func() (acked []ackedOp, failed []string)) {
	var mu sync.Mutex
	var acked []ackedOp
	var failed []string
	var wg sync.WaitGroup
	for _, id := range parties {
		for cl := 0; cl < clients; cl++ {
			id, cl := id, cl
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					payload := fmt.Sprintf("%s/p%d/c%d/op-%d", tag, id, cl, i)
					pos, err := engines[id].Submit(c.Ctx, []byte(fmt.Sprintf("stream-%d-%d", id, cl)), []byte(payload))
					mu.Lock()
					if err != nil {
						failed = append(failed, payload)
						mu.Unlock()
						return // ErrUncommitted or ErrFinished: the run is over
					}
					acked = append(acked, ackedOp{payload, pos})
					mu.Unlock()
				}
			}()
		}
	}
	return func() ([]ackedOp, []string) {
		wg.Wait()
		return acked, failed
	}
}

// verifyPlacement checks exactly-once placement over bit-identical stores:
// every acked op sits at its acked position at every party and nowhere
// else, and no op that resolved with an error is on the ledger.
func verifyPlacement(t *testing.T, engines map[int]*Engine, parties []int, acked []ackedOp, failed []string) {
	t.Helper()
	flat := agreeShardLedgers(t, engines, parties, 1)
	count := map[string]int{}
	for _, op := range flat[0] {
		count[string(op.Payload)]++
	}
	for _, a := range acked {
		if count[a.payload] != 1 {
			t.Fatalf("acked op %q committed %d times", a.payload, count[a.payload])
		}
		for _, id := range parties {
			if got := opAt(t, engines[id], a.pos); string(got.Payload) != a.payload {
				t.Fatalf("party %d has %q at %+v, want %q", id, got.Payload, a.pos, a.payload)
			}
		}
	}
	for _, p := range failed {
		if count[p] != 0 {
			t.Fatalf("op %q resolved with an error but was committed %d times", p, count[p])
		}
	}
}

// TestEngineRetiresSlots: under closed-loop load a ledger's live sessions
// and goroutines depend on its pipeline window, not on its length — with
// all four parties up, and with party 3 never started (n−t announcements
// retire a slot; one silent party has no veto).
func TestEngineRetiresSlots(t *testing.T) {
	const n, tf, slots, early, late = 4, 1, 320, 100, 300
	for _, tc := range []struct {
		name    string
		parties []int
	}{
		{"healthy", []int{0, 1, 2, 3}},
		{"one-party-down", []int{0, 1, 2}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			opts := []testkit.Option{testkit.WithSeed(71), testkit.WithTimeout(240 * time.Second)}
			if len(tc.parties) < n {
				opts = append(opts, testkit.WithCrashed(3))
			}
			c := testkit.New(n, tf, opts...)
			defer c.Close()
			regs := instrument(c, tc.parties)

			// Party 0's watcher samples the cluster as its slots commit.
			type sample struct{ sessions, goroutines int }
			var at [2]sample
			cfg := localCfg
			cfg.FastPathWait = 2 * time.Millisecond // one-party-down: every slot falls back
			engines := make(map[int]*Engine, len(tc.parties))
			for _, id := range tc.parties {
				o := Options{Session: "shard/retire", Shards: 1, Slots: slots, Width: 2, DrainWait: time.Millisecond, Core: cfg}
				if id == 0 {
					o.OnSlotCommit = func(_, slot int, _ []Op) {
						switch slot {
						case early:
							at[0] = sample{sumSeries(regs, "runtime_sessions_active"), runtime.NumGoroutine()}
						case late:
							at[1] = sample{sumSeries(regs, "runtime_sessions_active"), runtime.NumGoroutine()}
						}
					}
				}
				eng, err := New(c.Envs[id], o)
				if err != nil {
					t.Fatalf("party %d: New: %v", id, err)
				}
				engines[id] = eng
			}
			var runs sync.WaitGroup
			errs := make([]error, n)
			for _, id := range tc.parties {
				id := id
				runs.Add(1)
				go func() {
					defer runs.Done()
					errs[id] = engines[id].Run(c.Ctx, c.Ctx)
				}()
			}
			wait := closedLoop(c, engines, tc.parties, 2, tc.name)
			runs.Wait()
			acked, failed := wait()
			for _, id := range tc.parties {
				if errs[id] != nil {
					t.Fatalf("party %d run: %v", id, errs[id])
				}
			}
			verifyPlacement(t, engines, tc.parties, acked, failed)

			// Without retirement every slot leaves ~20 sessions and as many
			// goroutines behind at each party: 200 slots are worth 12 000+.
			const slack = 400
			t.Logf("slot %d: %+v; slot %d: %+v; %d ops acked", early, at[0], late, at[1], len(acked))
			if at[0].sessions == 0 || at[1].sessions == 0 {
				t.Fatalf("samples missing: %+v", at)
			}
			if at[1].sessions > at[0].sessions+slack {
				t.Errorf("runtime_sessions_active grew with the ledger: %d at slot %d, %d at slot %d", at[0].sessions, early, at[1].sessions, late)
			}
			if at[1].goroutines > at[0].goroutines+slack {
				t.Errorf("goroutines grew with the ledger: %d at slot %d, %d at slot %d", at[0].goroutines, early, at[1].goroutines, late)
			}
			for _, id := range tc.parties {
				if got := c.Nodes[id].ReleasedBelow(slotFamily("shard/retire", 0)); got < late-50 {
					t.Errorf("party %d retired only %d of %d slots", id, got, slots)
				}
			}
		})
	}
}

// TestLaggardCatchesUpByStateTransfer: party 3 is cut off — a paused
// process, every message to and from it lost — until the others have
// retired twenty slots beyond its cursor: their helpers for the slots it
// is stuck in are gone, and nothing it missed will be sent again.
// Reconnected, it must get those slots from their stores, rejoin the live
// ones, and lose or double none of the ops its own clients submitted in
// the meantime.
func TestLaggardCatchesUpByStateTransfer(t *testing.T) {
	const n, tf, slots, gap = 4, 1, 240, 20
	const session = "shard/laggard"
	c := testkit.New(n, tf, testkit.WithSeed(83), testkit.WithTimeout(240*time.Second))
	defer c.Close()
	parties := []int{0, 1, 2, 3}
	syncReg := obs.NewRegistry()

	cfg := localCfg
	cfg.FastPathWait = 2 * time.Millisecond // slots without party 3 all fall back
	engines := make(map[int]*Engine, n)
	var healedAt atomic.Int64
	healedAt.Store(-1)
	for _, id := range parties {
		o := Options{Session: session, Shards: 1, Slots: slots, Width: 2, DrainWait: time.Millisecond, Core: cfg}
		switch id {
		case 0:
			// Progress = how far party 0 has retired beyond party 3's cursor.
			o.OnSlotCommit = func(_, _ int, _ []Op) {
				c.Progress(c.Nodes[0].ReleasedBelow(slotFamily(session, 0)) - engines[3].Store(0).Next())
			}
		case 3:
			o.Sync = statesync.Options{Metrics: syncReg}
		}
		eng, err := New(c.Envs[id], o)
		if err != nil {
			t.Fatalf("party %d: New: %v", id, err)
		}
		engines[id] = eng
	}
	c.Start(testkit.Scenario{Name: "laggard", Steps: []testkit.Step{
		{Name: "cut off", At: 0, Do: func(c *testkit.Cluster) { c.Crash(3) }},
		{Name: "reconnect", At: gap, Do: func(c *testkit.Cluster) {
			healedAt.Store(int64(engines[3].Store(0).Next()))
			c.Restore(3)
		}},
	}})
	c.Progress(0)

	var runs sync.WaitGroup
	errs := make([]error, n)
	for _, id := range parties {
		id := id
		runs.Add(1)
		go func() {
			defer runs.Done()
			errs[id] = engines[id].Run(c.Ctx, c.Ctx)
		}()
	}
	wait := closedLoop(c, engines, parties, 2, "laggard")
	runs.Wait()
	acked, failed := wait()
	for _, id := range parties {
		if errs[id] != nil {
			t.Fatalf("party %d run: %v", id, errs[id])
		}
	}
	if healedAt.Load() < 0 {
		t.Fatalf("the others never got %d slots past party 3", gap)
	}
	for _, id := range parties {
		if got := engines[id].Store(0).Next(); got != slots {
			t.Fatalf("party %d holds %d/%d slots", id, got, slots)
		}
	}
	verifyPlacement(t, engines, parties, acked, failed)
	if v, _ := syncReg.Snapshot("statesync_chunks_installed_total"); v[""] == 0 {
		t.Fatalf("party 3 was %d slots behind retired helpers and installed no snapshot chunk", gap)
	}
	own := 0
	for _, a := range acked {
		var p, cl, i int
		if _, err := fmt.Sscanf(a.payload, "laggard/p%d/c%d/op-%d", &p, &cl, &i); err == nil && p == 3 {
			own++
		}
	}
	if own == 0 {
		t.Fatal("none of the laggard's own ops was ever acked")
	}
	t.Logf("party 3 reconnected at cursor %d; %d ops acked (%d its own), %d resolved uncommitted",
		healedAt.Load(), len(acked), own, len(failed))
}

// TestSelectiveAnnouncerCannotStrandLaggard: a faulty party's cursor
// announcements reach some parties and not others, so a slot can be
// retired where n−t announcements arrived while the party still working on
// it hears of only t+1 parties ahead. That party must still get the slot:
// it asks the stores for the one slot at its cursor. Here party 3 plays the
// protocol honestly but nothing it says about state transfer reaches
// party 2, which is held back until parties 0 and 1 have retired the
// slots it is in.
func TestSelectiveAnnouncerCannotStrandLaggard(t *testing.T) {
	const n, tf, slots, gap = 4, 1, 64, 12
	const session = "shard/selective"
	c := testkit.New(n, tf, testkit.WithSeed(89), testkit.WithTimeout(240*time.Second))
	defer c.Close()
	parties := []int{0, 1, 2, 3}
	c.HoldSession(3, 2, "sync/") // never healed

	cfg := localCfg
	cfg.FastPathWait = 2 * time.Millisecond
	engines := make(map[int]*Engine, n)
	for _, id := range parties {
		o := Options{Session: session, Shards: 1, Slots: slots, Width: 2, DrainWait: time.Millisecond, Core: cfg}
		if id == 0 {
			o.OnSlotCommit = func(_, _ int, _ []Op) {
				c.Progress(c.Nodes[0].ReleasedBelow(slotFamily(session, 0)) - engines[2].Store(0).Next())
			}
		}
		eng, err := New(c.Envs[id], o)
		if err != nil {
			t.Fatalf("party %d: New: %v", id, err)
		}
		engines[id] = eng
	}
	var held int
	healed := make(chan struct{})
	c.Start(testkit.Scenario{Name: "selective", Steps: []testkit.Step{
		{Name: "hold", At: 0, Do: func(c *testkit.Cluster) { held = c.Slow(2) }},
		{Name: "heal", At: gap, Do: func(c *testkit.Cluster) { c.Heal(held); close(healed) }},
	}})
	c.Progress(0)

	var runs sync.WaitGroup
	errs := make([]error, n)
	for _, id := range parties {
		id := id
		runs.Add(1)
		go func() {
			defer runs.Done()
			errs[id] = engines[id].Run(c.Ctx, c.Ctx)
		}()
	}
	wait := closedLoop(c, engines, parties, 1, "selective")
	runs.Wait()
	acked, failed := wait()
	for _, id := range parties {
		if errs[id] != nil {
			t.Fatalf("party %d run: %v", id, errs[id])
		}
	}
	select {
	case <-healed:
	default:
		t.Fatalf("parties 0 and 1 never got %d slots past party 2", gap)
	}
	verifyPlacement(t, engines, parties, acked, failed)
}

// TestInflatedCursorRetiresNothingEarly: party 3 runs no protocol; it
// announces a cursor far beyond the run and, afterwards, floods the
// sessions of retired slots. At no moment may an honest party have retired
// a slot that fewer than t+1 nonfaulty stores hold, and the flood must not
// bring one session back.
func TestInflatedCursorRetiresNothingEarly(t *testing.T) {
	const n, tf, slots, width = 4, 1, 120, 2
	const session = "shard/liar"
	// FIFO links: the marker sent after the flood arrives after it.
	c := testkit.New(n, tf, testkit.WithSeed(97), testkit.WithTimeout(240*time.Second), testkit.WithPolicy(network.FIFO{}))
	defer c.Close()
	honest := []int{0, 1, 2}
	regs := instrument(c, honest)
	go func() {
		_ = statesync.CursorLiar{Session: Session(session, 0), Cursor: 1 << 30}.Run(c.Ctx, c.Envs[3])
	}()

	cfg := localCfg
	cfg.FastPathWait = 2 * time.Millisecond
	engines, wait := startEngines(t, c, honest, Options{
		Session: session, Shards: 1, Slots: slots, Width: width, DrainWait: time.Millisecond, Core: cfg,
	})
	family := slotFamily(session, 0)
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	var samples, maxRetired int
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			for _, p := range honest {
				// Read the tombstone cursor first: the store cursors only
				// grow, so what is read after bounds what it was allowed.
				retired := c.Nodes[p].ReleasedBelow(family)
				var cursors []int
				for _, q := range honest {
					cursors = append(cursors, engines[q].Store(0).Next())
				}
				sort.Sort(sort.Reverse(sort.IntSlice(cursors)))
				// n−t announcements above a slot include at most the liar's:
				// two honest stores must be a window past it.
				if allowed := cursors[1] - width; retired > allowed && retired > 0 {
					t.Errorf("party %d retired below %d with honest cursors %v", p, retired, cursors)
					return
				}
				if retired > maxRetired {
					maxRetired = retired
				}
				samples++
			}
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	loadDone := closedLoop(c, engines, honest, 2, "liar")
	for id, err := range wait() {
		if err != nil {
			t.Fatalf("party %d run: %v", id, err)
		}
	}
	acked, failed := loadDone()
	close(stop)
	sampler.Wait()
	verifyPlacement(t, engines, honest, acked, failed)
	if maxRetired < slots/2 {
		t.Fatalf("retirement stalled under the inflated announcement: %d of %d slots in %d samples", maxRetired, slots, samples)
	}

	// The flood: frames for sessions of retired slots, existing and invented.
	before := sumSeries(regs, "runtime_sessions_total")
	var targets []string
	for k := 0; k < maxRetired; k += 7 {
		slot := rt.SubSession(family, k)
		targets = append(targets, slot, rt.SubSession(slot, "fp"), rt.SubSession(slot, "rbc", 3), rt.SubSession(slot, "cs", "ba", 1, "wc", 5))
	}
	for round := 0; round < 25; round++ {
		for _, sess := range targets {
			for _, p := range honest {
				c.Envs[3].Send(p, sess, uint8(1+round%8), []byte{byte(round)})
			}
		}
	}
	// A marker per honest party, sent after the flood on the same links,
	// arrives after it.
	for _, p := range honest {
		c.Envs[3].Send(p, "marker", 1, nil)
		if _, err := c.Envs[p].Recv(c.Ctx, "marker"); err != nil {
			t.Fatalf("marker to party %d: %v", p, err)
		}
	}
	if after := sumSeries(regs, "runtime_sessions_total"); after > before+len(honest) { // the markers' own mailboxes
		t.Fatalf("flooding %d retired sessions minted %d mailboxes", len(targets), after-before-len(honest))
	}
}

// TestIdleArrivalRidesLowestSlot: with two slots admitted together on an
// empty queue, an op arriving at an idle party rides the lower one — the
// one its ack has to wait for anyway — and is acked in a few message
// delays, not after the DrainWait the upper slot would otherwise have made
// the lower one sit out.
func TestIdleArrivalRidesLowestSlot(t *testing.T) {
	const n, tf, reps = 4, 1, 50
	const drainWait = 2 * time.Second
	c := testkit.New(n, tf, testkit.WithSeed(101), testkit.WithTimeout(240*time.Second))
	defer c.Close()
	parties := []int{0, 1, 2, 3}
	for r := 0; r < reps; r++ {
		engines, wait := startEngines(t, c, parties, Options{
			Session: rt.SubSession("shard/idle", r), Shards: 1, Slots: 2, Width: 2, DrainWait: drainWait, Core: localCfg,
		})
		time.Sleep(2 * time.Millisecond) // both slots admitted and parked on the empty queue
		// One op at every party, as a readiness probe sends them: the slot
		// needs every party's batch, so a party that let slot 1 take its op
		// holds slot 0 — and every ack — for its whole DrainWait.
		start := time.Now()
		var wg sync.WaitGroup
		for _, id := range parties {
			id := id
			wg.Add(1)
			go func() {
				defer wg.Done()
				pos, err := engines[id].Submit(c.Ctx, []byte("idle"), []byte(fmt.Sprintf("rep-%d/p%d", r, id)))
				if err != nil {
					t.Errorf("rep %d party %d: %v", r, id, err)
					return
				}
				if pos.Slot != 0 {
					t.Errorf("rep %d party %d: op rode slot %d, not the lowest slot in flight", r, id, pos.Slot)
				}
			}()
		}
		wg.Wait()
		if took := time.Since(start); took > drainWait/2 {
			t.Fatalf("rep %d: acks took %v with DrainWait %v", r, took, drainWait)
		}
		for id, err := range wait() {
			if err != nil {
				t.Fatalf("rep %d party %d run: %v", r, id, err)
			}
		}
		if t.Failed() {
			return
		}
	}
}
