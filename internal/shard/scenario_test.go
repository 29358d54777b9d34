package shard

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"asyncft/internal/adversary"
	"asyncft/internal/statesync"
	"asyncft/internal/testkit"
	"asyncft/internal/trace"
)

// TestShardScenarios drives the sharded serving engine through the
// testkit fault schedules: a party crashing mid-run under S=4 shards,
// partition-then-heal, a slow replica, and Byzantine noise aimed at one
// shard's sessions. In every case the surviving parties must commit
// bit-identical per-shard ledgers, every acked submission must sit at
// its acked (shard, slot, index) position at every surviving party, and
// faults on one shard must not leak into the others (every committed op
// sits on the shard its stream routes to).
func TestShardScenarios(t *testing.T) {
	const n, tf, shards, slots = 4, 1, 4, 4
	type tc struct {
		name   string
		seed   int64
		victim bool // party 3 runs an engine that is NOT awaited (it may
		// die mid-run); parties both faulted and awaited (partition, slow)
		// just go in waited — delayed, never killed, they must converge
		noise  bool  // party 3 floods shard 0's sessions instead
		waited []int // parties whose runs are awaited and ledgers compared
		steps  func(c *testkit.Cluster) []testkit.Step
	}
	cases := []tc{
		{
			name: "crash-at-start", seed: 11, waited: []int{0, 1, 2},
			steps: func(c *testkit.Cluster) []testkit.Step {
				return []testkit.Step{{Name: "crash", At: 0, Do: func(c *testkit.Cluster) { c.Crash(3) }}}
			},
		},
		{
			name: "crash-mid-run", seed: 23, victim: true, waited: []int{0, 1, 2},
			steps: func(c *testkit.Cluster) []testkit.Step {
				return []testkit.Step{{Name: "crash", At: 1, Do: func(c *testkit.Cluster) { c.Crash(3) }}}
			},
		},
		{
			name: "partition-then-heal", seed: 37, waited: []int{0, 1, 2, 3},
			steps: func(c *testkit.Cluster) []testkit.Step {
				var handle int
				return []testkit.Step{
					{Name: "partition", At: 1, Do: func(c *testkit.Cluster) {
						handle = c.Partition([]int{3}, []int{0, 1, 2})
					}},
					{Name: "heal", At: 2, Do: func(c *testkit.Cluster) { c.Heal(handle) }},
				}
			},
		},
		{
			name: "slow-replica", seed: 41, waited: []int{0, 1, 2, 3},
			steps: func(c *testkit.Cluster) []testkit.Step {
				var handle int
				return []testkit.Step{
					{Name: "lag", At: 0, Do: func(c *testkit.Cluster) { handle = c.Slow(3) }},
					{Name: "catch-up", At: 2, Do: func(c *testkit.Cluster) { c.Heal(handle) }},
				}
			},
		},
		{
			// Party 3 speaks no protocol at all: it floods shard 0's
			// session namespace with garbage. Shard 0 must shrug it off
			// and shards 1..3 must never notice.
			name: "byzantine-noise-one-shard", seed: 53, noise: true, waited: []int{0, 1, 2},
			steps: func(c *testkit.Cluster) []testkit.Step { return nil },
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			const session = "shard/scen"
			rec := trace.New(8192)
			c := testkit.New(n, tf, testkit.WithSeed(tc.seed), testkit.WithTimeout(90*time.Second), testkit.WithTrace(rec))
			defer c.Close()
			c.DumpOnFailure(t)
			c.Start(testkit.Scenario{Name: tc.name, Steps: tc.steps(c)})

			runners := append([]int(nil), tc.waited...)
			if tc.victim {
				runners = append(runners, 3)
			}
			engines := make(map[int]*Engine, len(runners))
			for _, id := range runners {
				cfg := localCfg
				cfg.Trace = rec
				eng, err := New(c.Envs[id], Options{
					Session: session, Shards: shards, Slots: slots, Width: 2, Core: cfg,
					// Progress = per-shard slot commits; a step At k fires
					// once any party commits slot k on any shard.
					OnSlotCommit: func(shard, slot int, ops []Op) { c.Progress(slot) },
				})
				if err != nil {
					t.Fatalf("party %d: New: %v", id, err)
				}
				engines[id] = eng
			}
			if tc.noise {
				// Noise over shard 0's slot sessions (the namespace real
				// protocol messages of shard 0 live in).
				var sessions []string
				for k := 0; k < slots; k++ {
					root := Session(session, 0)
					sessions = append(sessions,
						fmt.Sprintf("%s/slot/%d/rbc/0", root, k),
						fmt.Sprintf("%s/slot/%d/rbc/3", root, k),
						fmt.Sprintf("%s/slot/%d/cs", root, k),
					)
				}
				go func() {
					_ = adversary.Noise{Sessions: sessions, Messages: 2000}.Run(c.Ctx, c.Envs[3])
				}()
			}
			if !tc.victim {
				c.Progress(0) // no victim engine runs; arm start-time faults
			}

			// Sustained client load through every awaited party, spread
			// over streams that cover all shards.
			type sub struct {
				party            int
				stream, payload  string
				pos              Pos
				acked, tolerated bool
			}
			var subs []*sub
			for i := 0; i < 24; i++ {
				subs = append(subs, &sub{
					party:   tc.waited[i%len(tc.waited)],
					stream:  fmt.Sprintf("stream-%d", i%8),
					payload: fmt.Sprintf("%s/op-%d", tc.name, i),
				})
			}

			var runWG sync.WaitGroup
			errs := make([]error, n)
			for _, id := range tc.waited {
				id := id
				runWG.Add(1)
				go func() {
					defer runWG.Done()
					errs[id] = engines[id].Run(c.Ctx, c.Ctx)
				}()
			}
			if tc.victim {
				go func() { _ = engines[3].Run(c.Ctx, c.Ctx) }()
			}
			var subWG sync.WaitGroup
			for _, s := range subs {
				s := s
				subWG.Add(1)
				go func() {
					defer subWG.Done()
					pos, err := engines[s.party].Submit(c.Ctx, []byte(s.stream), []byte(s.payload))
					if err != nil {
						// An op the run's last slot could not carry is a
						// tolerated outcome — backpressure by exhaustion,
						// reported, never silently dropped.
						s.tolerated = true
						return
					}
					s.pos, s.acked = pos, true
				}()
			}
			subWG.Wait()
			runWG.Wait()
			for _, id := range tc.waited {
				if errs[id] != nil {
					t.Fatalf("party %d run: %v", id, errs[id])
				}
			}

			// Bit-identical per-shard ledgers across every awaited party.
			flat := agreeShardLedgers(t, engines, tc.waited, shards)

			// No cross-shard interference: every committed op lives on the
			// shard its stream routes to, exactly once.
			count := map[string]int{}
			for shardIdx, ops := range flat {
				for _, op := range ops {
					if home := Route(op.Stream, shards); home != shardIdx {
						t.Fatalf("op %q committed on shard %d, routes to %d", op.Payload, shardIdx, home)
					}
					count[string(op.Payload)]++
				}
			}
			acked := 0
			for _, s := range subs {
				if !s.acked {
					continue
				}
				acked++
				if count[s.payload] != 1 {
					t.Fatalf("acked op %q committed %d times", s.payload, count[s.payload])
				}
				if want := Route([]byte(s.stream), shards); s.pos.Shard != want {
					t.Fatalf("op %q acked on shard %d, routes to %d", s.payload, s.pos.Shard, want)
				}
				for _, id := range tc.waited {
					got := opAt(t, engines[id], s.pos)
					if string(got.Stream) != s.stream || string(got.Payload) != s.payload {
						t.Fatalf("party %d has (%q,%q) at %+v, want (%q,%q)",
							id, got.Stream, got.Payload, s.pos, s.stream, s.payload)
					}
				}
			}
			if acked == 0 {
				t.Fatalf("no submission was acked under %s", tc.name)
			}
			t.Logf("%s: %d/%d ops acked and verified at their positions", tc.name, acked, len(subs))
		})
	}
}

// TestShardScenarioResumeUnderLoad composes what the drivers used to keep
// apart: S=2 shards, a serving queue under sustained client load, and a
// replica that loses everything mid-run and comes back as a resumed one.
// Party 3 crashes at slot crashAt and restarts fresh with From=rejoin:
// per shard it runs the live slots from rejoin on and pulls the prefix it
// missed from its peers — while clients keep submitting at parties 0..2
// and a forged snapshot server, riding party 2's endpoints next to the
// real one, answers every head request first. All four stores of each
// shard must end bit-identical and every ack sit exactly once at its
// position, at every party.
func TestShardScenarioResumeUnderLoad(t *testing.T) {
	const n, tf, shards, slots, width = 4, 1, 2, 12, 2
	const crashAt, rejoin = 2, 8
	const session = "shard/resume"
	rec := trace.New(8192)
	c := testkit.New(n, tf, testkit.WithSeed(67), testkit.WithTimeout(120*time.Second), testkit.WithTrace(rec))
	defer c.Close()
	c.DumpOnFailure(t)

	cfg := localCfg
	cfg.Trace = rec
	cfg.FastPathWait = 50 * time.Millisecond // slots without party 3 all fall back
	opts := Options{
		Session: session, Shards: shards, Slots: slots, Width: width, Core: cfg,
		Sync:         statesync.Options{ChunkSlots: 3},
		OnSlotCommit: func(shard, slot int, ops []Op) { c.Progress(slot) },
	}
	engines := make(map[int]*Engine, n)
	for id := 0; id < n; id++ {
		eng, err := New(c.Envs[id], opts)
		if err != nil {
			t.Fatalf("party %d: New: %v", id, err)
		}
		engines[id] = eng
	}
	for s := 0; s < shards; s++ {
		liar := statesync.LyingServer{Session: Session(session, s)}
		go func() { _ = liar.Run(c.Ctx, c.Envs[2]) }()
	}

	type secondLife struct {
		eng *Engine
		err error
	}
	resumed := make(chan secondLife, 1)
	c.Start(testkit.Scenario{Name: "resume-under-load", Steps: []testkit.Step{
		{Name: "crash+restart", At: crashAt, Do: func(c *testkit.Cluster) {
			c.Crash(3)
			o := opts
			o.From = rejoin
			eng, err := New(c.RestartFresh(3), o) // state loss: new node, empty stores
			if err != nil {
				resumed <- secondLife{err: err}
				return
			}
			go func() { resumed <- secondLife{eng, eng.Run(c.Ctx, c.Ctx)} }()
		}},
	}})
	firstLife := engines[3]
	go func() { _ = firstLife.Run(c.Ctx, c.Ctx) }() // the crash ends it; never awaited

	var runWG sync.WaitGroup
	errs := make([]error, 3)
	for id := 0; id < 3; id++ {
		id, eng := id, engines[id]
		runWG.Add(1)
		go func() {
			defer runWG.Done()
			errs[id] = eng.Run(c.Ctx, c.Ctx)
		}()
	}

	// One closed-loop client per live front door, submitting until its
	// door's run ends.
	type ack struct {
		stream, payload string
		pos             Pos
	}
	acks := make([][]ack, 3)
	var cliWG sync.WaitGroup
	for id := 0; id < 3; id++ {
		id, eng := id, engines[id]
		cliWG.Add(1)
		go func() {
			defer cliWG.Done()
			for i := 0; ; i++ {
				a := ack{stream: fmt.Sprintf("stream-%d", (id+i)%5), payload: fmt.Sprintf("resume/p%d/op-%d", id, i)}
				pos, err := eng.Submit(c.Ctx, []byte(a.stream), []byte(a.payload))
				if err != nil {
					return // ErrUncommitted or ErrFinished: the run is over
				}
				a.pos = pos
				acks[id] = append(acks[id], a)
			}
		}()
	}
	cliWG.Wait()
	runWG.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("party %d run: %v", id, err)
		}
	}
	second := <-resumed
	if second.err != nil {
		t.Fatalf("resumed party 3: %v", second.err)
	}
	engines[3] = second.eng

	parties := []int{0, 1, 2, 3}
	flat := agreeShardLedgers(t, engines, parties, shards)
	count := map[string]int{}
	for _, ops := range flat {
		for _, op := range ops {
			count[string(op.Payload)]++
		}
	}
	acked, late := 0, 0
	for _, perDoor := range acks {
		for _, a := range perDoor {
			acked++
			if a.pos.Slot >= rejoin {
				late++
			}
			if count[a.payload] != 1 {
				t.Fatalf("acked op %q committed %d times", a.payload, count[a.payload])
			}
			for _, id := range parties {
				got := opAt(t, engines[id], a.pos)
				if string(got.Stream) != a.stream || string(got.Payload) != a.payload {
					t.Fatalf("party %d has (%q,%q) at %+v, want (%q,%q)",
						id, got.Stream, got.Payload, a.pos, a.stream, a.payload)
				}
			}
		}
	}
	if late == 0 {
		t.Fatalf("no op was acked in a slot the resumed party ran live (%d acked)", acked)
	}
	for s := 0; s < shards; s++ {
		if got := engines[3].Store(s).Next(); got != slots {
			t.Fatalf("resumed party holds %d/%d slots of shard %d", got, slots, s)
		}
	}
	t.Logf("%d ops acked (%d after the rejoin) and verified at all four parties", acked, late)
}
