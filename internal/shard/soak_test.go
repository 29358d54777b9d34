package shard

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"asyncft/internal/network"
	rt "asyncft/internal/runtime"
	"asyncft/internal/testkit"
)

// TestShardSoak is the nightly soak lane for the sharded serving plane:
// one long run whose live sessions and goroutines must be flat across its
// second half (a ledger's memory is its window, not its length), then
// repeated full engine lifecycles (build, serve client load across every
// shard, drain, tear down) under an adversarial delay policy, with
// goroutine and heap deltas checked after every cycle — a serving plane
// that leaks a watcher goroutine or pins pending submissions would fail
// here instead of in production. Gated on SOAK=1 so the regular test and
// race jobs never pay for it; CYCLES and LONGSLOTS override the cycle
// count and the long run's length for local runs.
func TestShardSoak(t *testing.T) {
	if os.Getenv("SOAK") == "" {
		t.Skip("soak lane only; set SOAK=1 to run")
	}
	cycles := 20
	if s := os.Getenv("CYCLES"); s != "" {
		fmt.Sscanf(s, "%d", &cycles)
	}
	longSlots := 4000
	if s := os.Getenv("LONGSLOTS"); s != "" {
		fmt.Sscanf(s, "%d", &longSlots)
	}
	soakLongRun(t, longSlots)

	runtime.GC()
	gBase := runtime.NumGoroutine()
	var mBase runtime.MemStats
	runtime.ReadMemStats(&mBase)

	const n, tf, shards, slots, subsPerCycle = 4, 1, 4, 6, 48
	for cy := 0; cy < cycles; cy++ {
		seed := int64(2000 + cy)
		c := testkit.New(n, tf,
			testkit.WithSeed(seed),
			testkit.WithTimeout(480*time.Second),
			testkit.WithPolicy(network.NewDelay(seed, 200*time.Microsecond, time.Millisecond)))

		parties := []int{0, 1, 2, 3}
		engines, wait := startEngines(t, c, parties, Options{
			Session: rt.SubSession("soak", cy),
			Shards:  shards, Slots: slots, Width: 2,
			Core: localCfg,
		})

		// Client load through every party, streams covering all shards.
		var wg sync.WaitGroup
		acked := make([]int, n)
		for i := 0; i < subsPerCycle; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				party := parties[i%len(parties)]
				stream := []byte(fmt.Sprintf("soak-stream-%d", i%16))
				payload := []byte(fmt.Sprintf("cy%d/op-%d", cy, i))
				if _, err := engines[party].Submit(c.Ctx, stream, payload); err == nil {
					acked[party]++
				}
			}()
		}
		wg.Wait()
		for id, err := range wait() {
			if err != nil {
				t.Fatalf("cycle %d: party %d run: %v", cy, id, err)
			}
		}
		flat := agreeShardLedgers(t, engines, parties, shards)
		total := 0
		for _, ops := range flat {
			total += len(ops)
		}
		if total == 0 {
			t.Fatalf("cycle %d: no ops committed", cy)
		}
		c.Close()

		// Leak check: poll the goroutine count back to baseline, then
		// compare live heap against the pre-soak snapshot.
		deadline := time.Now().Add(30 * time.Second)
		for {
			runtime.GC()
			if runtime.NumGoroutine() <= gBase+5 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: goroutine leak: baseline %d, now %d",
					cy, gBase, runtime.NumGoroutine())
			}
			time.Sleep(100 * time.Millisecond)
		}
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if m.HeapAlloc > mBase.HeapAlloc+64<<20 {
			t.Fatalf("cycle %d: heap growth: baseline %d MiB, now %d MiB",
				cy, mBase.HeapAlloc>>20, m.HeapAlloc>>20)
		}
		if cy%5 == 4 {
			t.Logf("cycle %d/%d ok: %d ops committed, %d goroutines, %d MiB heap",
				cy+1, cycles, total, runtime.NumGoroutine(), m.HeapAlloc>>20)
		}
	}
}

// soakLongRun drives S=4 shards through slots slots each under closed-loop
// load and samples the cluster halfway and near the end: sessions and
// goroutines at the second sample must be within a constant of the first.
func soakLongRun(t *testing.T, slots int) {
	const n, tf, shards = 4, 1, 4
	c := testkit.New(n, tf,
		testkit.WithSeed(1999),
		testkit.WithTimeout(1200*time.Second),
		testkit.WithPolicy(network.NewDelay(1999, 200*time.Microsecond, time.Millisecond)))
	defer c.Close()
	parties := []int{0, 1, 2, 3}
	regs := instrument(c, parties)
	type sample struct{ sessions, goroutines int }
	var at [2]sample
	engines := make(map[int]*Engine, n)
	for _, id := range parties {
		o := Options{Session: "soak/long", Shards: shards, Slots: slots, Width: 2, DrainWait: 2 * time.Millisecond, Core: localCfg}
		if id == 0 {
			o.OnSlotCommit = func(shard, slot int, _ []Op) {
				if shard != 0 {
					return
				}
				switch slot {
				case slots / 2:
					at[0] = sample{sumSeries(regs, "runtime_sessions_active"), runtime.NumGoroutine()}
				case slots - 20:
					at[1] = sample{sumSeries(regs, "runtime_sessions_active"), runtime.NumGoroutine()}
				}
			}
		}
		eng, err := New(c.Envs[id], o)
		if err != nil {
			t.Fatalf("long run: party %d: New: %v", id, err)
		}
		engines[id] = eng
	}
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
	wait := closedLoop(c, engines, parties, 4, "soak")
	runs.Wait()
	acked, _ := wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("long run: party %d: %v", id, err)
		}
	}
	agreeShardLedgers(t, engines, parties, shards)
	t.Logf("long run: %d slots x %d shards, %d ops acked; halfway %+v, end %+v", slots, shards, len(acked), at[0], at[1])
	// Unretired, half the run is worth slots/2 x 20 sessions per party and shard.
	const slack = 1000
	if at[0].sessions == 0 || at[1].sessions == 0 {
		t.Fatalf("long run: samples missing: %+v", at)
	}
	if at[1].sessions > at[0].sessions+slack {
		t.Fatalf("long run: runtime_sessions_active grew from %d to %d over the second half", at[0].sessions, at[1].sessions)
	}
	if at[1].goroutines > at[0].goroutines+slack {
		t.Fatalf("long run: goroutines grew from %d to %d over the second half", at[0].goroutines, at[1].goroutines)
	}
}
