package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"asyncft/internal/core"
	"asyncft/internal/obs"
	rt "asyncft/internal/runtime"
	"asyncft/internal/testkit"
)

var localCfg = core.Config{K: 1, Eps: 0.1, InnerCoin: core.InnerCoinLocal}

// startEngines builds one engine per party with identical cluster-wide
// options and launches their runs, returning the engines and a wait
// function that joins every run and reports the per-party errors.
func startEngines(t *testing.T, c *testkit.Cluster, parties []int, o Options) (map[int]*Engine, func() map[int]error) {
	t.Helper()
	engines := make(map[int]*Engine, len(parties))
	for _, id := range parties {
		eng, err := New(c.Envs[id], o)
		if err != nil {
			t.Fatalf("party %d: New: %v", id, err)
		}
		engines[id] = eng
	}
	var mu sync.Mutex
	errs := make(map[int]error, len(parties))
	var wg sync.WaitGroup
	for _, id := range parties {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := engines[id].Run(c.Ctx, c.Ctx)
			mu.Lock()
			errs[id] = err
			mu.Unlock()
		}()
	}
	return engines, func() map[int]error {
		wg.Wait()
		return errs
	}
}

// agreeShardLedgers asserts every shard's ledger is bit-identical across
// the given parties' engines and returns the per-shard flattened op
// lists (position → op), keyed by shard.
func agreeShardLedgers(t *testing.T, engines map[int]*Engine, parties []int, shards int) [][]Op {
	t.Helper()
	out := make([][]Op, shards)
	for s := 0; s < shards; s++ {
		var ref []byte
		refParty := -1
		for _, id := range parties {
			enc := encodeShard(engines[id], s)
			if refParty < 0 {
				ref, refParty = enc, id
			} else if !bytes.Equal(ref, enc) {
				t.Fatalf("shard %d: ledger at party %d differs from party %d", s, id, refParty)
			}
		}
		st := engines[parties[0]].Store(s)
		for k := 0; k < st.Next(); k++ {
			entries, _ := st.Slot(k)
			out[s] = append(out[s], SlotOps(entries)...)
		}
	}
	return out
}

// encodeShard canonically encodes every committed slot of one shard
// (not the deduplicated ledger: slot-by-slot bit-identity is the
// stronger claim, and positions hang off slots).
func encodeShard(e *Engine, s int) []byte {
	st := e.Store(s)
	enc, ok := st.EncodeRange(0, st.Next())
	if !ok {
		return nil
	}
	return enc
}

// opAt returns the op committed at pos on the given engine's ledger.
func opAt(t *testing.T, e *Engine, pos Pos) Op {
	t.Helper()
	entries, ok := e.Store(pos.Shard).Slot(pos.Slot)
	if !ok {
		t.Fatalf("position %+v: slot not committed", pos)
	}
	ops := SlotOps(entries)
	if pos.Index < 0 || pos.Index >= len(ops) {
		t.Fatalf("position %+v: slot has %d ops", pos, len(ops))
	}
	return ops[pos.Index]
}

// TestEngineSubmitCommit is the end-to-end happy path: every party runs
// S=2 shards, clients submit through different parties, every ack names
// a position that holds exactly the submitted op at EVERY party, and the
// per-shard ledgers are bit-identical across parties.
func TestEngineSubmitCommit(t *testing.T) {
	const n, tf, shards, slots = 4, 1, 2, 4
	c := testkit.New(n, tf, testkit.WithSeed(7), testkit.WithTimeout(60*time.Second))
	defer c.Close()
	parties := []int{0, 1, 2, 3}
	reg := obs.NewRegistry()
	cfg := localCfg
	cfg.Metrics = reg
	engines, wait := startEngines(t, c, parties, Options{
		Session: "shard/commit", Shards: shards, Slots: slots, Width: 2, Core: cfg,
	})

	type sub struct {
		party   int
		stream  string
		payload string
		pos     Pos
	}
	var subs []sub
	for i := 0; i < 8; i++ {
		subs = append(subs, sub{
			party:   parties[i%len(parties)],
			stream:  fmt.Sprintf("client-%d", i%3),
			payload: fmt.Sprintf("op-%d", i),
		})
	}
	var wg sync.WaitGroup
	for i := range subs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			pos, err := engines[subs[i].party].Submit(c.Ctx, []byte(subs[i].stream), []byte(subs[i].payload))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			subs[i].pos = pos
		}()
	}
	wg.Wait()
	for id, err := range wait() {
		if err != nil {
			t.Fatalf("party %d run: %v", id, err)
		}
	}
	agreeShardLedgers(t, engines, parties, shards)
	if t.Failed() {
		return
	}
	for i, s := range subs {
		if want := Route([]byte(s.stream), shards); s.pos.Shard != want {
			t.Fatalf("submit %d acked on shard %d, stream routes to %d", i, s.pos.Shard, want)
		}
		// The acked position holds this exact op at every party.
		for _, id := range parties {
			op := opAt(t, engines[id], s.pos)
			if string(op.Stream) != s.stream || string(op.Payload) != s.payload {
				t.Fatalf("submit %d: party %d has (%q,%q) at %+v, want (%q,%q)",
					i, id, op.Stream, op.Payload, s.pos, s.stream, s.payload)
			}
		}
	}
	// Every distinct submitted payload appears exactly once across the
	// merged shard ledgers (exactly-once placement), on its routed shard.
	flat := agreeShardLedgers(t, engines, parties, shards)
	count := map[string]int{}
	for s, ops := range flat {
		for _, op := range ops {
			if Route(op.Stream, shards) != s {
				t.Fatalf("op %q committed on shard %d, routes to %d", op.Payload, s, Route(op.Stream, shards))
			}
			count[string(op.Payload)]++
		}
	}
	for _, s := range subs {
		if count[s.payload] != 1 {
			t.Fatalf("payload %q committed %d times, want exactly once", s.payload, count[s.payload])
		}
	}
	// Serving-plane series landed on the shared registry.
	if v, _ := reg.Snapshot("serve_accepted_total"); v[""] < float64(len(subs)) {
		t.Fatalf("serve_accepted_total = %v, want ≥ %d", v[""], len(subs))
	}
	if v, ok := reg.Snapshot("shard_slots_committed"); !ok || len(v) != shards {
		t.Fatalf("shard_slots_committed families = %v", v)
	}
}

// TestEngineBackpressure fills a tiny queue before the run starts: the
// overflow must be rejected synchronously with ErrOverloaded (the 429
// path), and every admitted op must still be acked at a real position —
// backpressure, never silent drops.
func TestEngineBackpressure(t *testing.T) {
	const n, tf = 4, 1
	c := testkit.New(n, tf, testkit.WithSeed(9), testkit.WithTimeout(60*time.Second))
	defer c.Close()
	parties := []int{0, 1, 2, 3}
	reg := obs.NewRegistry()
	cfg := localCfg
	cfg.Metrics = reg
	engines, wait := startEngines(t, c, parties, Options{
		Session: "shard/bp", Shards: 1, Slots: 3, Width: 1, QueueCap: 2, Core: cfg,
	})
	// Admission happens before Run draws anything: with cap 2, exactly 2
	// of 10 submissions are admitted and 8 bounce.
	var chans []<-chan SubmitResult
	rejected := 0
	for i := 0; i < 10; i++ {
		ch, err := engines[0].SubmitAsync([]byte("one-stream"), []byte(fmt.Sprintf("bp-%d", i)))
		switch {
		case err == nil:
			chans = append(chans, ch)
		case errors.Is(err, ErrOverloaded):
			rejected++
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if len(chans) != 2 || rejected != 8 {
		t.Fatalf("admitted %d rejected %d, want 2/8", len(chans), rejected)
	}
	for i, ch := range chans {
		select {
		case r := <-ch:
			if r.Err != nil {
				t.Fatalf("admitted op %d: %v", i, r.Err)
			}
		case <-c.Ctx.Done():
			t.Fatalf("admitted op %d never resolved", i)
		}
	}
	for id, err := range wait() {
		if err != nil {
			t.Fatalf("party %d run: %v", id, err)
		}
	}
	if v, _ := reg.Snapshot("serve_rejected_total"); v[""] != 8 {
		t.Fatalf("serve_rejected_total = %v, want 8", v[""])
	}
}

// TestEngineTerminalStates: a submission after the run completed fails
// fast with ErrFinished; an op admitted too late for any slot resolves
// with ErrUncommitted instead of hanging.
func TestEngineTerminalStates(t *testing.T) {
	const n, tf = 4, 1
	c := testkit.New(n, tf, testkit.WithSeed(13), testkit.WithTimeout(60*time.Second))
	defer c.Close()
	parties := []int{0, 1, 2, 3}
	engines, wait := startEngines(t, c, parties, Options{
		Session: "shard/term", Shards: 1, Slots: 1, Width: 1, DrainWait: -1, Core: localCfg,
	})
	// Slot 0 drains instantly (DrainWait disabled, empty queue); an op
	// submitted into the in-flight run can miss every slot.
	ch, err := engines[0].SubmitAsync([]byte("late"), []byte("too late"))
	for id, e := range wait() {
		if e != nil {
			t.Fatalf("party %d run: %v", id, e)
		}
	}
	if err == nil {
		r := <-ch
		if r.Err == nil {
			// Won the race into slot 0 — a valid outcome; position must hold.
			if got := opAt(t, engines[0], r.Pos); string(got.Payload) != "too late" {
				t.Fatalf("raced op at %+v is %q", r.Pos, got.Payload)
			}
		} else if !errors.Is(r.Err, ErrUncommitted) {
			t.Fatalf("late op error = %v, want ErrUncommitted", r.Err)
		}
	}
	if _, err := engines[0].Submit(context.Background(), []byte("x"), []byte("y")); !errors.Is(err, ErrFinished) {
		t.Fatalf("post-run submit error = %v, want ErrFinished", err)
	}
}

// TestSubmitRacesRunEnd hammers admission against the end of short runs:
// whatever SubmitAsync admitted — right up to the moment the run's final
// sweep closes the shard — must resolve, and once it answers ErrFinished
// nothing more is admitted. An op appended to the queue after the sweep
// emptied it would never resolve.
func TestSubmitRacesRunEnd(t *testing.T) {
	const n, tf, runs, submitters = 4, 1, 30, 8
	c := testkit.New(n, tf, testkit.WithSeed(17), testkit.WithTimeout(120*time.Second))
	defer c.Close()
	parties := []int{0, 1, 2, 3}
	for r := 0; r < runs; r++ {
		engines, wait := startEngines(t, c, parties, Options{
			Session: rt.SubSession("shard/race", r), Shards: 1, Slots: 2, Width: 1,
			DrainWait: time.Millisecond, Core: localCfg,
		})
		admitted := make([][]<-chan SubmitResult, submitters)
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					ch, err := engines[0].SubmitAsync([]byte("racer"), []byte("op"))
					switch {
					case err == nil:
						admitted[g] = append(admitted[g], ch)
					case errors.Is(err, ErrFinished):
						return
					case errors.Is(err, ErrOverloaded):
						time.Sleep(50 * time.Microsecond)
					default:
						t.Errorf("run %d: submit: %v", r, err)
						return
					}
				}
			}()
		}
		for id, err := range wait() {
			if err != nil {
				t.Fatalf("run %d party %d: %v", r, id, err)
			}
		}
		wg.Wait()
		deadline := time.After(time.Second)
		for g := range admitted {
			for _, ch := range admitted[g] {
				select {
				case <-ch:
				case <-deadline:
					t.Fatalf("run %d: an admitted op never resolved", r)
				}
			}
		}
	}
}
