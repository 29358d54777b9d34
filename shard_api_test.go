package asyncft

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"asyncft/internal/shard"
)

// TestClusterShardedBroadcast drives the public sharded API end to end:
// RunAtomicBroadcast with Shards ≥ 1 started in the background, clients
// feeding it through Cluster.Submit via different front-door parties,
// acks carrying committed positions, and the returned ledger tagged with
// per-shard entries.
func TestClusterShardedBroadcast(t *testing.T) {
	c, err := New(fastConfig(61))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const shards, subs = 2, 10
	type run struct {
		ledger []LedgerEntry
		err    error
	}
	done := make(chan run, 1)
	go func() {
		ledger, err := c.RunAtomicBroadcast(AtomicBroadcastSpec{
			Session: "shardapi", Slots: 4, Width: 2, Shards: shards,
		})
		done <- run{ledger, err}
	}()

	type ack struct {
		stream, payload string
		pos             SubmitPos
		err             error
	}
	acks := make([]ack, subs)
	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		i := i
		acks[i].stream = fmt.Sprintf("stream-%d", i%4)
		acks[i].payload = fmt.Sprintf("op-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			acks[i].pos, acks[i].err = c.Submit("shardapi", i%4, []byte(acks[i].stream), []byte(acks[i].payload))
		}()
	}
	wg.Wait()
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}

	// Every ack names a real position on a real shard; the ledger carries
	// entries from each shard that committed ops, each tagged with it.
	acked := 0
	for i := range acks {
		if acks[i].err != nil {
			t.Fatalf("submit %d: %v", i, acks[i].err)
		}
		acked++
		if p := acks[i].pos; p.Shard < 0 || p.Shard >= shards || p.Slot < 0 || p.Index < 0 {
			t.Fatalf("submit %d: bad position %+v", i, p)
		}
	}
	if acked != subs {
		t.Fatalf("acked %d of %d", acked, subs)
	}
	seen := map[int]bool{}
	for _, e := range r.ledger {
		if e.Shard < 0 || e.Shard >= shards {
			t.Fatalf("ledger entry on shard %d, want [0,%d)", e.Shard, shards)
		}
		seen[e.Shard] = true
		if len(e.Payload) == 0 {
			continue
		}
	}
	if len(seen) == 0 {
		t.Fatal("empty sharded ledger despite acked submissions")
	}
}

// TestClusterShardedSpecValidation pins which specs compose and which do
// not: Shards, Resume, Payloads and QueueCap are parameters of one run,
// while DynamicMembership stays a driver of its own and the fault budget
// still binds.
func TestClusterShardedSpecValidation(t *testing.T) {
	cfg := fastConfig(62)
	cfg.Byzantine = map[int]Behavior{3: Crash()}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bad := []AtomicBroadcastSpec{
		{Session: "v3", Slots: 2, Shards: 1, DynamicMembership: &DynamicMembership{Genesis: []int{0, 1, 2}}},
		{Session: "v5", Slots: 2, Shards: -1, QueueCap: 8},
		{Session: "v6", Slots: 2, Shards: 2, Resume: map[int]int{1: 1}}, // resumed + Byzantine > T
		{Session: "v7", Slots: 2, Resume: map[int]int{3: 1}},            // Resume names the Byzantine party
	}
	for i, spec := range bad {
		if _, err := c.RunAtomicBroadcast(spec); err == nil {
			t.Errorf("bad spec %d (%+v) accepted, want error", i, spec)
		}
	}
	if _, err := c.Submit("never-ran", 9, []byte("s"), []byte("p")); err == nil {
		t.Error("Submit with out-of-range party accepted")
	}

	// The combinations that used to be rejected run, and agree.
	h, err := New(fastConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	good := []AtomicBroadcastSpec{
		{Session: "v1", Slots: 2, Shards: 1, Payloads: func(party, slot int) []byte { return nil }},
		{Session: "v2", Slots: 2, Shards: 1, Resume: map[int]int{1: 1}},
		{Session: "v4", Slots: 2, QueueCap: 8},
	}
	for i, spec := range good {
		if _, err := h.RunAtomicBroadcast(spec); err != nil {
			t.Errorf("good spec %d (%+v): %v", i, spec, err)
		}
	}
	if _, err := h.RunAtomicBroadcast(good[0]); err == nil {
		t.Error("session reuse accepted, want error")
	}
}

// TestClusterShardedResumeSubmit is the composition the sharded driver
// used to reject, fed the way it was meant to be: two shards, party 3 a
// restarted replica, clients submitting at the other parties throughout.
// RunAtomicBroadcast's own check proves per-shard bit-identical stores at
// every party including the resumed one; every ack must name a position
// on the shard its stream routes to, and SyncFrom must refuse the session
// (it cannot say which shard).
func TestClusterShardedResumeSubmit(t *testing.T) {
	c, err := New(fastConfig(65))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const shards, slots, rejoin, subs = 2, 8, 3, 12
	var wg sync.WaitGroup
	errs := make([]error, subs)
	for i := 0; i < subs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			stream := []byte(fmt.Sprintf("stream-%d", i%4))
			var pos SubmitPos
			pos, errs[i] = c.Submit("shardresume", i%3, stream, []byte(fmt.Sprintf("op-%d", i)))
			if want := shard.Route(stream, shards); errs[i] == nil && pos.Shard != want {
				t.Errorf("submit %d acked on shard %d, routes to %d", i, pos.Shard, want)
			}
		}()
	}
	ledger, err := c.RunAtomicBroadcast(AtomicBroadcastSpec{
		Session: "shardresume", Slots: slots, Width: 2, Shards: shards, Resume: map[int]int{3: rejoin},
	})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil && !errors.Is(err, ErrUncommitted) {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if len(ledger) == 0 {
		t.Fatal("empty ledger despite submissions")
	}
	if _, err := c.SyncFrom("shardresume", 0, 0, slots); err == nil {
		t.Fatal("SyncFrom on a two-shard session accepted")
	}
}

// TestClusterSubmitBackpressure pins the public backpressure contract: a
// tiny queue rejects overflow with ErrOverloaded (the root-level alias of
// the internal sentinel), and admitted ops still commit.
func TestClusterSubmitBackpressure(t *testing.T) {
	c, err := New(fastConfig(63))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.RunAtomicBroadcast(AtomicBroadcastSpec{
			Session: "shardbp", Slots: 6, Width: 1, Shards: 1, QueueCap: 1,
		})
		done <- err
	}()
	// Hammer one party's cap-1 queue concurrently: overflow must bounce
	// with ErrOverloaded; admitted ops either commit with positions or —
	// if they miss the run's last slot — report ErrUncommitted, never a
	// silent drop.
	var mu sync.Mutex
	var wg sync.WaitGroup
	overloaded := 0
	for i := 0; i < 32; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Submit("shardbp", 0, []byte("bp-stream"), []byte(fmt.Sprintf("bp-%d", i)))
			switch {
			case err == nil, errors.Is(err, ErrUncommitted):
			case errors.Is(err, ErrOverloaded):
				mu.Lock()
				overloaded++
				mu.Unlock()
			default:
				t.Errorf("submit %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if overloaded == 0 {
		t.Log("queue never filled (acceptable on a fast machine); backpressure path covered by internal tests")
	}
}
