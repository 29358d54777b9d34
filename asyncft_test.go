package asyncft

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"asyncft/internal/obs"
	"asyncft/internal/runtime"
	"asyncft/internal/shard"
)

func fastConfig(seed int64) Config {
	return Config{N: 4, T: 1, Seed: seed, Coin: CoinLocal, CoinRounds: 2, Timeout: 60 * time.Second}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"good", Config{N: 4, T: 1}, true},
		{"optimal-7", Config{N: 7, T: 2}, true},
		{"zero-faults", Config{N: 1, T: 0}, true},
		{"resilience", Config{N: 4, T: 2}, false},
		{"negative", Config{N: -1, T: 0}, false},
		{"too-many-byz", Config{N: 4, T: 1, Byzantine: map[int]Behavior{0: Crash(), 1: Crash()}}, false},
		{"byz-range", Config{N: 4, T: 1, Byzantine: map[int]Behavior{9: Crash()}}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cl, err := New(c.cfg)
			if (err == nil) != c.ok {
				t.Fatalf("New(%+v): err = %v, want ok=%v", c.cfg, err, c.ok)
			}
			if cl != nil {
				cl.Close()
			}
		})
	}
}

func TestClusterReliableBroadcast(t *testing.T) {
	c, err := New(fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.ReliableBroadcast("x", 2, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload" {
		t.Fatalf("got %q", got)
	}
}

func TestClusterShareAndReconstruct(t *testing.T) {
	c, err := New(fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.ShareAndReconstruct("s", 0, 987654321)
	if err != nil {
		t.Fatal(err)
	}
	if got != 987654321 {
		t.Fatalf("got %d", got)
	}
}

func TestClusterBinaryAgreement(t *testing.T) {
	c, err := New(fastConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.BinaryAgreement("b", map[int]byte{0: 1, 1: 1, 2: 1, 3: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("validity: got %d", got)
	}
}

func TestClusterCoinFlip(t *testing.T) {
	seen := map[byte]bool{}
	for seed := int64(1); seed <= 6; seed++ {
		c, err := New(fastConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.CoinFlip(SubSession("c", seed))
		if err != nil {
			t.Fatal(err)
		}
		seen[b] = true
		c.Close()
	}
	if len(seen) == 0 {
		t.Fatal("no outcomes")
	}
}

func TestClusterFairBAUnanimous(t *testing.T) {
	c, err := New(fastConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	inputs := map[int][]byte{}
	for _, id := range c.PartyIDs() {
		inputs[id] = []byte("same")
	}
	got, err := c.FairBA("u", inputs)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "same" {
		t.Fatalf("got %q", got)
	}
}

func TestClusterWithCrashBehavior(t *testing.T) {
	cfg := fastConfig(5)
	cfg.Byzantine = map[int]Behavior{3: Crash()}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := len(c.Honest()); got != 3 {
		t.Fatalf("Honest count = %d", got)
	}
	out, err := c.ReliableBroadcast("x", 0, []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "v" {
		t.Fatalf("got %q", out)
	}
}

func TestClusterWithNoiseBehavior(t *testing.T) {
	cfg := fastConfig(6)
	cfg.Byzantine = map[int]Behavior{2: Noise("rbc/x", "ba/y")}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, err := c.ReliableBroadcast("x", 0, []byte("clean"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "clean" {
		t.Fatalf("got %q", out)
	}
}

func TestClusterMetricsAccumulate(t *testing.T) {
	c, err := New(fastConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ReliableBroadcast("m", 0, []byte("v")); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.Messages == 0 || m.Bytes == 0 {
		t.Fatalf("metrics empty: %+v", m)
	}
	found := false
	for _, p := range m.ByProtocol {
		if p.Proto == "rbc" && p.Messages > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no rbc stats: %+v", m.ByProtocol)
	}
}

func TestClusterTargetedHolds(t *testing.T) {
	cfg := fastConfig(8)
	cfg.Scheduling = SchedulingTargeted
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.Hold(0, 1, "rbc/")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Lift(id); err != nil {
		t.Fatal(err)
	}
	// Hold/Lift on a non-targeted cluster errors.
	c2, err := New(fastConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Hold(0, 1, ""); err == nil {
		t.Fatal("expected Hold error on random scheduling")
	}
	if err := c2.Lift(0); err == nil {
		t.Fatal("expected Lift error on random scheduling")
	}
}

func TestClusterFairChoiceRange(t *testing.T) {
	cfg := fastConfig(10)
	cfg.CoinRounds = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v, err := c.FairChoice("f", 3)
	if err != nil {
		t.Fatal(err)
	}
	if v < 0 || v >= 3 {
		t.Fatalf("out of range: %d", v)
	}
}

func TestClusterShunEventsZeroWhenHonest(t *testing.T) {
	c, err := New(fastConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ShareAndReconstruct("h", 1, 42); err != nil {
		t.Fatal(err)
	}
	if got := c.ShunEvents(); got != 0 {
		t.Fatalf("shun events in honest run: %d", got)
	}
}

func TestClusterTraceRecording(t *testing.T) {
	cfg := fastConfig(12)
	cfg.TraceCapacity = 4096
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ReliableBroadcast("tr", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	evs := c.TraceEvents()
	if len(evs) == 0 {
		t.Fatal("no trace events recorded")
	}
	sends, delivers := 0, 0
	for _, e := range evs {
		switch e.Kind {
		case "send":
			sends++
		case "deliver":
			delivers++
		}
	}
	if sends == 0 || delivers == 0 {
		t.Fatalf("sends=%d delivers=%d", sends, delivers)
	}
	var sb strings.Builder
	c.DumpTrace(&sb)
	if !strings.Contains(sb.String(), "rbc/tr") {
		t.Fatal("dump missing session")
	}
}

func TestClusterWithoutTraceIsEmpty(t *testing.T) {
	c, err := New(fastConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ReliableBroadcast("x", 0, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if evs := c.TraceEvents(); evs != nil {
		t.Fatalf("unexpected trace: %d events", len(evs))
	}
	var sb strings.Builder
	c.DumpTrace(&sb) // must not panic
	if sb.Len() != 0 {
		t.Fatal("dump produced output without trace")
	}
}

func TestCustomBehaviorFunc(t *testing.T) {
	cfg := fastConfig(14)
	called := make(chan struct{}, 1)
	cfg.Byzantine = map[int]Behavior{3: BehaviorFunc("probe", func(ctx context.Context, p *Party) error {
		if p.ID != 3 || p.N != 4 || p.T != 1 {
			t.Errorf("party caps wrong: %+v", p)
		}
		p.SendAll("junk", 1, []byte{1})
		p.Send(0, "junk", 2, nil)
		called <- struct{}{}
		<-ctx.Done()
		return nil
	})}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	select {
	case <-called:
	case <-time.After(5 * time.Second):
		t.Fatal("behavior never ran")
	}
	if out, err := c.ReliableBroadcast("bf", 1, []byte("v")); err != nil || string(out) != "v" {
		t.Fatalf("broadcast under custom behavior: %q %v", out, err)
	}
}

func TestClusterSecureSum(t *testing.T) {
	cfg := fastConfig(15)
	cfg.CoinRounds = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sum, set, err := c.SecureSum("s", map[int]uint64{0: 100, 1: 200, 2: 300, 3: 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(set) < 3 {
		t.Fatalf("core set too small: %v", set)
	}
	var want uint64
	for _, j := range set {
		want += uint64(100 * (j + 1))
	}
	if sum != want {
		t.Fatalf("sum = %d, want %d over %v", sum, want, set)
	}
}

func TestClusterRandomInt(t *testing.T) {
	cfg := fastConfig(16)
	cfg.CoinRounds = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v, err := c.RandomInt("r", 6)
	if err != nil {
		t.Fatal(err)
	}
	if v < 0 || v >= 6 {
		t.Fatalf("out of range: %d", v)
	}
}

func TestClusterEquivocatingDealerContract(t *testing.T) {
	// The examples/byzantine scenario as a regression test: an equivocating
	// SVSS dealer must never break binding silently — either all honest
	// parties agree, or a shun event is recorded.
	for seed := int64(1); seed <= 4; seed++ {
		cfg := fastConfig(seed)
		cfg.CoinRounds = 1
		session := "svss/contract"
		cfg.Byzantine = map[int]Behavior{
			3: EquivocatingDealer(session, map[int]int{0: 0, 1: 0, 2: 1}, seed),
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.ShareAndReconstruct("contract", 3, 0)
		shuns := c.ShunEvents()
		if err != nil && shuns == 0 {
			t.Fatalf("seed %d: binding broken with zero shuns: %v", seed, err)
		}
		if shuns >= 16 {
			t.Fatalf("seed %d: shun bound violated: %d", seed, shuns)
		}
		c.Close()
	}
}

func TestClusterLyingRevealerRecovered(t *testing.T) {
	cfg := fastConfig(17)
	session := "svss/liar2"
	cfg.Byzantine = map[int]Behavior{3: LyingRevealer(session, 0)}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.ShareAndReconstruct("liar2", 0, 5555)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5555 {
		t.Fatalf("honest dealer's secret lost: %d", got)
	}
}

func TestClusterRunBatchMixed(t *testing.T) {
	cfg := fastConfig(23)
	cfg.CoinRounds = 1
	cfg.Timeout = 120 * time.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	specs := []BatchSpec{
		CoinFlipSpec("batch/0"),
		CoinFlipSpec("batch/1"),
		ShareAndReconstructSpec("batch/sr", 0, 987654321),
		BinaryAgreementSpec("batch/ba", map[int]byte{0: 0, 1: 1, 2: 0, 3: 1}),
	}
	res, err := c.RunBatch(0, specs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(specs) {
		t.Fatalf("got %d results, want %d", len(res), len(specs))
	}
	for _, i := range []int{0, 1} {
		if v := res[i].Value.(byte); v > 1 {
			t.Fatalf("instance %s: non-binary coin %d", res[i].Session, v)
		}
	}
	if v := res[2].Value.(uint64); v != 987654321 {
		t.Fatalf("batched SVSS reconstructed %d, want 987654321", v)
	}
	if v := res[3].Value.(byte); v > 1 {
		t.Fatalf("batched BA output %d not a bit", v)
	}
}

// 32 coin flips in flight at once through RunBatch each release their own
// tree as they finish, and only their own: a while after the batch returns
// no node has a session registered, and every flip's tree refuses a new one.
func TestClusterRunBatchReleasesEveryCoinFlip(t *testing.T) {
	cfg := fastConfig(31)
	cfg.CoinRounds = 1
	cfg.Timeout = 120 * time.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	regs := make([]*obs.Registry, len(c.nodes))
	for i, nd := range c.nodes {
		regs[i] = obs.NewRegistry()
		nd.Instrument(regs[i])
	}
	const flips = 32
	specs := make([]BatchSpec, flips)
	for i := range specs {
		specs[i] = CoinFlipSpec(runtime.SubSession("released", i))
	}
	res, err := c.RunBatch(0, specs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != flips {
		t.Fatalf("got %d results, want %d", len(res), flips)
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	deadline := time.Now().Add(30 * time.Second)
	for id, nd := range c.nodes {
		for {
			active, _ := regs[id].Snapshot("runtime_sessions_active")
			if active[""] == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("party %d still has %v sessions registered after the batch", id, active[""])
			}
			time.Sleep(2 * time.Millisecond)
		}
		for _, r := range res {
			if _, err := nd.Mailbox(r.Session + "/late").Recv(done); err != runtime.ErrClosed {
				t.Fatalf("party %d: flip %s is not released (%v)", id, r.Session, err)
			}
		}
	}
}

func TestClusterRunBatchWidthAndEquivalence(t *testing.T) {
	// A width-bounded batch must complete and each instance must agree,
	// exactly as sequential runs of the same sessions would.
	cfg := fastConfig(29)
	cfg.CoinRounds = 1
	cfg.Timeout = 120 * time.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var specs []BatchSpec
	for k := 0; k < 6; k++ {
		specs = append(specs, CoinFlipSpec(SubSession("bw", k)))
	}
	res, err := c.RunBatch(2, specs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if v := r.Value.(byte); v > 1 {
			t.Fatalf("instance %s: non-binary coin %d", r.Session, v)
		}
	}
}

func abcPayloads(party, slot int) []byte {
	return []byte(fmt.Sprintf("tx/p%d/s%d", party, slot))
}

func TestClusterAtomicBroadcast(t *testing.T) {
	cfg := fastConfig(21)
	cfg.CoinRounds = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ledger, err := c.RunAtomicBroadcast(AtomicBroadcastSpec{
		Session: "ledger", Slots: 4, Width: 2, Payloads: abcPayloads,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ledger) < 4*(cfg.N-cfg.T) {
		t.Fatalf("ledger has %d entries, want ≥ %d", len(ledger), 4*(cfg.N-cfg.T))
	}
	lastSlot := -1
	for _, e := range ledger {
		if e.Slot < lastSlot {
			t.Fatalf("ledger out of slot order: %v", ledger)
		}
		lastSlot = e.Slot
		if want := string(abcPayloads(e.Party, e.Slot)); string(e.Payload) != want {
			t.Fatalf("entry %v: payload %q, want %q", e, e.Payload, want)
		}
	}
}

func TestClusterAtomicBroadcastRejectsBadSpec(t *testing.T) {
	c, err := New(fastConfig(22))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RunAtomicBroadcast(AtomicBroadcastSpec{Session: "bad", Slots: 0}); err == nil {
		t.Fatal("Slots=0 accepted")
	}
}

func TestClusterAtomicBroadcastWithCrash(t *testing.T) {
	cfg := fastConfig(23)
	cfg.CoinRounds = 1
	cfg.Byzantine = map[int]Behavior{3: Crash()}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ledger, err := c.RunAtomicBroadcast(AtomicBroadcastSpec{
		Session: "crash", Slots: 3, Payloads: abcPayloads,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ledger {
		if e.Party == 3 {
			t.Fatalf("crashed party's batch committed: %v", e)
		}
	}
	if len(ledger) < 3*(cfg.N-cfg.T-1) {
		t.Fatalf("ledger has %d entries, want ≥ %d", len(ledger), 3*(cfg.N-cfg.T-1))
	}
}

func TestClusterAtomicBroadcastWithNoise(t *testing.T) {
	cfg := fastConfig(24)
	cfg.CoinRounds = 1
	root := shard.Session("abc/n", 0)
	cfg.Byzantine = map[int]Behavior{2: Noise(
		root+"/slot/0/rbc/0", root+"/slot/0/rbc/2", root+"/slot/0/cs/ba/1",
		root+"/slot/1/rbc/1", root+"/slot/1/cs/ba/0",
	)}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ledger, err := c.RunAtomicBroadcast(AtomicBroadcastSpec{
		Session: "n", Slots: 2, Payloads: abcPayloads,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ledger) < 2*(cfg.N-cfg.T-1) {
		t.Fatalf("ledger has %d entries, want ≥ %d", len(ledger), 2*(cfg.N-cfg.T-1))
	}
}

// TestClusterAtomicBroadcastTargetedSchedule delays one party's broadcasts
// behind everyone else's agreement phase — the scheduling adversary the
// asynchronous model grants — and checks the ledgers still replicate.
func TestClusterAtomicBroadcastTargetedSchedule(t *testing.T) {
	cfg := fastConfig(25)
	cfg.CoinRounds = 1
	cfg.Scheduling = SchedulingTargeted
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hold, err := c.Hold(0, -1, shard.Session("abc/held", 0)+"/slot/0/rbc/0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		// Lift the hold only after the other parties have had ample time
		// to drive CommonSubset to a decision without party 0's batch.
		time.Sleep(300 * time.Millisecond)
		if err := c.Lift(hold); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	ledger, err := c.RunAtomicBroadcast(AtomicBroadcastSpec{
		Session: "held", Slots: 2, Payloads: abcPayloads,
	})
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if len(ledger) < 2*(cfg.N-cfg.T) {
		t.Fatalf("ledger has %d entries, want ≥ %d", len(ledger), 2*(cfg.N-cfg.T))
	}
}

// TestClusterAtomicBroadcastSeedSweep is the public-API replication
// property test: across seeds, the agreement check inside
// RunAtomicBroadcast must never trip.
func TestClusterAtomicBroadcastSeedSweep(t *testing.T) {
	seeds := []int64{31, 32, 33, 34}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := fastConfig(seed)
			cfg.CoinRounds = 1
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.RunAtomicBroadcast(AtomicBroadcastSpec{
				Session: "sweep", Slots: 3, Payloads: abcPayloads,
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
