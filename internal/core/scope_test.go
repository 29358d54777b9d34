package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"asyncft/internal/network"
	"asyncft/internal/obs"
	"asyncft/internal/rbc"
	"asyncft/internal/runtime"
	"asyncft/internal/testkit"
	"asyncft/internal/wire"
)

// verdict is what a scripted network does with one frame.
type verdict int

const (
	pass verdict = iota
	park         // hold until a later rule passes or drops it
	drop
)

// scripted is a network policy whose rule the test swaps while the run is
// in flight: frames the current rule parks are judged again under every
// later rule, so "reconnecting" delivers what was parked. Everything that
// passes goes through the base policy, reordering included.
type scripted struct {
	base network.Policy

	mu     sync.Mutex
	rule   func(wire.Envelope) verdict
	parked []wire.Envelope
}

func (s *scripted) set(rule func(wire.Envelope) verdict) {
	s.mu.Lock()
	s.rule = rule
	s.mu.Unlock()
}

func (s *scripted) judge(env wire.Envelope) verdict {
	if s.rule == nil {
		return pass
	}
	return s.rule(env)
}

func (s *scripted) OnSend(env wire.Envelope) []wire.Envelope {
	s.mu.Lock()
	v := s.judge(env)
	if v == park {
		s.parked = append(s.parked, env)
	}
	s.mu.Unlock()
	if v != pass {
		return nil
	}
	return s.base.OnSend(env)
}

func (s *scripted) OnTick() []wire.Envelope {
	s.mu.Lock()
	var freed []wire.Envelope
	kept := s.parked[:0]
	for _, env := range s.parked {
		switch s.judge(env) {
		case pass:
			freed = append(freed, env)
		case park:
			kept = append(kept, env)
		}
	}
	s.parked = kept
	s.mu.Unlock()
	var out []wire.Envelope
	for _, env := range freed {
		out = append(out, s.base.OnSend(env)...)
	}
	return append(out, s.base.OnTick()...)
}

func (s *scripted) Drain() []wire.Envelope {
	s.mu.Lock()
	out := s.parked
	s.parked = nil
	s.mu.Unlock()
	return append(out, s.base.Drain()...)
}

// isGadget reports whether a frame belongs to some call's termination
// gadget, nested calls included.
func isGadget(env wire.Envelope) bool { return strings.HasSuffix(env.Session, "/out") }

// scopedKind is one of the three exported entry points, with its output
// rendered comparable and two well-formed outputs for liars to vouch for.
type scopedKind struct {
	name   string
	call   func(ctx, helperCtx context.Context, env *runtime.Env, session string) (string, error)
	forged [2][]byte
	valid  func(out string, n int) bool
}

var scopedKinds = []scopedKind{
	{
		// Distinct inputs: no majority, so the call runs FairChoice and
		// its CoinFlips, each a nested scope.
		name: "FBA",
		call: func(ctx, helperCtx context.Context, env *runtime.Env, session string) (string, error) {
			v, err := FBA(ctx, helperCtx, env, session, []byte("input-"+strconv.Itoa(env.ID)), gadgetCfg())
			return string(v), err
		},
		forged: [2][]byte{[]byte("forged"), []byte("forged-too")},
		valid: func(out string, n int) bool {
			id, err := strconv.Atoi(strings.TrimPrefix(out, "input-"))
			return err == nil && id >= 0 && id < n && strings.HasPrefix(out, "input-")
		},
	},
	{
		name: "FairChoice",
		call: func(ctx, helperCtx context.Context, env *runtime.Env, session string) (string, error) {
			k, err := FairChoice(ctx, helperCtx, env, session, 5, gadgetCfg())
			return strconv.Itoa(k), err
		},
		forged: [2][]byte{new(wire.Writer).Int(1).Bytes(), new(wire.Writer).Int(3).Bytes()},
		valid: func(out string, n int) bool {
			k, err := strconv.Atoi(out)
			return err == nil && k >= 0 && k < 5
		},
	},
	{
		name: "CoinFlip",
		call: func(ctx, helperCtx context.Context, env *runtime.Env, session string) (string, error) {
			b, err := CoinFlip(ctx, helperCtx, env, session, gadgetCfg())
			return strconv.Itoa(int(b)), err
		},
		forged: [2][]byte{{1}, {0}},
		valid:  func(out string, n int) bool { return out == "0" || out == "1" },
	},
}

func gadgetCfg() Config { return Config{K: 1, Eps: 0.1, InnerCoin: InnerCoinLocal} }

// gadgetRun is one cluster under a scripted network, every node
// instrumented, with the calls of one kind started on it.
type gadgetRun struct {
	t    *testing.T
	c    *testkit.Cluster
	net  *scripted
	regs []*obs.Registry
	kind scopedKind
	sess string
	outs chan callOut
}

type callOut struct {
	id  int
	out string
	err error
}

func newGadgetRun(t *testing.T, kind scopedKind, n int, seed int64) *gadgetRun {
	net := &scripted{base: network.NewRandomReorder(seed, 0.3, 6)}
	c := testkit.New(n, (n-1)/3, testkit.WithSeed(seed), testkit.WithPolicy(net), testkit.WithTimeout(120*time.Second))
	t.Cleanup(c.Close)
	g := &gadgetRun{t: t, c: c, net: net, kind: kind, sess: "gadget/" + kind.name, outs: make(chan callOut, n)}
	for _, nd := range c.Nodes {
		reg := obs.NewRegistry()
		nd.Instrument(reg)
		g.regs = append(g.regs, reg)
	}
	return g
}

// start runs the call at each listed party under ctx (the cluster's when
// nil); outputs arrive on g.outs.
func (g *gadgetRun) start(ctx context.Context, ids ...int) {
	if ctx == nil {
		ctx = g.c.Ctx
	}
	for _, id := range ids {
		env := g.c.Envs[id]
		go func() {
			out, err := g.kind.call(ctx, g.c.Ctx, env, g.sess)
			g.outs <- callOut{env.ID, out, err}
		}()
	}
}

// collect waits for count outputs and checks they are valid and agree with
// each other and with want (when non-empty). It returns the common output.
func (g *gadgetRun) collect(count int, want string) string {
	g.t.Helper()
	for i := 0; i < count; i++ {
		select {
		case o := <-g.outs:
			if o.err != nil {
				g.t.Fatalf("party %d: %v", o.id, o.err)
			}
			if !g.kind.valid(o.out, g.c.N) {
				g.t.Fatalf("party %d output %q, which no run of %s produces", o.id, o.out, g.kind.name)
			}
			if want == "" {
				want = o.out
			} else if o.out != want {
				g.t.Fatalf("party %d output %q, another output %q", o.id, o.out, want)
			}
		case <-time.After(90 * time.Second):
			g.t.Fatalf("%d of %d outputs after 90 s", i, count)
		}
	}
	return want
}

// idle checks that no call returns within d.
func (g *gadgetRun) idle(d time.Duration, why string) {
	g.t.Helper()
	select {
	case o := <-g.outs:
		g.t.Fatalf("party %d returned (%q, %v) %s", o.id, o.out, o.err, why)
	case <-time.After(d):
	}
}

// released reports whether the call's tree is released at party id: a
// fresh session under it is refused. (An unreleased tree gains one empty
// mailbox from the question; it goes with the tree.)
func (g *gadgetRun) released(id int) bool {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := g.c.Nodes[id].Mailbox(runtime.SubSession(g.sess, "asked")).Recv(ctx)
	return err == runtime.ErrClosed
}

// awaitReleased waits until the tree is released at every listed party and
// nothing of it is left registered there.
func (g *gadgetRun) awaitReleased(ids ...int) {
	g.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for _, id := range ids {
		for !g.released(id) || g.active(id) != 0 {
			if time.Now().After(deadline) {
				g.t.Fatalf("party %d: released=%v with %v sessions registered", id, g.released(id), g.active(id))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func (g *gadgetRun) active(id int) float64 {
	v, _ := g.regs[id].Snapshot("runtime_sessions_active")
	return v[""]
}

func (g *gadgetRun) total(id int) float64 {
	v, _ := g.regs[id].Snapshot("runtime_sessions_total")
	return v[""]
}

func eachScopedKind(t *testing.T, f func(t *testing.T, kind scopedKind, n int)) {
	for _, kind := range scopedKinds {
		for _, n := range []int{4, 7} {
			kind, n := kind, n
			t.Run(fmt.Sprintf("%s/n=%d", kind.name, n), func(t *testing.T) {
				t.Parallel()
				f(t, kind, n)
			})
		}
	}
}

// t Byzantine parties vouch for an output nobody has — early, twice, with
// an oversized payload, for two values — while every nonfaulty run is
// frozen: nobody adopts and nobody releases. Thawed, the nonfaulty parties
// agree on a real output and release.
func TestScopedLiarsCauseNeitherAdoptionNorRelease(t *testing.T) {
	eachScopedKind(t, func(t *testing.T, kind scopedKind, n int) {
		g := newGadgetRun(t, kind, n, int64(n))
		tf := g.c.T
		honest := g.c.Honest()[:n-tf]
		isLiar := func(id int) bool { return id >= n-tf }
		g.net.set(func(env wire.Envelope) verdict {
			if isLiar(env.From) {
				return pass
			}
			return park
		})
		g.start(nil, honest...)

		outSess := runtime.SubSession(g.sess, "out")
		oversized := bytes.Repeat([]byte{1}, rbc.MaxValueSize+1)
		for liar := n - tf; liar < n; liar++ {
			script := [][]byte{kind.forged[0], kind.forged[0], kind.forged[1], kind.forged[0]}
			if liar == n-1 {
				script = append([][]byte{oversized}, script...)
			}
			for _, v := range script {
				for _, to := range honest {
					g.c.Router.Send(wire.Envelope{From: liar, To: to, Session: outSess, Type: msgOutput, Payload: v})
				}
			}
		}
		g.idle(150*time.Millisecond, "on t forged OUTPUTs alone")
		for _, id := range honest {
			if g.released(id) {
				t.Fatalf("party %d released its tree on t forged OUTPUTs", id)
			}
		}

		g.net.set(nil)
		out := g.collect(len(honest), "")
		if kind.name == "FBA" && (out == string(kind.forged[0]) || out == string(kind.forged[1])) {
			t.Fatalf("output %q is a liar's value", out)
		}
		g.awaitReleased(honest...)
	})
}

// A party cut off from the start — what it sends and what is sent to it is
// lost, except the gadget's frames, which wait — is reconnected after the
// other n−1 have output and released. Its own run can no longer finish:
// nobody answers it. It outputs the common value by adoption and releases
// too, and its late frames mint nothing at the parties that released.
func TestScopedLaggardAdoptsAfterTheOthersReleased(t *testing.T) {
	eachScopedKind(t, func(t *testing.T, kind scopedKind, n int) {
		g := newGadgetRun(t, kind, n, int64(10+n))
		lag := n - 1
		others := g.c.Honest(lag)
		g.net.set(func(env wire.Envelope) verdict {
			switch {
			case env.From != lag && env.To != lag:
				return pass
			case env.To == lag && isGadget(env):
				return park
			}
			return drop
		})
		g.start(nil, g.c.Honest()...)
		out := g.collect(len(others), "")
		g.awaitReleased(others...)
		g.idle(20*time.Millisecond, "while cut off")
		before := make([]float64, n)
		for _, id := range others {
			before[id] = g.total(id)
		}

		g.net.set(nil)
		g.collect(1, out)
		g.awaitReleased(lag)
		time.Sleep(20 * time.Millisecond) // the laggard's last frames land
		for _, id := range others {
			if got := g.total(id); got != before[id] {
				t.Errorf("party %d minted %v sessions for a tree it had released", id, got-before[id])
			}
			if got := g.active(id); got != 0 {
				t.Errorf("party %d has %v sessions registered after the laggard caught up", id, got)
			}
		}
	})
}

// With n−t−1 OUTPUTs in sight nobody releases: every party keeps its tree
// and its helpers, and a slow party that sees no OUTPUT at all still
// finishes by its own run. The withheld votes, delivered, release all.
func TestScopedNoReleaseBelowQuorum(t *testing.T) {
	eachScopedKind(t, func(t *testing.T, kind scopedKind, n int) {
		g := newGadgetRun(t, kind, n, int64(20+n))
		tf := g.c.T
		slow := n - 1
		fast := g.c.Honest(slow)
		// Withheld: the votes of t fast parties and of the slow one, and
		// every vote to the slow one — n−t−1 stay in sight of the fast.
		withheld := func(env wire.Envelope) bool {
			return isGadget(env) && (env.From < tf || env.From == slow || env.To == slow)
		}
		g.net.set(func(env wire.Envelope) verdict {
			if withheld(env) || env.To == slow {
				return park
			}
			return pass
		})
		g.start(nil, g.c.Honest()...)
		out := g.collect(len(fast), "")
		time.Sleep(50 * time.Millisecond) // the n−t−1 visible votes arrive
		for _, id := range fast {
			if g.released(id) {
				t.Fatalf("party %d released on n−t−1 = %d OUTPUTs", id, n-tf-1)
			}
		}

		g.net.set(func(env wire.Envelope) verdict {
			if withheld(env) {
				return park
			}
			return pass
		})
		g.collect(1, out) // the slow party, by its own run
		for _, id := range g.c.Honest() {
			if g.released(id) {
				t.Fatalf("party %d released on n−t−1 OUTPUTs", id)
			}
		}

		g.net.set(nil)
		g.awaitReleased(g.c.Honest()...)
	})
}

// A caller that gives up gets its context's error at once, and the gadget
// it leaves behind still adopts, vouches and releases with the quorum.
func TestScopedCancelledCallerStillReleases(t *testing.T) {
	eachScopedKind(t, func(t *testing.T, kind scopedKind, n int) {
		g := newGadgetRun(t, kind, n, int64(30+n))
		quitter := n - 1
		others := g.c.Honest(quitter)
		g.net.set(func(env wire.Envelope) verdict {
			if env.To == quitter {
				return park
			}
			return pass
		})
		ctx, cancel := context.WithCancel(g.c.Ctx)
		g.start(nil, others...)
		g.collect(len(others), "")
		g.start(ctx, quitter)
		g.idle(20*time.Millisecond, "with nothing delivered to it")
		cancel()
		select {
		case o := <-g.outs:
			if !errors.Is(o.err, context.Canceled) {
				t.Fatalf("the quitter returned (%q, %v), want context.Canceled", o.out, o.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a cancelled caller did not return")
		}
		if g.released(quitter) {
			t.Fatal("the quitter released with no OUTPUT delivered to it")
		}
		g.net.set(nil)
		g.awaitReleased(g.c.Honest()...)
	})
}

// Back-to-back FBA decisions leave nothing behind: what a node holds after
// the last decision is what it held a third of the way in.
func TestFBASoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	decisions := 300
	if s := os.Getenv("DECISIONS"); s != "" {
		if _, err := fmt.Sscanf(s, "%d", &decisions); err != nil || decisions < 3 {
			t.Fatalf("DECISIONS=%q", s)
		}
	}
	const n = 4
	c := testkit.New(n, 1, testkit.WithSeed(9), testkit.WithTimeout(20*time.Minute))
	defer c.Close()
	regs := make([]*obs.Registry, n)
	for i, nd := range c.Nodes {
		regs[i] = obs.NewRegistry()
		nd.Instrument(regs[i])
	}
	// settled waits for every tree to be released, then reports what is
	// left: sessions registered over all nodes, and goroutines.
	settled := func(d int) (sessions float64, goroutines int) {
		deadline := time.Now().Add(30 * time.Second)
		for {
			sessions = 0
			for _, reg := range regs {
				v, _ := reg.Snapshot("runtime_sessions_active")
				sessions += v[""]
			}
			if sessions == 0 || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(10 * time.Millisecond) // released helpers unwind
		return sessions, goruntime.NumGoroutine()
	}
	var sessionsAt, goroutinesAt [2]float64
	for d := 0; d < decisions; d++ {
		sess := runtime.SubSession("soak/fba", d)
		res := c.Run(c.Honest(), func(ctx context.Context, env *runtime.Env) (interface{}, error) {
			return FBA(ctx, c.Ctx, env, sess, []byte(fmt.Sprintf("d%d-p%d", d, env.ID)), gadgetCfg())
		})
		if _, err := testkit.AgreeBytes(res); err != nil {
			t.Fatalf("decision %d: %v", d, err)
		}
		for i, at := range []int{decisions/3 - 1, decisions - 1} {
			if d == at {
				s, g := settled(d)
				sessionsAt[i], goroutinesAt[i] = s, float64(g)
				t.Logf("soak: after decision %d: %v sessions registered, %d goroutines", d+1, s, g)
			}
		}
	}
	if sessionsAt[1] > sessionsAt[0]+16 {
		t.Fatalf("sessions registered grew from %v to %v", sessionsAt[0], sessionsAt[1])
	}
	if goroutinesAt[1] > goroutinesAt[0]+64 {
		t.Fatalf("goroutines grew from %v to %v", goroutinesAt[0], goroutinesAt[1])
	}
	total, _ := regs[0].Snapshot("runtime_sessions_total")
	if total[""] < float64(decisions)*40 { // ~10 per decision without FairChoice, ~80 with
		t.Fatalf("party 0 opened %v sessions over %d decisions: the soak did not run FairChoice", total[""], decisions)
	}
}

// silent is a Sender for a party driven alone by the test.
type silent struct{}

func (silent) Send(wire.Envelope) {}

// Adoption at t+1 votes gives the caller its output but does not end the
// party's own run: with t ≥ 2 the t+1 votes may hold a single nonfaulty
// one, and the parties short of t+1 still need this party's messages. The
// run and the scope end together, at n−t votes, with the release.
func TestScopedAdopterKeepsRunningUntilRelease(t *testing.T) {
	const n, tf = 7, 2
	nd := runtime.NewNode(0, n, tf)
	defer nd.Close()
	env := runtime.NewEnv(0, n, tf, nd, silent{}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type ctxs struct{ run, scope context.Context }
	started := make(chan ctxs, 1)
	returned := make(chan string, 1)
	go func() {
		out, err := scoped(ctx, ctx, env, "call", func(run, scope context.Context) ([]byte, error) {
			started <- ctxs{run, scope}
			<-run.Done()
			return nil, run.Err()
		})
		if err != nil {
			out = []byte(err.Error())
		}
		returned <- string(out)
	}()
	body := <-started
	vote := func(from int) {
		nd.Dispatch(wire.Envelope{From: from, Session: "call/out", Type: msgOutput, Payload: []byte("v")})
	}
	for from := 1; from <= tf; from++ {
		vote(from)
	}
	select {
	case out := <-returned:
		t.Fatalf("returned %q on t votes", out)
	case <-time.After(20 * time.Millisecond):
	}
	vote(tf + 1)
	select {
	case out := <-returned:
		if out != "v" {
			t.Fatalf("adopted %q, want v", out)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("t+1 matching votes were not adopted")
	}
	for from := tf + 2; from < n-tf; from++ {
		vote(from)
	}
	select {
	case <-body.run.Done():
		t.Fatal("the adopter's run ended before n−t votes")
	case <-body.scope.Done():
		t.Fatal("the scope ended before n−t votes")
	case <-time.After(20 * time.Millisecond):
	}
	vote(n - tf)
	for _, c := range []context.Context{body.run, body.scope} {
		select {
		case <-c.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("n−t matching votes did not end the run and the scope")
		}
	}
	ended, end := context.WithCancel(context.Background())
	end()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := nd.Mailbox("call/late").Recv(ended); err == runtime.ErrClosed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("n−t matching votes did not release the tree")
		}
		time.Sleep(time.Millisecond)
	}
}
