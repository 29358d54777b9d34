package ba

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"asyncft/internal/network"
	"asyncft/internal/runtime"
	"asyncft/internal/svss"
	"asyncft/internal/testkit"
	"asyncft/internal/weakcoin"
	"asyncft/internal/wire"
)

// fixedCoin is a perfect common coin with a predetermined sequence.
func fixedCoin(bits ...byte) Coin {
	return func(ctx context.Context, round int) (byte, error) {
		if round-1 < len(bits) {
			return bits[round-1], nil
		}
		return byte(round) & 1, nil
	}
}

func runBA(c *testkit.Cluster, sess string, inputs map[int]byte, mk func(env *runtime.Env) Coin, parties []int) map[int]testkit.Result {
	return c.Run(parties, func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		return Run(ctx, env, sess, inputs[env.ID], mk(env), Options{})
	})
}

func TestValidityUnanimous(t *testing.T) {
	for _, v := range []byte{0, 1} {
		for _, n := range []int{4, 7} {
			v, n := v, n
			t.Run(fmt.Sprintf("v=%d/n=%d", v, n), func(t *testing.T) {
				c := testkit.New(n, (n-1)/3)
				defer c.Close()
				inputs := map[int]byte{}
				for i := 0; i < n; i++ {
					inputs[i] = v
				}
				res := runBA(c, "ba/u", inputs, LocalCoin, c.Honest())
				got, err := testkit.AgreeByte(res)
				if err != nil {
					t.Fatal(err)
				}
				if got != v {
					t.Fatalf("output %d, want %d", got, v)
				}
			})
		}
	}
}

func TestAgreementSplitInputsLocalCoin(t *testing.T) {
	// Split inputs with a local coin: termination is only almost-sure, but
	// for n=4 the expected round count is small.
	for seed := int64(0); seed < 5; seed++ {
		c := testkit.New(4, 1, testkit.WithSeed(seed))
		inputs := map[int]byte{0: 0, 1: 1, 2: 0, 3: 1}
		res := runBA(c, "ba/s", inputs, LocalCoin, c.Honest())
		if _, err := testkit.AgreeByte(res); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		c.Close()
	}
}

func TestAgreementSplitInputsCommonCoin(t *testing.T) {
	c := testkit.New(7, 2)
	defer c.Close()
	inputs := map[int]byte{0: 0, 1: 1, 2: 0, 3: 1, 4: 0, 5: 1, 6: 0}
	res := runBA(c, "ba/c", inputs, func(*runtime.Env) Coin { return fixedCoin(1, 0, 1, 0) }, c.Honest())
	if _, err := testkit.AgreeByte(res); err != nil {
		t.Fatal(err)
	}
}

func TestCrashedMinority(t *testing.T) {
	c := testkit.New(4, 1, testkit.WithCrashed(3))
	defer c.Close()
	inputs := map[int]byte{0: 1, 1: 1, 2: 1}
	res := runBA(c, "ba/crash", inputs, LocalCoin, []int{0, 1, 2})
	got, err := testkit.AgreeByte(res)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("validity violated with crash fault: got %d", got)
	}
}

func TestByzantineEquivocatorSafety(t *testing.T) {
	// Party 3 reports/proposes conflicting values to different parties for
	// several rounds. Agreement and validity among honest parties must hold.
	for seed := int64(0); seed < 5; seed++ {
		c := testkit.New(4, 1, testkit.WithSeed(seed))
		sess := "ba/byz"
		// Byzantine traffic: for rounds 1..6 send report 0 to {0}, 1 to
		// {1,2}; proposals ⊥ to 0, 1 to others; DECIDED(1) to party 0 only
		// (not enough for adoption).
		for round := 1; round <= 6; round++ {
			for to := 0; to < 3; to++ {
				var w wire.Writer
				v := byte(1)
				if to == 0 {
					v = 0
				}
				w.Int(round).Byte(v)
				c.Router.Send(wire.Envelope{From: 3, To: to, Session: sess, Type: msgReport, Payload: w.Bytes()})
				var w2 wire.Writer
				pv := byte(1)
				if to == 0 {
					pv = noProposal
				}
				w2.Int(round).Byte(pv)
				c.Router.Send(wire.Envelope{From: 3, To: to, Session: sess, Type: msgPropose, Payload: w2.Bytes()})
			}
		}
		var wd wire.Writer
		wd.Byte(1)
		c.Router.Send(wire.Envelope{From: 3, To: 0, Session: sess, Type: msgDecided, Payload: wd.Bytes()})

		inputs := map[int]byte{0: 0, 1: 1, 2: 1}
		res := runBA(c, sess, inputs, LocalCoin, []int{0, 1, 2})
		if _, err := testkit.AgreeByte(res); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		c.Close()
	}
}

func TestWeakCoinIntegration(t *testing.T) {
	// Full stack: BA driven by the SVSS-based weak coin, split inputs.
	c := testkit.New(4, 1, testkit.WithSeed(3))
	defer c.Close()
	inputs := map[int]byte{0: 0, 1: 1, 2: 1, 3: 0}
	res := c.Run(c.Honest(), func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		coin := func(cctx context.Context, round int) (byte, error) {
			return weakcoin.Flip(cctx, c.Ctx, env.Fork(fmt.Sprintf("wcoin/%d", round)),
				runtime.SubSession("ba/wc", "coin", round), svss.Options{})
		}
		return Run(ctx, env, "ba/wc", inputs[env.ID], coin, Options{})
	})
	if _, err := testkit.AgreeByte(res); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidInputRejected(t *testing.T) {
	c := testkit.New(4, 1)
	defer c.Close()
	if _, err := Run(c.Ctx, c.Envs[0], "ba/x", 7, LocalCoin(c.Envs[0]), Options{}); err == nil {
		t.Fatal("expected error for non-binary input")
	}
}

// An instance that cannot finish — it runs alone — returns when its context
// ends, under either engine, every time: the pump and the round loop see
// the same cancellation, and the loop must not depend on the pump passing
// it on.
func TestRunReturnsWhenContextEnds(t *testing.T) {
	for _, useBCA := range []bool{false, true} {
		c := testkit.New(4, 1)
		for i := 0; i < 50; i++ {
			ctx, cancel := context.WithCancel(c.Ctx)
			done := make(chan error, 1)
			sess := runtime.SubSession("ba/alone", i)
			go func() {
				_, err := Run(ctx, c.Envs[0], sess, 1, LocalCoin(c.Envs[0]), Options{UseBCA: useBCA})
				done <- err
			}()
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("bca=%v run %d: %v, want context.Canceled", useBCA, i, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("bca=%v run %d: still running after its context ended", useBCA, i)
			}
		}
		c.Close()
	}
}

func TestMaxRoundsFailsafe(t *testing.T) {
	// An adversarial "coin" that always opposes progress cannot be forced
	// to terminate; the cap must surface as an explicit error. We simulate
	// by giving each party an anti-coin derived from its id so estimates
	// keep flapping with high probability... deterministically: parties
	// 0,1 get coin 0 and parties 2,3 coin 1 forever, inputs split.
	c := testkit.New(4, 1, testkit.WithSeed(11))
	defer c.Close()
	inputs := map[int]byte{0: 0, 1: 1, 2: 0, 3: 1}
	res := c.Run(c.Honest(), func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		coin := func(context.Context, int) (byte, error) { return byte(env.ID / 2), nil }
		return Run(ctx, env, "ba/cap", inputs[env.ID], coin, Options{MaxRounds: 8})
	})
	// Either the adversarial coin loses (agreement reached — possible since
	// proposals can still align) or parties hit the cap; both must be
	// reported coherently, and any two successful outputs must agree.
	var out []byte
	for _, r := range res {
		if r.Err == nil {
			out = append(out, r.Value.(byte))
		}
	}
	for i := 1; i < len(out); i++ {
		if out[i] != out[0] {
			t.Fatalf("agreement violated under adversarial coin: %v", out)
		}
	}
}

func TestUnderFIFO(t *testing.T) {
	c := testkit.New(4, 1, testkit.WithPolicy(network.FIFO{}))
	defer c.Close()
	inputs := map[int]byte{0: 1, 1: 0, 2: 1, 3: 0}
	res := runBA(c, "ba/fifo", inputs, func(*runtime.Env) Coin { return fixedCoin(0, 1) }, c.Honest())
	if _, err := testkit.AgreeByte(res); err != nil {
		t.Fatal(err)
	}
}

func TestManySeedsAgreementProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	for seed := int64(100); seed < 115; seed++ {
		c := testkit.New(4, 1, testkit.WithSeed(seed))
		inputs := map[int]byte{}
		for i := 0; i < 4; i++ {
			inputs[i] = byte((seed >> uint(i)) & 1)
		}
		res := runBA(c, "ba/m", inputs, LocalCoin, c.Honest())
		if _, err := testkit.AgreeByte(res); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		c.Close()
	}
}
