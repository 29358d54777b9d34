package rbc

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"asyncft/internal/network"
	"asyncft/internal/runtime"
	"asyncft/internal/testkit"
	"asyncft/internal/wire"
)

func runBroadcast(t *testing.T, c *testkit.Cluster, sess string, sender int, value []byte, parties []int) map[int]testkit.Result {
	t.Helper()
	return c.Run(parties, func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		var in []byte
		if env.ID == sender {
			in = value
		}
		return Run(ctx, env, sess, sender, in)
	})
}

func TestBroadcastAllHonest(t *testing.T) {
	for _, n := range []int{4, 7, 10} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			c := testkit.New(n, (n-1)/3)
			defer c.Close()
			res := runBroadcast(t, c, "rbc/x", 0, []byte("hello"), c.Honest())
			got, err := testkit.AgreeBytes(res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, []byte("hello")) {
				t.Fatalf("got %q", got)
			}
		})
	}
}

func TestBroadcastWithCrashedReceiver(t *testing.T) {
	// t crashed non-sender parties: everyone else still completes.
	c := testkit.New(4, 1, testkit.WithCrashed(3))
	defer c.Close()
	res := runBroadcast(t, c, "rbc/x", 0, []byte("v"), []int{0, 1, 2})
	got, err := testkit.AgreeBytes(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("v")) {
		t.Fatalf("got %q", got)
	}
}

func TestBroadcastEmptyValue(t *testing.T) {
	c := testkit.New(4, 1)
	defer c.Close()
	res := runBroadcast(t, c, "rbc/e", 2, nil, c.Honest())
	got, err := testkit.AgreeBytes(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %q", got)
	}
}

func TestBroadcastInvalidSender(t *testing.T) {
	c := testkit.New(4, 1)
	defer c.Close()
	if _, err := Run(c.Ctx, c.Envs[0], "rbc/bad", 9, nil); err == nil {
		t.Fatal("expected error for invalid sender")
	}
}

func TestBroadcastConcurrentSessions(t *testing.T) {
	// n parallel broadcasts, one per sender, interleaved on the same wires.
	const n = 4
	c := testkit.New(n, 1)
	defer c.Close()
	type out struct{ values [][]byte }
	res := c.Run(c.Honest(), func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		vals := make([][]byte, n)
		errc := make(chan error, n)
		for s := 0; s < n; s++ {
			s := s
			go func() {
				v, err := Run(ctx, env, runtime.SubSession("rbc", s), s, []byte{byte('a' + s)})
				vals[s] = v
				errc <- err
			}()
		}
		for i := 0; i < n; i++ {
			if err := <-errc; err != nil {
				return nil, err
			}
		}
		return out{vals}, nil
	})
	for id, r := range res {
		if r.Err != nil {
			t.Fatalf("party %d: %v", id, r.Err)
		}
		vals := r.Value.(out).values
		for s := 0; s < n; s++ {
			if len(vals[s]) != 1 || vals[s][0] != byte('a'+s) {
				t.Fatalf("party %d session %d got %q", id, s, vals[s])
			}
		}
	}
}

// equivocatingSender sends INIT "0" to party 1 and INIT "1" to parties 2
// and 3, then echoes "1" and READYs both. Honest parties must still agree
// with each other — and here they terminate: the faulty echo completes the
// 2t+1 = 3 echo quorum for "1". (A peer's ECHO counts once per instance, so
// a sender echoing both values would only let the schedule pick which one
// each party counts; its echo takes the side that can reach a quorum.)
func TestBroadcastEquivocatingSenderAgreement(t *testing.T) {
	const n, tf, sender = 4, 1, 0
	for seed := int64(0); seed < 10; seed++ {
		c := testkit.New(n, tf, testkit.WithSeed(seed))
		for to := 1; to < n; to++ {
			v := []byte{0}
			if to >= 2 {
				v = []byte{1}
			}
			c.Router.Send(wire.Envelope{From: sender, To: to, Session: "rbc/eq", Type: msgInit, Payload: v})
		}
		for to := 1; to < n; to++ {
			c.Router.Send(wire.Envelope{From: sender, To: to, Session: "rbc/eq", Type: msgEcho, Payload: []byte{1}})
			for _, v := range [][]byte{{0}, {1}} {
				c.Router.Send(wire.Envelope{From: sender, To: to, Session: "rbc/eq", Type: msgReady, Payload: v})
			}
		}
		res := c.Run([]int{1, 2, 3}, func(ctx context.Context, env *runtime.Env) (interface{}, error) {
			return Run(ctx, env, "rbc/eq", sender, nil)
		})
		// Correctness: every party that terminated agrees. (With 3 honest
		// parties echoing different values, no value may reach the 2t+1=3
		// echo quorum without the faulty echo — which we provided — so
		// termination is expected here; agreement is the invariant.)
		var ref []byte
		seen := false
		for id, r := range res {
			if r.Err != nil {
				t.Fatalf("seed %d party %d: %v", seed, id, r.Err)
			}
			b := r.Value.([]byte)
			if !seen {
				ref, seen = b, true
			} else if !bytes.Equal(ref, b) {
				t.Fatalf("seed %d: agreement violated: %v vs %v", seed, ref, b)
			}
		}
		c.Close()
	}
}

func TestBroadcastOversizedPayloadIgnored(t *testing.T) {
	c := testkit.New(4, 1)
	defer c.Close()
	// A Byzantine party floods an oversized INIT first; the honest sender's
	// value must still win.
	big := make([]byte, MaxValueSize+1)
	c.Router.Send(wire.Envelope{From: 1, To: 2, Session: "rbc/big", Type: msgInit, Payload: big})
	res := runBroadcast(t, c, "rbc/big", 0, []byte("ok"), c.Honest())
	got, err := testkit.AgreeBytes(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("ok")) {
		t.Fatalf("got %q", got)
	}
}

func TestBroadcastUnderFIFOAndReorder(t *testing.T) {
	for _, name := range []string{"fifo", "reorder"} {
		name := name
		t.Run(name, func(t *testing.T) {
			var opt testkit.Option
			if name == "fifo" {
				opt = testkit.WithPolicy(network.FIFO{})
			} else {
				opt = testkit.WithPolicy(network.NewRandomReorder(99, 0.6, 10))
			}
			c := testkit.New(7, 2, opt)
			defer c.Close()
			res := runBroadcast(t, c, "rbc/p", 3, []byte("zz"), c.Honest())
			if _, err := testkit.AgreeBytes(res); err != nil {
				t.Fatal(err)
			}
		})
	}
}
