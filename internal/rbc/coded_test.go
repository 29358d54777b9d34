package rbc

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"asyncft/internal/network"
	"asyncft/internal/obs"
	"asyncft/internal/runtime"
	"asyncft/internal/testkit"
	"asyncft/internal/wire"
)

func runCoded(t *testing.T, c *testkit.Cluster, sess string, sender int, value []byte, parties []int, opts Options) map[int]testkit.Result {
	t.Helper()
	return c.Run(parties, func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		var in []byte
		if env.ID == sender {
			in = value
		}
		return RunCoded(ctx, env, sess, sender, in, opts)
	})
}

// lastT lists the t highest party ids, the ones these tests make Byzantine.
func lastT(c *testkit.Cluster) []int {
	var ids []int
	for id := c.N - c.T; id < c.N; id++ {
		ids = append(ids, id)
	}
	return ids
}

func TestCodedBroadcastAllHonest(t *testing.T) {
	for _, n := range []int{4, 7, 10} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			c := testkit.New(n, (n-1)/3)
			defer c.Close()
			value := bytes.Repeat([]byte("coded!"), 500) // 3000 B, above default threshold
			res := runCoded(t, c, "rbc/c", 0, value, c.Honest(), Options{})
			got, err := testkit.AgreeBytes(res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, value) {
				t.Fatalf("coded broadcast corrupted the value (%d vs %d bytes)", len(got), len(value))
			}
		})
	}
}

// TestCodedMatchesClassicProperty is the bit-identical cross-check of the
// two dispersal flavors: for random payload sizes straddling the digest
// threshold and random/delay schedules, every party runs one classic and
// one coded instance of the same payload and must deliver identical bytes
// from both.
func TestCodedMatchesClassicProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		seed := int64(trial * 31)
		size := []int{0, 1, 100, 511, 512, 513, 2048, 16384}[trial%8]
		var opt testkit.Option
		if trial%3 == 0 {
			opt = testkit.WithPolicy(network.NewDelay(seed, 50*time.Microsecond, 300*time.Microsecond))
		} else {
			opt = testkit.WithPolicy(network.NewRandomReorder(seed, 0.4, 8))
		}
		c := testkit.New(4, 1, testkit.WithSeed(seed), opt)
		value := make([]byte, size)
		rng.Read(value)
		sender := trial % 4
		type pair struct{ classic, coded []byte }
		res := c.Run(c.Honest(), func(ctx context.Context, env *runtime.Env) (interface{}, error) {
			var in []byte
			if env.ID == sender {
				in = value
			}
			outc := make(chan []byte, 1)
			errc := make(chan error, 1)
			go func() {
				v, err := RunCoded(ctx, env, "rbc/coded", sender, in, Options{CodedThreshold: 512})
				outc <- v
				errc <- err
			}()
			cl, err := Run(ctx, env, "rbc/classic", sender, in)
			if err != nil {
				return nil, err
			}
			cv := <-outc
			if err := <-errc; err != nil {
				return nil, err
			}
			return pair{classic: cl, coded: cv}, nil
		})
		for id, r := range res {
			if r.Err != nil {
				t.Fatalf("trial %d party %d: %v", trial, id, r.Err)
			}
			p := r.Value.(pair)
			if !bytes.Equal(p.classic, p.coded) {
				t.Fatalf("trial %d party %d: classic and coded outputs differ", trial, id)
			}
			if !bytes.Equal(p.coded, value) {
				t.Fatalf("trial %d party %d: delivered value differs from input", trial, id)
			}
		}
		c.Close()
	}
}

func TestCodedBroadcastWithCrashedReceiver(t *testing.T) {
	c := testkit.New(4, 1, testkit.WithCrashed(3))
	defer c.Close()
	value := bytes.Repeat([]byte{7}, 4096)
	res := runCoded(t, c, "rbc/cc", 0, value, []int{0, 1, 2}, Options{})
	got, err := testkit.AgreeBytes(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, value) {
		t.Fatal("value corrupted with crashed receiver")
	}
}

// TestCodedVouchingAdversary: t parties vouch for the digest without ever
// holding the value (VouchWithoutValue) — they echo and READY it, and answer
// pulls with other bytes. The default reordering schedule delays some
// CINITs past the READY quorum, so nonfaulty parties do pull, and some of
// those pulls land on the liars; every nonfaulty party still outputs the
// sender's bytes.
func TestCodedVouchingAdversary(t *testing.T) {
	for _, tc := range []struct{ n, tf int }{{4, 1}, {7, 2}} {
		tc := tc
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				c := testkit.New(tc.n, tc.tf, testkit.WithSeed(seed))
				sess := "rbc/vouch"
				bad := lastT(c)
				for _, id := range bad {
					id := id
					go func() { _ = VouchWithoutValue(c.Ctx, c.Envs[id], sess) }()
				}
				value := bytes.Repeat([]byte("vouched payload "), 1024) // 16 KiB
				res := runCoded(t, c, sess, 0, value, c.Honest(bad...), Options{CodedThreshold: 1})
				got, err := testkit.AgreeBytes(res)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !bytes.Equal(got, value) {
					t.Fatalf("seed %d: a vouching adversary changed the output", seed)
				}
				c.Close()
			}
		})
	}
}

// TestCodedGarbageMessagesIgnored floods a session with malformed digest
// frames before the honest broadcast; honest parties must be
// unaffected (and must not panic).
func TestCodedGarbageMessagesIgnored(t *testing.T) {
	c := testkit.New(4, 1)
	defer c.Close()
	sess := "rbc/garbage"
	garbage := [][]byte{
		nil,
		{1, 2, 3},
		bytes.Repeat([]byte{0xff}, 100),
	}
	// A well-formed digest with trailing bytes, and one a byte short.
	var w wire.Writer
	w.BytesField(make([]byte, sha256.Size))
	w.Int(MaxValueSize + 5)
	garbage = append(garbage, w.Bytes(), make([]byte, sha256.Size))
	for _, g := range garbage {
		for _, typ := range []uint8{msgCInit, msgCEcho, msgCReady, msgCPull, msgCFull} {
			for to := 0; to < 4; to++ {
				c.Router.Send(wire.Envelope{From: 1, To: to, Session: sess, Type: typ, Payload: g})
			}
		}
	}
	value := bytes.Repeat([]byte{9}, 2000)
	res := runCoded(t, c, sess, 0, value, c.Honest(), Options{})
	got, err := testkit.AgreeBytes(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, value) {
		t.Fatal("garbage frames disturbed the broadcast")
	}
}

// TestCodedThresholdSelectsFlavor pins the sender's dispatch rule at the
// boundary: one byte below the threshold (and for the empty value) the
// wire carries the classic INIT and every party counts a classic delivery,
// at the threshold CINIT and a coded one. Which bytes each flavor moves is
// TestCodedBroadcastByteBudget's subject.
func TestCodedThresholdSelectsFlavor(t *testing.T) {
	for _, tc := range []struct {
		size int
		mode string
	}{{0, "classic"}, {DefaultCodedThreshold - 1, "classic"}, {DefaultCodedThreshold, "coded"}} {
		c := testkit.New(4, 1)
		regs := make([]*obs.Registry, c.N)
		for id := range regs {
			regs[id] = obs.NewRegistry()
		}
		value := bytes.Repeat([]byte{1}, tc.size)
		res := c.Run(c.Honest(), func(ctx context.Context, env *runtime.Env) (interface{}, error) {
			var in []byte
			if env.ID == 0 {
				in = value
			}
			return RunCoded(ctx, env, "rbc/thr", 0, in, Options{Metrics: regs[env.ID]})
		})
		got, err := testkit.AgreeBytes(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, value) {
			t.Fatalf("|m|=%d: output differs from the input", tc.size)
		}
		for id, reg := range regs {
			modes, _ := reg.Snapshot("rbc_deliveries_total")
			if modes[tc.mode] != 1 || modes["classic"]+modes["coded"] != 1 {
				t.Fatalf("|m|=%d: party %d counted deliveries %v, want one %s", tc.size, id, modes, tc.mode)
			}
		}
		c.Close()
	}
}

// partialInit plays a Byzantine sender that gives the value to the first
// t+1 nonfaulty parties only: CINIT to parties 0..t, and its digest echoed
// and READY'd to everyone by every Byzantine party, which is what lets the
// t+1 holders' echoes reach the quorum. It returns the Byzantine ids.
func partialInit(c *testkit.Cluster, sess string, value []byte) []int {
	body := digestBodyOf(value)
	bad := lastT(c)
	sender := c.N - 1
	for to := 0; to <= c.T; to++ {
		c.Envs[sender].Send(to, sess, msgCInit, value)
	}
	for _, id := range bad {
		c.Envs[id].SendAll(sess, msgCEcho, body)
		c.Envs[id].SendAll(sess, msgCReady, body)
	}
	return bad
}

// TestCodedPartialInitTotality: the sender gives INIT to exactly t+1
// nonfaulty parties. Everyone outputs; the t nonfaulty parties left out
// pull once each and are answered by a holder, although the Byzantine
// parties they may ask first stay silent (the sender) or answer with bytes
// of another digest (at n = 7, party 5).
func TestCodedPartialInitTotality(t *testing.T) {
	for _, tc := range []struct{ n, tf int }{{4, 1}, {7, 2}} {
		tc := tc
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				c := testkit.New(tc.n, tc.tf, testkit.WithSeed(seed))
				sess := "rbc/partial"
				value := bytes.Repeat([]byte("for t+1 parties only "), 300) // ~6 KiB
				bad := partialInit(c, sess, value)
				for _, id := range bad[:len(bad)-1] {
					id := id
					go func() { _ = VouchWithoutValue(c.Ctx, c.Envs[id], sess) }()
				}
				regs := make([]*obs.Registry, tc.n)
				for id := range regs {
					regs[id] = obs.NewRegistry()
				}
				res := c.Run(c.Honest(bad...), func(ctx context.Context, env *runtime.Env) (interface{}, error) {
					return RunCoded(ctx, env, sess, tc.n-1, nil, Options{Metrics: regs[env.ID]})
				})
				got, err := testkit.AgreeBytes(res)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !bytes.Equal(got, value) {
					t.Fatalf("seed %d: output differs from the dispersed value", seed)
				}
				served := 0.0
				for _, id := range c.Honest(bad...) {
					want := 0.0
					if id > tc.tf {
						want = 1 // left out of INIT
					}
					if pulls := regs[id].Total("rbc_pulls_sent_total"); pulls != want {
						t.Fatalf("seed %d: party %d pulled %v times, want %v", seed, id, pulls, want)
					}
					if got := regs[id].Total("rbc_deliveries_total"); got != 1 {
						t.Fatalf("seed %d: party %d counted %v deliveries", seed, id, got)
					}
					served += regs[id].Total("rbc_pulls_served_total")
				}
				if served < float64(tc.tf) {
					t.Fatalf("seed %d: %v pulls served, want at least one per left-out party (%d)", seed, served, tc.tf)
				}
				c.Close()
			}
		})
	}
}

// TestCodedEquivocatingSenderAgreement: the sender disperses two values
// under two digests — v0 to all nonfaulty parties but one, v1 to that one —
// echoes v0's digest and READYs both. No two nonfaulty outputs differ, and
// the party that was shown v1 outputs v0 like everyone else, having pulled
// it. (The sender's echo has to pick a side: a peer's ECHO counts once per
// instance, so echoing both digests only makes the schedule choose.)
func TestCodedEquivocatingSenderAgreement(t *testing.T) {
	for _, tc := range []struct{ n, tf int }{{4, 1}, {7, 2}} {
		for seed := int64(0); seed < 10; seed++ {
			c := testkit.New(tc.n, tc.tf, testkit.WithSeed(seed))
			sess := "rbc/ceq"
			v0 := bytes.Repeat([]byte{0xa0}, 2000)
			v1 := bytes.Repeat([]byte{0xa1}, 2000)
			bad := lastT(c)
			sender, odd := tc.n-1, tc.n-tc.tf-1
			for to := 0; to < odd; to++ {
				c.Envs[sender].Send(to, sess, msgCInit, v0)
			}
			c.Envs[sender].Send(odd, sess, msgCInit, v1)
			for _, id := range bad {
				c.Envs[id].SendAll(sess, msgCEcho, digestBodyOf(v0))
				c.Envs[id].SendAll(sess, msgCReady, digestBodyOf(v1))
				c.Envs[id].SendAll(sess, msgCReady, digestBodyOf(v0))
			}
			res := c.Run(c.Honest(bad...), func(ctx context.Context, env *runtime.Env) (interface{}, error) {
				return RunCoded(ctx, env, sess, sender, nil, Options{})
			})
			got, err := testkit.AgreeBytes(res)
			if err != nil {
				t.Fatalf("n=%d seed %d: %v", tc.n, seed, err)
			}
			if !bytes.Equal(got, v0) {
				t.Fatalf("n=%d seed %d: output is not the value whose digest reached the echo quorum", tc.n, seed)
			}
			c.Close()
		}
	}
}

// TestCodedBroadcastByteBudget is the accounting behind the package's
// headline: one nonfaulty 64 KiB broadcast at n = 4 moves at most
// (n−1)·|m| + n²·128 bytes between distinct parties — the value crosses
// each link once and everything else is digests. FIFO delivery makes it
// exact: every CINIT is queued before any echo exists, so nobody pulls.
func TestCodedBroadcastByteBudget(t *testing.T) {
	const n, tf, size = 4, 1, 64 << 10
	c := testkit.New(n, tf, testkit.WithPolicy(network.FIFO{}))
	defer c.Close()
	value := make([]byte, size)
	rand.New(rand.NewSource(7)).Read(value)
	res := runCoded(t, c, "rbc/budget", 0, value, c.Honest(), Options{})
	got, err := testkit.AgreeBytes(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, value) {
		t.Fatal("output differs from the input")
	}
	var offParty uint64
	for _, l := range c.Router.Metrics().ByLink {
		if l.From != l.To {
			offParty += l.Bytes
		}
	}
	if budget := uint64((n-1)*size + n*n*128); offParty > budget {
		t.Fatalf("one 64 KiB broadcast moved %d bytes between parties, budget %d", offParty, budget)
	}
	if offParty < uint64((n-1)*size) {
		t.Fatalf("%d bytes between parties is less than n−1 copies of the value", offParty)
	}
}
