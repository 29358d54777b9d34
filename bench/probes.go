package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"asyncft/internal/acs"
	"asyncft/internal/ba"
	"asyncft/internal/field"
	"asyncft/internal/network"
	"asyncft/internal/rbc"
	"asyncft/internal/rs"
	"asyncft/internal/runtime"
	"asyncft/internal/shard"
	"asyncft/internal/statesync"
	"asyncft/internal/svss"
	"asyncft/internal/testkit"
	"asyncft/internal/transport"
	"asyncft/internal/weakcoin"
	"asyncft/internal/wire"
)

// probeTime is how long each isolated layer probe runs. The probes time
// public functions of one layer directly, with no cluster around them, so
// a layer's own cost can be told apart from what the stack does with it.
// They do not depend on the workload.
const probeTime = 250 * time.Millisecond

// repeat calls f until probeTime has passed and returns the calls made and
// the time they took.
func repeat(f func()) (int, time.Duration) {
	t0 := time.Now()
	n := 0
	for time.Since(t0) < probeTime {
		f()
		n++
	}
	return n, time.Since(t0)
}

// simCluster is a 4-party in-memory cluster delivering in FIFO order.
func simCluster() *testkit.Cluster {
	return testkit.New(numParties, numFaults, testkit.WithPolicy(network.FIFO{}), testkit.WithTimeout(time.Minute))
}

// everyParty runs fn at all parties of c and reports the first error.
func everyParty(c *testkit.Cluster, fn func(ctx context.Context, env *runtime.Env) error) error {
	res := c.Run(c.Honest(), func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		return nil, fn(ctx, env)
	})
	for id, r := range res {
		if r.Err != nil {
			return fmt.Errorf("party %d: %w", id, r.Err)
		}
	}
	return nil
}

// repeatAtEveryParty calls fn at all four parties of an in-memory cluster,
// under a fresh session per call, until probeTime has passed.
func repeatAtEveryParty(label string, fn func(ctx context.Context, env *runtime.Env, session string) error) (int, time.Duration, error) {
	c := simCluster()
	defer c.Close()
	var first error
	i := 0
	n, d := repeat(func() {
		sess := runtime.SubSession(label, i)
		i++
		err := everyParty(c, func(ctx context.Context, env *runtime.Env) error { return fn(ctx, env, sess) })
		if err != nil && first == nil {
			first = err
		}
	})
	return n, d, first
}

// runProbes runs every probe and returns its metric. A probe that fails
// reports 0 and says why on standard error; the workload's own numbers
// stand regardless.
func runProbes() map[string]float64 {
	out := make(map[string]float64)
	for _, p := range []struct {
		name string
		run  func() (float64, error)
	}{
		{"transport.probe_frames_s", probeTransport},
		{"runtime.probe_dispatch_ns", probeDispatch},
		{"rbc.probe_coded_mb_s", probeCodedRBC},
		{"ba.probe_bca_ms", probeBCA},
		{"shard.probe_codec_ns_per_op", probeCodec},
		{"acs.probe_setslot_us", probeSetSlot},
		{"rs.probe_encode_mb_s", probeRSEncode},
		{"rs.probe_reconstruct_mb_s", probeRSReconstruct},
		{"field.probe_interpolate_ns", probeInterpolate},
		{"svss.probe_share_rec_ms", probeSVSS},
		{"weakcoin.probe_flip_ms", probeWeakcoin},
		{"statesync.probe_slots_s", probeStatesync},
	} {
		v, err := p.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: probe %s: %v\n", p.name, err)
		}
		out[p.name] = v
	}
	return out
}

// probeTransport: 64-byte envelopes from one TCP endpoint to another, in
// bursts the receiver must absorb before the next is sent.
func probeTransport() (float64, error) {
	var got atomic.Int64
	wake := make(chan struct{}, 1)
	recv, err := transport.Listen(1, map[int]string{1: "127.0.0.1:0"}, func(wire.Envelope) {
		got.Add(1)
		select {
		case wake <- struct{}{}:
		default:
		}
	})
	if err != nil {
		return 0, err
	}
	defer recv.Close()
	send, err := transport.Listen(0, map[int]string{0: "127.0.0.1:0", 1: recv.Addr()}, func(wire.Envelope) {})
	if err != nil {
		return 0, err
	}
	defer send.Close()
	env := wire.Envelope{From: 0, To: 1, Session: "probe/transport", Type: 1, Payload: make([]byte, 64)}
	const burst = 1024
	var sent int64
	n, d := repeat(func() {
		for i := 0; i < burst; i++ {
			send.Send(env)
		}
		sent += burst
		for got.Load() < sent {
			<-wake
		}
	})
	return float64(n*burst) / d.Seconds(), nil
}

// probeDispatch: Node.Dispatch into 64 sessions' mailboxes, drained between
// rounds.
func probeDispatch() (float64, error) {
	node := runtime.NewNode(0, numParties, numFaults)
	defer node.Close()
	const sessions = 64
	envs := make([]wire.Envelope, sessions)
	for i := range envs {
		envs[i] = wire.Envelope{From: 1, To: 0, Session: runtime.SubSession("probe/dispatch", i), Type: 1, Payload: make([]byte, 64)}
	}
	const round = 4096
	n, d := repeat(func() {
		for i := 0; i < round; i++ {
			node.Dispatch(envs[i%sessions])
		}
		for i := range envs {
			box := node.Mailbox(envs[i].Session)
			for {
				if _, ok := box.TryRecv(); !ok {
					break
				}
			}
		}
	})
	// The drain is part of the measured time; it is the cheaper half.
	return float64(d.Nanoseconds()) / float64(n*round), nil
}

// probeCodedRBC: one 64 KiB coded broadcast per call, all four parties.
func probeCodedRBC() (float64, error) {
	value := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(value)
	n, d, err := repeatAtEveryParty("probe/rbc", func(ctx context.Context, env *runtime.Env, sess string) error {
		var in []byte
		if env.ID == 0 {
			in = value
		}
		_, err := rbc.RunCoded(ctx, env, sess, 0, in, rbc.Options{})
		return err
	})
	return float64(n*len(value)) / 1e6 / d.Seconds(), err
}

// probeBCA: one BCA-engine binary agreement per call on split inputs with
// the local coin, as the ledger's fallback runs it.
func probeBCA() (float64, error) {
	n, d, err := repeatAtEveryParty("probe/ba", func(ctx context.Context, env *runtime.Env, sess string) error {
		_, err := ba.Run(ctx, env, sess, byte(env.ID%2), ba.LocalCoin(env), ba.Options{UseBCA: true})
		return err
	})
	return float64(d.Nanoseconds()) / 1e6 / float64(n), err
}

// probeOps builds a 64-op batch of 32-byte payloads.
func probeOps(origin int) []shard.Op {
	ops := make([]shard.Op, 64)
	for i := range ops {
		ops[i] = shard.Op{Origin: origin, Seq: i, Stream: []byte("stream00"), Payload: make([]byte, 32)}
	}
	return ops
}

// probeCodec: encode four 64-op batches and flatten them back, per op.
func probeCodec() (float64, error) {
	var batches [numParties][]shard.Op
	for p := range batches {
		batches[p] = probeOps(p)
	}
	flat := 0
	n, d := repeat(func() {
		entries := make([]acs.Entry, numParties)
		for p := range batches {
			entries[p] = acs.Entry{Party: p, Payload: shard.EncodeOps(batches[p])}
		}
		flat = len(shard.SlotOps(entries))
	})
	if flat != 64*numParties {
		return 0, fmt.Errorf("flattened %d ops, want %d", flat, 64*numParties)
	}
	return float64(d.Nanoseconds()) / float64(n*flat), nil
}

// probeSetSlot: Store.SetSlot of a 256-op slot, digest chain included.
func probeSetSlot() (float64, error) {
	entries := make([]acs.Entry, numParties)
	for p := range entries {
		entries[p] = acs.Entry{Party: p, Payload: shard.EncodeOps(probeOps(p))}
	}
	store := acs.NewStore()
	k := 0
	n, d := repeat(func() {
		slot := make([]acs.Entry, len(entries))
		for i, e := range entries {
			e.Slot = k
			slot[i] = e
		}
		store.SetSlot(k, slot)
		k++
	})
	if store.Next() != n {
		return 0, fmt.Errorf("store cursor %d after %d slots", store.Next(), n)
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(n), nil
}

func probeRSEncode() (float64, error) {
	coder, err := rs.NewCoder(numParties, numFaults+1)
	if err != nil {
		return 0, err
	}
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(2)).Read(data)
	n, d := repeat(func() { coder.Encode(data) })
	return float64(n*len(data)) / 1e6 / d.Seconds(), nil
}

func probeRSReconstruct() (float64, error) {
	coder, err := rs.NewCoder(numParties, numFaults+1)
	if err != nil {
		return 0, err
	}
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(3)).Read(data)
	frags := coder.Encode(data)
	have := map[int][]field.Elem{1: frags[1], 3: frags[3]}
	var rerr error
	n, d := repeat(func() {
		if _, e := coder.ReconstructClean(len(data), have); e != nil {
			rerr = e
		}
	})
	return float64(n*len(data)) / 1e6 / d.Seconds(), rerr
}

// probeInterpolate: the degree-t interpolation SVSS rows go through, over
// the n-point evaluation domain.
func probeInterpolate() (float64, error) {
	dom := field.DomainFor(numParties)
	rng := rand.New(rand.NewSource(4))
	poly := field.RandomPoly(rng, numFaults, field.Random(rng))
	pts := make([]field.Point, numFaults+1)
	for i := range pts {
		pts[i] = field.Point{X: field.X(i), Y: poly.Eval(field.X(i))}
	}
	var got field.Poly
	n, d := repeat(func() {
		for i := 0; i < 1024; i++ {
			got = dom.Interpolate(pts)
		}
	})
	if !got.Equal(poly) {
		return 0, fmt.Errorf("interpolation returned a different polynomial")
	}
	return float64(d.Nanoseconds()) / float64(n*1024), nil
}

// probeSVSS: one share phase plus reconstruction per call.
func probeSVSS() (float64, error) {
	n, d, err := repeatAtEveryParty("probe/svss", func(ctx context.Context, env *runtime.Env, sess string) error {
		sh, err := svss.RunShare(ctx, env, sess, 0, field.New(42))
		if err != nil {
			return err
		}
		v, err := svss.RunRec(ctx, env, sh, svss.Options{})
		if err == nil && v != field.New(42) {
			err = fmt.Errorf("reconstructed %v, dealt 42", v)
		}
		return err
	})
	return float64(d.Nanoseconds()) / 1e6 / float64(n), err
}

// probeWeakcoin: one weak coin flip per call.
func probeWeakcoin() (float64, error) {
	n, d, err := repeatAtEveryParty("probe/wc", func(ctx context.Context, env *runtime.Env, sess string) error {
		// ctx is the cluster's lifetime, so it serves as the helper context too.
		_, err := weakcoin.Flip(ctx, ctx, env.Fork(sess), sess, svss.Options{})
		return err
	})
	return float64(d.Nanoseconds()) / 1e6 / float64(n), err
}

// probeStatesync: a fresh replica catches up 256 slots from three servers
// per call.
func probeStatesync() (float64, error) {
	c := simCluster()
	defer c.Close()
	const slots = 256
	entries := func(k int) []acs.Entry {
		out := make([]acs.Entry, 3)
		for p := range out {
			out[p] = acs.Entry{Slot: k, Party: p, Payload: []byte(fmt.Sprintf("probe/p%d/s%d", p, k))}
		}
		return out
	}
	stores := make([]*acs.Store, 3)
	for id := range stores {
		stores[id] = acs.NewStore()
		for k := 0; k < slots; k++ {
			stores[id].SetSlot(k, entries(k))
		}
	}
	var err error
	i := 0
	n, d := repeat(func() {
		name := fmt.Sprint("probe", i)
		i++
		ctx, cancel := context.WithCancel(c.Ctx)
		defer cancel()
		for id, st := range stores {
			go statesync.Serve(ctx, c.Envs[id], name, st, statesync.Options{})
		}
		fresh := acs.NewStore()
		if e := statesync.Sync(ctx, c.Envs[3], name, fresh, slots, statesync.Options{}); e != nil && err == nil {
			err = e
		}
	})
	return float64(n*slots) / d.Seconds(), err
}
