package rbc

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"asyncft/internal/field"
	"asyncft/internal/rs"
	"asyncft/internal/runtime"
	"asyncft/internal/testkit"
	"asyncft/internal/wire"
)

// startServers runs a pull service at every party in ids serving the
// given values, returning the handoff close function that ends them.
func startServers(c *testkit.Cluster, ids []int, session string, values map[digest][]byte, opts Options) func() {
	handoff := make(chan struct{})
	opts.Handoff = handoff
	lookup := func(d digest) ([]byte, bool) {
		v, ok := values[d]
		return v, ok
	}
	for _, id := range ids {
		id := id
		go ServePulls(c.Ctx, c.Envs[id], session, MaxValueSize, lookup, opts)
	}
	return func() { close(handoff) }
}

func TestPullFullValue(t *testing.T) {
	c := testkit.New(4, 1)
	defer c.Close()
	v := []byte("small snapshot chunk")
	d := sha256.Sum256(v)
	stop := startServers(c, []int{0, 1, 2}, "pull/full", map[digest][]byte{d: v}, Options{})
	defer stop()
	got, err := Pull(c.Ctx, c.Envs[3], "pull/full", d, MaxValueSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v) {
		t.Fatalf("pulled %q, want %q", got, v)
	}
}

func TestPullCodedFragments(t *testing.T) {
	c := testkit.New(4, 1)
	defer c.Close()
	v := bytes.Repeat([]byte("chunky"), 1024) // well above the coded threshold
	d := sha256.Sum256(v)
	stop := startServers(c, []int{0, 1, 2}, "pull/coded", map[digest][]byte{d: v}, Options{})
	defer stop()
	got, err := Pull(c.Ctx, c.Envs[3], "pull/coded", d, MaxValueSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v) {
		t.Fatal("coded pull reconstructed different bytes")
	}
}

// lyingPullServer answers every pull request with every flavor of garbage
// a Byzantine server can produce: wrong full bytes, a stale digest claim,
// a truncated fragment, and a lying total-length claim — all addressed to
// the requester's true reply session (the nonce travels in the request, so
// a Byzantine *server* knows it; only bystanders do not).
func lyingPullServer(c *testkit.Cluster, id int, session string, valueLen int) {
	env := c.Envs[id]
	go func() {
		for {
			msg, err := env.Recv(c.Ctx, session)
			if err != nil {
				return
			}
			if msg.Type != msgPull {
				continue
			}
			r := wire.NewReader(msg.Payload)
			db := r.BytesField(sha256.Size)
			nonce := r.Uint()
			if r.Err() != nil || len(db) != sha256.Size {
				continue
			}
			reply := replySession(session, msg.From, nonce)
			env.Send(msg.From, reply, msgPFull, []byte("wrong bytes entirely"))
			var stale wire.Writer
			staleD := sha256.Sum256([]byte("stale ledger state"))
			stale.BytesField(staleD[:])
			stale.Int(valueLen)
			stale.Elems(nil)
			env.Send(msg.From, reply, msgPFrag, stale.Bytes())
			var trunc wire.Writer
			trunc.BytesField(db)
			trunc.Int(valueLen)
			env.Send(msg.From, reply, msgPFrag, trunc.Bytes()) // fragment missing
			var corrupt wire.Writer
			corrupt.BytesField(db)
			corrupt.Int(valueLen + 7) // lying total length claim
			corrupt.Elems(nil)
			env.Send(msg.From, reply, msgPFrag, corrupt.Bytes())
		}
	}()
}

// TestPullRejectsByzantineServers: wrong full bytes, corrupted fragments,
// stale digest claims, and truncated fragments must all be ignored, with
// the pull completing off the remaining honest servers. The liar answers
// first (the honest servers start only after its garbage is in flight).
func TestPullRejectsByzantineServers(t *testing.T) {
	for _, coded := range []bool{false, true} {
		coded := coded
		t.Run(fmt.Sprintf("coded=%v", coded), func(t *testing.T) {
			c := testkit.New(4, 1)
			defer c.Close()
			size := 64
			if coded {
				size = 8192
			}
			v := bytes.Repeat([]byte("x"), size)
			for i := range v {
				v[i] = byte('a' + i%26)
			}
			d := sha256.Sum256(v)
			sess := runtime.SubSession("pull/byz", coded)
			lyingPullServer(c, 3, sess, len(v))
			done := make(chan struct{})
			var got []byte
			var pullErr error
			go func() {
				defer close(done)
				got, pullErr = Pull(c.Ctx, c.Envs[0], sess, d, MaxValueSize)
			}()
			// The honest servers join only after the liar has had the floor
			// to itself; their request copies are waiting in their mailboxes.
			time.Sleep(30 * time.Millisecond)
			stop := startServers(c, []int{1, 2}, sess, map[digest][]byte{d: v}, Options{})
			defer stop()
			<-done
			if pullErr != nil {
				t.Fatal(pullErr)
			}
			if !bytes.Equal(got, v) {
				t.Fatal("byzantine responses corrupted the pull")
			}
		})
	}
}

// TestServePullsAnswersAfterContextCancel is the serve-lifetime regression
// test: with a handoff in place, a pull that arrives around (or after) the
// protocol context's cancellation must still be answered — the helper's
// lifetime is the snapshot handoff's, not the context's.
func TestServePullsAnswersAfterContextCancel(t *testing.T) {
	c := testkit.New(4, 1)
	defer c.Close()
	v := []byte("value outliving its context")
	d := sha256.Sum256(v)
	handoff := make(chan struct{})
	defer close(handoff)
	sctx, cancel := context.WithCancel(c.Ctx)
	go ServePulls(sctx, c.Envs[0], "pull/linger", MaxValueSize,
		func(got digest) ([]byte, bool) {
			if got == d {
				return v, true
			}
			return nil, false
		}, Options{Handoff: handoff})
	cancel() // the protocol context is gone before any pull arrives
	got, err := Pull(c.Ctx, c.Envs[2], "pull/linger", d, MaxValueSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v) {
		t.Fatal("post-cancel pull returned wrong bytes")
	}
}

// TestRunCodedHandoffServesPullAfterCancel drives the same race through
// RunCoded itself: parties deliver a coded broadcast under a context that
// is cancelled immediately after delivery; a pull issued afterwards must
// still be answered because the handoff window is open.
func TestRunCodedHandoffServesPullAfterCancel(t *testing.T) {
	const n, tf = 4, 1
	c := testkit.New(n, tf, testkit.WithSeed(5))
	defer c.Close()
	v := bytes.Repeat([]byte("coded-handoff"), 600)
	handoff := make(chan struct{})
	defer close(handoff)
	opts := Options{Handoff: handoff}
	rctx, cancel := context.WithCancel(c.Ctx)
	sess := "rbc/handoff"
	res := c.Run(c.Honest(3), func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		var in []byte
		if env.ID == 0 {
			in = v
		}
		return RunCoded(rctx, env, sess, 0, in, opts)
	})
	if _, err := testkit.AgreeBytes(res); err != nil {
		t.Fatal(err)
	}
	cancel() // every deliverer's protocol context is now dead
	// Party 3 (which never participated) asks for a retransmission the way
	// a straggler whose pool failed would: CPULL on the broadcast session.
	d := sha256.Sum256(v)
	var w wire.Writer
	w.BytesField(d[:])
	c.Envs[3].Send(0, sess, msgCPull, w.Bytes())
	deadline, cancelWait := context.WithTimeout(c.Ctx, 10*time.Second)
	defer cancelWait()
	for {
		msg, err := c.Envs[3].Recv(deadline, sess)
		if err != nil {
			t.Fatalf("pull after cancellation went unanswered: %v", err)
		}
		if msg.Type == msgCFull && bytes.Equal(msg.Payload, v) {
			return
		}
	}
}

// TestPullSameDigestTwice: a requester may pull a digest it already
// fetched (a later range fetch can overlap an earlier one); the server
// must answer every valid request, not just the first.
func TestPullSameDigestTwice(t *testing.T) {
	c := testkit.New(4, 1)
	defer c.Close()
	v := bytes.Repeat([]byte("again"), 300)
	d := sha256.Sum256(v)
	stop := startServers(c, []int{0, 1, 2}, "pull/again", map[digest][]byte{d: v}, Options{})
	defer stop()
	for round := 0; round < 2; round++ {
		got, err := Pull(c.Ctx, c.Envs[3], "pull/again", d, MaxValueSize)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("round %d: wrong bytes", round)
		}
	}
}

// TestReconstructPoolErrorCorrection pins Pull's decode ladder at n = 4,
// t = 1: a wrong fragment at the lowest index poisons the clean-decode
// subset, so four fragments with one wrong need the Berlekamp–Welch
// escalation and get it; three with one wrong are beyond the error budget;
// and a pool that consistently encodes another value is refused by the
// digest check however many fragments agree.
func TestReconstructPoolErrorCorrection(t *testing.T) {
	const n, tf = 4, 1
	coder, err := rs.NewCoder(n, tf+1)
	if err != nil {
		t.Fatal(err)
	}
	v := bytes.Repeat([]byte("error-corrected chunk "), 200)
	d := sha256.Sum256(v)
	frags := coder.Encode(v)
	wrong := append([]field.Elem(nil), frags[0]...)
	for i := range wrong {
		wrong[i] = field.Add(wrong[i], 1)
	}
	pool := map[int][]field.Elem{0: wrong, 1: frags[1], 2: frags[2]}
	if _, ok := reconstructPool(coder, tf, d, len(v), pool); ok {
		t.Fatal("decoded three fragments with one wrong: beyond the error budget")
	}
	pool[3] = frags[3]
	got, ok := reconstructPool(coder, tf, d, len(v), pool)
	if !ok || !bytes.Equal(got, v) {
		t.Fatal("four fragments with one wrong did not decode to the value")
	}
	other := coder.Encode(bytes.Repeat([]byte{7}, len(v)))
	consistent := map[int][]field.Elem{0: other[0], 1: other[1], 2: other[2], 3: other[3]}
	if _, ok := reconstructPool(coder, tf, d, len(v), consistent); ok {
		t.Fatal("accepted a consistent pool encoding another value")
	}
}
