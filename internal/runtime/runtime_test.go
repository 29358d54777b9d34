package runtime

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"

	"asyncft/internal/network"
	"asyncft/internal/obs"
	"asyncft/internal/wire"
)

func TestMailboxBuffersBeforeReceiver(t *testing.T) {
	nd := NewNode(0, 4, 1)
	// Message arrives before any protocol instance opened the session.
	nd.Dispatch(wire.Envelope{From: 1, To: 0, Session: "early", Type: 7})
	env, err := nd.Mailbox("early").Recv(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != 7 {
		t.Fatalf("got %v", env)
	}
}

func TestMailboxFIFO(t *testing.T) {
	nd := NewNode(0, 4, 1)
	for i := 0; i < 5; i++ {
		nd.Dispatch(wire.Envelope{From: 1, To: 0, Session: "s", Type: uint8(i)})
	}
	for i := 0; i < 5; i++ {
		env, err := nd.Mailbox("s").Recv(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if env.Type != uint8(i) {
			t.Fatalf("order violated at %d: %d", i, env.Type)
		}
	}
}

func TestRecvBlocksUntilPush(t *testing.T) {
	nd := NewNode(0, 4, 1)
	done := make(chan wire.Envelope, 1)
	go func() {
		env, err := nd.Mailbox("s").Recv(context.Background())
		if err == nil {
			done <- env
		}
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("Recv returned before push")
	default:
	}
	nd.Dispatch(wire.Envelope{From: 1, To: 0, Session: "s", Type: 3})
	select {
	case env := <-done:
		if env.Type != 3 {
			t.Fatalf("got %v", env)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not wake")
	}
}

func TestRecvContextCancel(t *testing.T) {
	nd := NewNode(0, 4, 1)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := nd.Mailbox("s").Recv(ctx)
		errc <- err
	}()
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not observe cancellation")
	}
}

func TestNodeCloseWakesReceivers(t *testing.T) {
	nd := NewNode(0, 4, 1)
	errc := make(chan error, 1)
	go func() {
		_, err := nd.Mailbox("s").Recv(context.Background())
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	nd.Close()
	select {
	case err := <-errc:
		if err != ErrClosed {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close did not wake receiver")
	}
	// Mailboxes created after Close are born closed.
	if _, err := nd.Mailbox("new").Recv(context.Background()); err != ErrClosed {
		t.Fatalf("post-close mailbox err = %v", err)
	}
}

func TestConcurrentRecvSingleDelivery(t *testing.T) {
	nd := NewNode(0, 4, 1)
	const total = 100
	var mu sync.Mutex
	seen := map[uint8]int{}
	var wg sync.WaitGroup
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				env, err := nd.Mailbox("s").Recv(ctx)
				if err != nil {
					return
				}
				mu.Lock()
				seen[env.Type]++
				if len(seen) == total {
					nd.Close()
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < total; i++ {
		nd.Dispatch(wire.Envelope{From: 1, To: 0, Session: "s", Type: uint8(i)})
	}
	wg.Wait()
	for i := 0; i < total; i++ {
		if seen[uint8(i)] != 1 {
			t.Fatalf("message %d seen %d times", i, seen[uint8(i)])
		}
	}
}

func TestShunSemantics(t *testing.T) {
	nd := NewNode(0, 4, 1)
	// Open a session before the shun: it keeps accepting.
	pre := nd.Mailbox("pre")
	nd.Shun(2)
	if !nd.Shunned(2) {
		t.Fatal("Shunned(2) = false")
	}
	nd.Dispatch(wire.Envelope{From: 2, To: 0, Session: "pre", Type: 1})
	if env, err := pre.Recv(context.Background()); err != nil || env.Type != 1 {
		t.Fatalf("pre-shun session rejected message: %v %v", env, err)
	}
	// Sessions opened after the shun drop the peer's traffic...
	nd.Dispatch(wire.Envelope{From: 2, To: 0, Session: "post", Type: 2}) // creates box post-shun: dropped
	nd.Dispatch(wire.Envelope{From: 1, To: 0, Session: "post", Type: 3})
	env, err := nd.Mailbox("post").Recv(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if env.From == 2 {
		t.Fatal("shunned party's message delivered in new session")
	}
	if env.Type != 3 {
		t.Fatalf("got %v", env)
	}
}

func TestShunIdempotent(t *testing.T) {
	nd := NewNode(0, 4, 1)
	nd.Shun(1)
	nd.Shun(1)
	nd.Shun(2)
	if got := nd.ShunCount(); got != 2 {
		t.Fatalf("ShunCount = %d, want 2", got)
	}
}

func TestEnvSendAllThroughRouter(t *testing.T) {
	const n = 4
	r := network.NewRouter(n, network.FIFO{})
	defer r.Close()
	nodes := make([]*Node, n)
	envs := make([]*Env, n)
	for i := 0; i < n; i++ {
		nodes[i] = NewNode(i, n, 1)
		r.Register(i, nodes[i].Dispatch)
		envs[i] = NewEnv(i, n, 1, nodes[i], r, int64(i))
	}
	envs[0].SendAll("hello", 1, []byte{42})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		env, err := envs[i].Recv(ctx, "hello")
		if err != nil {
			t.Fatalf("party %d: %v", i, err)
		}
		if env.From != 0 || len(env.Payload) != 1 || env.Payload[0] != 42 {
			t.Fatalf("party %d got %v", i, env)
		}
	}
}

func TestEnvForkIndependentRandomness(t *testing.T) {
	nd := NewNode(0, 4, 1)
	e := NewEnv(0, 4, 1, nd, nil, 99)
	a := e.Fork("a")
	b := e.Fork("b")
	// Streams should differ from each other (overwhelmingly likely).
	same := true
	for i := 0; i < 8; i++ {
		if a.Rand.Uint64() != b.Rand.Uint64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("forked randomness streams identical")
	}
	if e.Quorum() != 3 {
		t.Fatalf("Quorum = %d", e.Quorum())
	}
}

func TestSubSessionBuilder(t *testing.T) {
	if got := SubSession("cf", "r", 3, "svss", 2); got != "cf/r/3/svss/2" {
		t.Fatalf("Sub = %q", got)
	}
}

// The session string is the contract (mailbox keys, the wire, the
// sessionfmt analyzer), not how it is built: for every part type the tree
// passes, SubSession is the parent and each part's fmt.Sprint joined by "/".
func TestSubSessionMatchesSprint(t *testing.T) {
	type label string
	cases := [][]interface{}{
		nil,
		{"cs"},
		{"ba", 3, "wc", 12},
		{0}, {7}, {-1}, {255}, {256}, {1 << 40},
		{"", ""},
		{"r", 2, uint64(18446744073709551615)}, // statesync / rbc.Pull nonces
		{"e12", 65536, true},                   // experiments pass a bool
		{int64(-5), uint8(9), int32(4), uint(3)},
		{"e16", 7, label("bca")},
		{"a/b", "c"},
		{"long-enough-to-outgrow-the-size-guess", 1234567890123, "x", 99999999},
	}
	for _, parent := range []string{"", "bench/fba", "run/s/0/slot/12"} {
		for _, parts := range cases {
			want := parent
			for _, p := range parts {
				want += "/" + fmt.Sprint(p)
			}
			if got := SubSession(parent, parts...); got != want {
				t.Errorf("SubSession(%q, %v) = %q, want %q", parent, parts, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = SubSession("bench/fba/12/cs", "ba", 3, "wc", 1) }); n > 2 {
		t.Errorf("SubSession of string and small int parts allocates %v times, want the string (and its parts slice) only", n)
	}
}

// A mailbox that alternates push and pop keeps its backing array: steady
// traffic allocates nothing, at any standing depth.
func TestMailboxSteadyTrafficDoesNotAllocate(t *testing.T) {
	for _, depth := range []int{0, 1, 5} {
		b := newMailbox("s", 1)
		for i := 0; i < depth; i++ {
			b.push(wire.Envelope{Type: uint8(i)})
		}
		for i := 0; i < 64; i++ { // reach the steady capacity
			b.push(wire.Envelope{})
			b.TryRecv()
		}
		if n := testing.AllocsPerRun(1000, func() {
			b.push(wire.Envelope{Type: 9})
			if _, ok := b.TryRecv(); !ok {
				t.Fatal("empty after push")
			}
		}); n != 0 {
			t.Errorf("standing depth %d: %v allocations per push/pop, want 0", depth, n)
		}
		if got := cap(b.items); got > 4*(depth+1) {
			t.Errorf("standing depth %d: backing array grew to %d slots", depth, got)
		}
	}
}

// The head index changes neither order nor depth accounting, and a popped
// slot no longer pins its payload.
func TestMailboxHeadIndexKeepsFIFOAndDropsPayloads(t *testing.T) {
	reg := obs.NewRegistry()
	nd := NewNode(0, 4, 1)
	defer nd.Close()
	nd.Instrument(reg)
	b := nd.Mailbox("s")
	next, want := 0, 0
	rng := rand.New(rand.NewSource(5))
	peak := 0
	for step := 0; step < 5000; step++ {
		if rng.Intn(5) < 3 {
			nd.Dispatch(wire.Envelope{From: 1, Session: "s", Payload: []byte{byte(next), byte(next >> 8)}})
			next++
			if next-want > peak {
				peak = next - want
			}
		} else if env, ok := b.TryRecv(); ok {
			if got := int(env.Payload[0]) | int(env.Payload[1])<<8; got != want {
				t.Fatalf("step %d: popped message %d, want %d", step, got, want)
			}
			want++
		} else if want != next {
			t.Fatalf("step %d: mailbox empty with %d messages outstanding", step, next-want)
		}
		b.mu.Lock()
		for i, e := range b.items {
			if (i < b.head) != (e.Payload == nil) {
				t.Fatalf("step %d: slot %d (head %d) payload pinned = %v", step, i, b.head, e.Payload != nil)
			}
		}
		for _, e := range b.items[len(b.items):cap(b.items)] {
			if e.Payload != nil {
				t.Fatalf("step %d: a slot past the queue still pins a payload", step)
			}
		}
		b.mu.Unlock()
	}
	if v, _ := reg.Snapshot("runtime_mailbox_depth_highwater"); int(v[""]) != peak {
		t.Fatalf("depth high-water = %v, want the peak number queued %d", v[""], peak)
	}
}

// RecvUntil gives up when the caller's timer fires, prefers a queued
// message to a timer that already fired, and otherwise is Recv.
func TestRecvUntil(t *testing.T) {
	nd := NewNode(0, 4, 1)
	defer nd.Close()
	b := nd.Mailbox("s")
	timer := time.NewTimer(time.Millisecond)
	defer timer.Stop()
	if _, err := b.RecvUntil(context.Background(), timer.C); err != ErrExpired {
		t.Fatalf("empty mailbox, fired timer: %v, want ErrExpired", err)
	}
	timer.Reset(time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	nd.Dispatch(wire.Envelope{From: 1, Session: "s", Type: 4})
	if env, err := b.RecvUntil(context.Background(), timer.C); err != nil || env.Type != 4 {
		t.Fatalf("queued message, fired timer: %v %v, want the message", env, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.RecvUntil(ctx, nil); err != context.Canceled {
		t.Fatalf("cancelled context: %v", err)
	}
	nd.Release("s")
	if _, err := b.RecvUntil(context.Background(), nil); err != ErrClosed {
		t.Fatalf("released mailbox: %v, want ErrClosed", err)
	}
}

func TestDispatchInternsSessionStrings(t *testing.T) {
	nd := NewNode(0, 4, 1)
	defer nd.Close()
	// Two envelopes whose session strings are equal but distinct allocations
	// (as every wire-decoded string is).
	s1 := string([]byte("proto/hot/session"))
	s2 := string([]byte("proto/hot/session"))
	nd.Dispatch(wire.Envelope{From: 1, To: 0, Session: s1, Type: 1})
	nd.Dispatch(wire.Envelope{From: 2, To: 0, Session: s2, Type: 1})
	box := nd.Mailbox("proto/hot/session")
	ctx := context.Background()
	a, err := box.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := box.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Both retained envelopes must share one canonical string instance.
	if unsafe.StringData(a.Session) != unsafe.StringData(b.Session) {
		t.Fatal("sessions not interned: retained envelopes hold distinct string instances")
	}
	if a.Session != "proto/hot/session" {
		t.Fatalf("interning changed the session value: %q", a.Session)
	}
}
