package rbc

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"

	"asyncft/internal/runtime"
	"asyncft/internal/wire"
)

const simSession = "rbc/sim"

// sim drives the state machines of one broadcast instance single-threaded:
// every send lands in one pending list and the caller picks the envelope
// handled next, so a schedule — a Byzantine party's injections included —
// is a pure function of the test's choices. deliver checks the package's
// invariants after every step.
type sim struct {
	tb      testing.TB
	n, tf   int
	sender  int
	states  []*state // nil at Byzantine parties
	pending []wire.Envelope
	out     map[int][]byte
}

// Send implements runtime.Sender.
func (s *sim) Send(env wire.Envelope) { s.pending = append(s.pending, env) }

func newSim(tb testing.TB, n, tf, sender int, byzantine ...int) *sim {
	s := &sim{tb: tb, n: n, tf: tf, sender: sender, states: make([]*state, n), out: make(map[int][]byte)}
	for id := range s.states {
		s.states[id] = newState(runtime.NewEnv(id, n, tf, nil, s, int64(id)), simSession, sender, Options{})
	}
	for _, id := range byzantine {
		s.states[id] = nil
	}
	return s
}

// broadcast is the honest sender's first step, as RunCoded takes it.
func (s *sim) broadcast(value []byte, opts Options) {
	s.states[s.sender].env.SendAll(simSession, opts.initType(value), value)
}

// inject queues a message from a Byzantine party.
func (s *sim) inject(from, to int, typ uint8, payload []byte) {
	s.Send(wire.Envelope{From: from, To: to, Session: simSession, Type: typ, Payload: payload})
}

// injectAll queues the same Byzantine message to every party.
func (s *sim) injectAll(from int, typ uint8, payload []byte) {
	for to := 0; to < s.n; to++ {
		s.inject(from, to, typ, payload)
	}
}

// retained counts the values an instance holds.
func (st *state) retained() int {
	held := 0
	for _, tl := range st.tallies {
		if tl.held {
			held++
		}
	}
	return held
}

// deliver hands pending[i] to its recipient. After the step the recipient
// retains at most 2n values, and anything it output hashes to a digest with
// a READY quorum and equals every other nonfaulty output.
func (s *sim) deliver(i int) {
	msg := s.pending[i]
	s.pending = append(s.pending[:i], s.pending[i+1:]...)
	if msg.To < 0 || msg.To >= s.n || s.states[msg.To] == nil {
		return
	}
	st := s.states[msg.To]
	out, done := st.handle(msg)
	if held := st.retained(); held > 2*s.n {
		s.tb.Fatalf("party %d retains %d values, bound is 2n = %d", msg.To, held, 2*s.n)
	}
	if !done {
		return
	}
	if tl := st.tallies[sha256.Sum256(out)]; tl == nil || tl.readies < 2*s.tf+1 {
		s.tb.Fatalf("party %d output a value whose digest has no READY quorum", msg.To)
	}
	for id, prev := range s.out {
		if !bytes.Equal(prev, out) {
			s.tb.Fatalf("parties %d and %d output different values", id, msg.To)
		}
	}
	s.out[msg.To] = append([]byte(nil), out...)
}

// drain delivers everything pending, and everything that causes, in order.
func (s *sim) drain() {
	for len(s.pending) > 0 {
		s.deliver(0)
	}
}

// honest lists the nonfaulty parties.
func (s *sim) honest() []int {
	var ids []int
	for id, st := range s.states {
		if st != nil {
			ids = append(ids, id)
		}
	}
	return ids
}

func digestBodyOf(v []byte) []byte { return appendDigest(nil, sha256.Sum256(v)) }

func patterned(size int, salt byte) []byte {
	v := make([]byte, size)
	for i := range v {
		v[i] = salt + byte(i*7)
	}
	return v
}

// runScript interprets script as one adversarial schedule of a broadcast
// instance: the first byte picks (n, t), whether the sender is Byzantine
// and whether the value is above the digest threshold; the rest alternates
// "deliver the k-th pending envelope" with "a Byzantine party sends this
// typed message". Every step is checked by sim.deliver; at the end, with
// every message delivered, a nonfaulty sender's value is output everywhere
// and a Byzantine sender's broadcast is output everywhere or nowhere.
func runScript(tb testing.TB, script []byte) {
	next := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b)
	}
	shape := next()
	n, tf := 4, 1
	if shape&1 != 0 {
		n, tf = 7, 2
	}
	byzSender := shape&2 != 0
	size := 24
	if shape&4 != 0 {
		size = DefaultCodedThreshold + 88
	}
	var byz []int
	for id := n - tf; id < n; id++ {
		byz = append(byz, id)
	}
	sender := 0
	if byzSender {
		sender = n - 1
	}
	value, other := patterned(size, 1), patterned(size, 2)
	s := newSim(tb, n, tf, sender, byz...)
	if !byzSender {
		s.broadcast(value, Options{})
	}
	fresh := 0
	for len(script) > 0 {
		if op := next(); op&1 == 0 && len(s.pending) > 0 {
			s.deliver(next() % len(s.pending))
			continue
		}
		from := byz[next()%tf]
		switch sel := next(); {
		case sel == 255:
			from = -1
		case sel == 254:
			from = n
		}
		to, typ := next()%n, uint8(next()%10)
		var payload []byte
		switch next() % 6 {
		case 0:
			payload = value
		case 1:
			payload = other
		case 2:
			payload = digestBodyOf(value)
		case 3:
			payload = digestBodyOf(other)
		case 4:
			k := next()
			if k > len(script) {
				k = len(script)
			}
			payload, script = script[:k], script[k:]
		case 5:
			fresh++
			payload = append(patterned(size, 3), byte(fresh), byte(fresh>>8))
		}
		s.inject(from, to, typ, payload)
	}
	s.drain()
	switch {
	case !byzSender:
		for _, id := range s.honest() {
			if !bytes.Equal(s.out[id], value) {
				tb.Fatalf("party %d did not output the nonfaulty sender's value", id)
			}
		}
	case len(s.out) > 0 && len(s.out) != n-tf:
		tb.Fatalf("totality: %d of %d nonfaulty parties output", len(s.out), n-tf)
	}
}

// FuzzHandle throws arbitrary typed messages from up to t Byzantine peers
// into a broadcast under an arbitrary delivery order: no panic, no output
// whose digest differs from its READY quorum's, no two outputs that differ,
// at most 2n retained values, and validity and totality once every message
// is delivered.
func FuzzHandle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 0, 0, 1, 0, 2, 0, 3})
	f.Add([]byte{5, 1, 0, 7, 3, 5, 2, 0, 0, 1, 1, 0, 1, 6, 3})
	f.Add([]byte{6, 1, 0, 0, 0, 4, 0, 1, 0, 0, 1, 4, 0, 1, 0, 0, 2, 4, 1, 1, 0, 0, 0, 5, 2})
	f.Add([]byte{2, 1, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 1, 1, 0, 0, 2, 1, 1, 1, 0, 0, 0, 2, 0})
	f.Fuzz(func(t *testing.T, script []byte) { runScript(t, script) })
}

// TestHandleRandomSchedules runs FuzzHandle's invariants over seeded random
// scripts, so plain `go test` covers every shape (both quorum sizes, both
// flavors, nonfaulty and Byzantine sender) under thousands of schedules.
func TestHandleRandomSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 4000; trial++ {
		script := make([]byte, 1+rng.Intn(400))
		rng.Read(script)
		script[0] = byte(trial)
		runScript(t, script)
	}
}

// TestFloodRetainsAtMost2n: one Byzantine peer streams distinct values in
// every message type that can carry one, before and during a nonfaulty
// broadcast. Each nonfaulty instance ends up holding at most 2n values
// (sim.deliver checks it after every message) — in fact two here, the
// flooder's one ECHO and one READY, plus the broadcast value — and outputs
// the sender's value.
func TestFloodRetainsAtMost2n(t *testing.T) {
	for _, size := range []int{24, 4096} {
		const n, tf, flooder = 4, 1, 3
		s := newSim(t, n, tf, 0, flooder)
		value := patterned(size, 1)
		flood := func(round int) {
			for k := 0; k < 50; k++ {
				junk := append(patterned(size, 9), byte(round), byte(k))
				s.injectAll(flooder, msgEcho, junk)
				s.injectAll(flooder, msgReady, append(junk, 1))
				s.injectAll(flooder, msgCFull, append(junk, 2))
				s.injectAll(flooder, msgCInit, append(junk, 3))
				s.injectAll(flooder, msgCEcho, digestBodyOf(append(junk, 4)))
				s.injectAll(flooder, msgCReady, digestBodyOf(append(junk, 5)))
				s.injectAll(flooder, msgCPull, digestBodyOf(append(junk, 6)))
			}
		}
		flood(0)
		s.broadcast(value, Options{})
		for step := 0; len(s.pending) > 0; step++ {
			if step == 40 {
				flood(1)
			}
			s.deliver(0)
		}
		for _, id := range s.honest() {
			if !bytes.Equal(s.out[id], value) {
				t.Fatalf("|m|=%d: party %d did not output the sender's value under flood", size, id)
			}
			if held := s.states[id].retained(); held > 3 {
				t.Fatalf("|m|=%d: party %d retains %d values, want ≤ 3", size, id, held)
			}
			if digests := len(s.states[id].tallies); digests > 2*n+1 {
				t.Fatalf("|m|=%d: party %d tallies %d digests, want ≤ 2n+1", size, id, digests)
			}
		}
	}
}

// TestPullSkipsSilentAndLyingResponders scripts the puller's worst case at
// n = 7, t = 2: the first t parties whose echo of the digest it sees are the
// Byzantine ones, so its first t pulls go to a party that stays silent and
// one that answers with bytes of another digest. It asks exactly one more
// party — the next echo it receives — and no one after t+1; a reply from a
// party it did not ask, a second reply from one it did, and the wrong bytes
// are all refused; the nonfaulty holder's reply is output.
func TestPullSkipsSilentAndLyingResponders(t *testing.T) {
	const n, tf = 7, 2
	s := newSim(t, n, tf, 6, 5, 6)
	value, other := patterned(2048, 1), patterned(2048, 2)
	body := digestBodyOf(value)
	puller := s.states[0]
	feed := func(from int, typ uint8, payload []byte) ([]byte, bool) {
		return puller.handle(wire.Envelope{From: from, To: 0, Session: simSession, Type: typ, Payload: payload})
	}
	pullsTo := func() []int {
		var to []int
		for _, env := range s.pending {
			if env.Type == msgCPull {
				if !bytes.Equal(env.Payload, body) {
					t.Fatalf("CPULL names another digest")
				}
				to = append(to, env.To)
			}
		}
		return to
	}
	feed(5, msgCEcho, body)
	feed(6, msgCEcho, body)
	for from := 1; from <= 2*tf+1; from++ {
		feed(from, msgCReady, body)
	}
	if got := pullsTo(); len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Fatalf("READY quorum without the value pulled from %v, want the two echoers [5 6]", got)
	}
	feed(1, msgCEcho, body)
	feed(2, msgCEcho, body)
	if got := pullsTo(); len(got) != tf+1 || got[2] != 1 {
		t.Fatalf("pulled from %v, want exactly t+1 parties ending with 1", got)
	}
	for _, c := range []struct {
		name    string
		from    int
		payload []byte
	}{
		{"bytes of another digest from an asked party", 5, other},
		{"a second reply from the same party", 5, value},
		{"the value from a party that was not asked", 2, value},
	} {
		if _, done := feed(c.from, msgCFull, c.payload); done || puller.retained() != 0 {
			t.Fatalf("accepted %s", c.name)
		}
	}
	out, done := feed(1, msgCFull, value)
	if !done || !bytes.Equal(out, value) {
		t.Fatal("the nonfaulty holder's reply was not output")
	}
}

// TestEchoQuorumBeyond3tPlus1 pins the echo quorum at ⌈(n+t+1)/2⌉: at n = 5,
// t = 1 a Byzantine sender that splits the nonfaulty parties 2/2 and echoes
// and READYs both values could complete two 2t+1-echo quorums, and two
// outputs. Under every schedule tried no two outputs differ (sim.deliver).
func TestEchoQuorumBeyond3tPlus1(t *testing.T) {
	const n, tf, sender = 5, 1, 4
	for _, size := range []int{16, 1024} {
		v0, v1 := patterned(size, 1), patterned(size, 2)
		init := Options{}.initType(v0)
		echo, ready := msgEcho, msgReady
		e0, e1 := v0, v1
		if init == msgCInit {
			echo, ready, e0, e1 = msgCEcho, msgCReady, digestBodyOf(v0), digestBodyOf(v1)
		}
		for seed := int64(0); seed < 200; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := newSim(t, n, tf, sender, sender)
			for to := 0; to < 4; to++ {
				if to < 2 {
					s.inject(sender, to, init, v0)
					s.inject(sender, to, echo, e0)
					s.inject(sender, to, ready, e0)
				} else {
					s.inject(sender, to, init, v1)
					s.inject(sender, to, echo, e1)
					s.inject(sender, to, ready, e1)
				}
			}
			for len(s.pending) > 0 {
				s.deliver(rng.Intn(len(s.pending)))
			}
		}
	}
}
