package runtime

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"asyncft/internal/obs"
	"asyncft/internal/wire"
)

func snapshot(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	v, ok := reg.Snapshot(name)
	if !ok {
		t.Fatalf("series %s missing", name)
	}
	return v[""]
}

// Releasing a family's instances closes the receivers blocked under them,
// deletes their mailboxes and lowers the active-session gauge; instances at
// or above the cursor, the family's siblings and other families stay.
func TestReleaseBelowClosesAndDeletesSubtrees(t *testing.T) {
	reg := obs.NewRegistry()
	nd := NewNode(0, 4, 1)
	defer nd.Close()
	nd.Instrument(reg)

	const family = "run/s/0/slot"
	kept := []string{
		"run/s/0/slot/2/rbc/1", // at the cursor
		"run/s/0/slot/10/fp",   // above it; "10" must not read as "1"
		"run/s/1/slot/0/rbc/1", // another shard's tree
		"run/s/0/slot",         // the family node itself
		"run/s/0/slot/x/1",     // not a numbered instance
		"run/s/0/slotted/0",    // shares the prefix as bytes, not as a path
		"sync/run/s/0/head",    // unrelated
	}
	gone := []string{
		"run/s/0/slot/0", "run/s/0/slot/0/rbc/3", "run/s/0/slot/1/fp", "run/s/0/slot/1/cs/ba/2/wc/1",
	}
	for _, s := range append(append([]string(nil), kept...), gone...) {
		nd.Dispatch(wire.Envelope{From: 1, Session: s, Type: 1})
	}
	// A receiver blocked on an empty mailbox under a released instance.
	blocked := make(chan error, 1)
	ready := nd.Mailbox("run/s/0/slot/1/rbc/0")
	go func() {
		_, err := ready.Recv(context.Background())
		blocked <- err
	}()
	before := snapshot(t, reg, "runtime_sessions_active")
	if want := float64(len(kept) + len(gone) + 1); before != want {
		t.Fatalf("sessions_active before release = %v, want %v", before, want)
	}

	nd.ReleaseBelow(family, 2)

	select {
	case err := <-blocked:
		if err != ErrClosed {
			t.Fatalf("blocked receiver returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiver under a released instance still blocked")
	}
	if got := snapshot(t, reg, "runtime_sessions_active"); got != float64(len(kept)) {
		t.Fatalf("sessions_active after release = %v, want %d", got, len(kept))
	}
	if got := nd.ReleasedBelow(family); got != 2 {
		t.Fatalf("ReleasedBelow = %d, want 2", got)
	}
	for _, s := range kept {
		if env, ok := nd.Mailbox(s).TryRecv(); !ok || env.Session != s {
			t.Errorf("session %q lost its buffered message", s)
		}
	}
	if got := snapshot(t, reg, "runtime_sessions_active"); got != float64(len(kept)) {
		t.Fatalf("reading the kept mailboxes changed sessions_active to %v", got)
	}
}

// After a release neither an inbound frame nor a local receive brings a
// released session back: nothing is created, counted or buffered.
func TestReleasedSessionsStayDead(t *testing.T) {
	reg := obs.NewRegistry()
	nd := NewNode(0, 4, 1)
	defer nd.Close()
	nd.Instrument(reg)

	const family = "run/s/0/slot"
	nd.Dispatch(wire.Envelope{From: 1, Session: "run/s/0/slot/0/fp", Type: 1})
	nd.ReleaseBelow(family, 3)
	total, active := snapshot(t, reg, "runtime_sessions_total"), snapshot(t, reg, "runtime_sessions_active")
	if active != 0 {
		t.Fatalf("sessions_active = %v after releasing the only session", active)
	}

	// Late and hostile frames: sessions that existed, sessions that never
	// did, deep paths.
	for i := 0; i < 1000; i++ {
		for _, s := range []string{"run/s/0/slot/0/fp", "run/s/0/slot/1/rbc/2", "run/s/0/slot/2/cs/ba/1/wc/9/sh/0"} {
			nd.Dispatch(wire.Envelope{From: 3, Session: s, Type: 2, Payload: []byte{byte(i)}})
		}
	}
	// A local receive on a released session fails at once.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	env := NewEnv(0, 4, 1, nd, nil, 1)
	if _, err := env.Recv(ctx, "run/s/0/slot/1/rbc/2"); err != ErrClosed {
		t.Fatalf("Recv on a released session: %v, want ErrClosed", err)
	}
	if _, ok := nd.Mailbox("run/s/0/slot/2/fp").TryRecv(); ok {
		t.Fatal("a released session buffered a frame")
	}
	if got := snapshot(t, reg, "runtime_sessions_total"); got != total {
		t.Fatalf("sessions_total grew from %v to %v on released sessions", total, got)
	}
	if got := snapshot(t, reg, "runtime_sessions_active"); got != 0 {
		t.Fatalf("sessions_active = %v, want 0", got)
	}

	// The cursor only moves forward, and the instance at it is live.
	nd.ReleaseBelow(family, 1)
	if got := nd.ReleasedBelow(family); got != 3 {
		t.Fatalf("cursor moved back to %d", got)
	}
	nd.Dispatch(wire.Envelope{From: 1, Session: "run/s/0/slot/3/fp", Type: 7})
	if got, err := env.Recv(ctx, "run/s/0/slot/3/fp"); err != nil || got.Type != 7 {
		t.Fatalf("instance at the cursor: %v %v", got, err)
	}
}

// RoutePrefix adoption and release coexist: a route still adopts the
// mailboxes buffered under its prefix and sees new traffic first, and a
// release under a routed prefix leaves the route alone.
func TestRoutePrefixAdoptionAfterRelease(t *testing.T) {
	nd := NewNode(0, 4, 1)
	defer nd.Close()
	nd.ReleaseBelow("run/s/0/slot", 5)

	nd.Dispatch(routedEnv("g/e/0/rbc/1", 1))
	nd.Dispatch(routedEnv("g/e/0/slot/2/fp", 2))
	var got []byte
	remove := nd.RoutePrefix("g/e/0/", func(env wire.Envelope) { got = append(got, env.Payload[0]) })
	defer remove()
	if len(got) != 2 {
		t.Fatalf("adopted %d buffered messages, want 2", len(got))
	}
	nd.ReleaseBelow("g/e/0/slot", 9)
	nd.Dispatch(routedEnv("g/e/0/slot/2/fp", 3))
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("routed traffic under a released family did not reach the route: %v", got)
	}
}

// Release closes the subtree rooted at one session and nothing else: not
// its siblings, not a session that merely shares its bytes as a prefix, not
// its ancestors, and not a RoutePrefix claim.
func TestReleaseClosesTheSubtreeAndNothingElse(t *testing.T) {
	for _, root := range []string{"a/1", "a/probe", "7", "solo"} {
		root := root
		t.Run(root, func(t *testing.T) {
			reg := obs.NewRegistry()
			nd := NewNode(0, 4, 1)
			defer nd.Close()
			nd.Instrument(reg)

			gone := []string{root, root + "/out", root + "/cs/ba/2/wc/1", root + "/fc/cf/3/out"}
			kept := []string{
				root + "0", root + "0/out", // a/10 beside a/1: same bytes, another path
				"a", "a/2/out", "a/other", "b/1/out", "70/x", "solos",
			}
			for _, s := range append(append([]string(nil), kept...), gone...) {
				nd.Dispatch(wire.Envelope{From: 1, Session: s, Type: 1})
			}
			var routed int
			remove := nd.RoutePrefix(root+"/routed/", func(wire.Envelope) { routed++ })
			defer remove()
			blocked := make(chan error, 1)
			box := nd.Mailbox(root + "/r/1/sh/0")
			go func() {
				_, err := box.Recv(context.Background())
				blocked <- err
			}()

			nd.Release(root)

			select {
			case err := <-blocked:
				if err != ErrClosed {
					t.Fatalf("blocked receiver returned %v, want ErrClosed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("receiver under the released session still blocked")
			}
			if got := snapshot(t, reg, "runtime_sessions_active"); got != float64(len(kept)) {
				t.Fatalf("sessions_active after release = %v, want %d", got, len(kept))
			}
			for _, s := range kept {
				if env, ok := nd.Mailbox(s).TryRecv(); !ok || env.Session != s {
					t.Errorf("session %q lost its buffered message", s)
				}
			}
			nd.Dispatch(wire.Envelope{From: 1, Session: root + "/routed/x", Type: 1})
			if routed != 1 {
				t.Fatalf("a route claimed under the released session saw %d frames, want 1", routed)
			}

			// Frames and receives for the released tree mint nothing.
			total := snapshot(t, reg, "runtime_sessions_total")
			for i := 0; i < 1000; i++ {
				for _, s := range gone {
					nd.Dispatch(wire.Envelope{From: 3, Session: s, Type: 2})
				}
				nd.Dispatch(wire.Envelope{From: 3, Session: SubSession(root, "never", i), Type: 2})
			}
			if _, err := nd.Mailbox(root + "/out").Recv(context.Background()); err != ErrClosed {
				t.Fatalf("Recv on a released session: %v, want ErrClosed", err)
			}
			if got := snapshot(t, reg, "runtime_sessions_total"); got != total {
				t.Fatalf("sessions_total grew from %v to %v under a flood for a released tree", total, got)
			}
			if got := snapshot(t, reg, "runtime_sessions_active"); got != float64(len(kept)) {
				t.Fatalf("sessions_active = %v after the flood, want %d", got, len(kept))
			}
			nd.Release(root) // a second release is a no-op
		})
	}
}

// Numbered roots released one by one, in any order, coalesce: the family's
// tombstones are one interval per gap, and ReleaseBelow is the interval
// that starts at zero.
func TestReleaseCoalescesNumberedRoots(t *testing.T) {
	const n = 10000
	nd := NewNode(0, 4, 1)
	defer nd.Close()
	family, _ := nd.tombs.walk("bench/fba", true)
	order := rand.New(rand.NewSource(1)).Perm(n)
	most := 0
	for i, k := range order {
		nd.Release(SubSession("bench/fba", k))
		if len(family.spans) > most {
			most = len(family.spans)
		}
		if i%997 == 0 {
			// The intervals are sorted, disjoint and not adjacent.
			for j := 1; j < len(family.spans); j++ {
				if family.spans[j-1].hi >= family.spans[j].lo {
					t.Fatalf("after %d releases spans %v and %v touch", i+1, family.spans[j-1], family.spans[j])
				}
			}
		}
	}
	if len(family.spans) != 1 || family.spans[0] != (span{0, n}) {
		t.Fatalf("%d roots released in random order left %d intervals (%v…), want [0,%d)", n, len(family.spans), family.spans[:1], n)
	}
	if most > n/2 {
		t.Fatalf("peak of %d intervals for %d roots: more than one per gap", most, n)
	}
	if len(family.kids) != 0 {
		t.Fatalf("%d trie nodes left under released roots", len(family.kids))
	}
	if got := nd.ReleasedBelow("bench/fba"); got != n {
		t.Fatalf("ReleasedBelow = %d, want %d", got, n)
	}
	for _, k := range []int{0, n / 2, n - 1} {
		if !nd.retired(SubSession("bench/fba", k, "out")) {
			t.Fatalf("instance %d not retired", k)
		}
	}
	if nd.retired(SubSession("bench/fba", n)) || nd.retired("bench/fba") || nd.retired("bench/fba/probe") {
		t.Fatal("a session outside the released interval reads as retired")
	}
	// ReleaseBelow extends the same interval, and a gap above it stays one.
	nd.Release(SubSession("bench/fba", n+5))
	nd.ReleaseBelow("bench/fba", n+2)
	if len(family.spans) != 2 || family.spans[0] != (span{0, n + 2}) || family.spans[1] != (span{n + 5, n + 6}) {
		t.Fatalf("spans = %v, want [0,%d) [%d,%d)", family.spans, n+2, n+5, n+6)
	}
}

// A number is an instance only in the canonical form SubSession writes, so
// releasing a/7 does not retire a/007 or a/+7, and the reverse.
func TestReleaseNumbersAreCanonical(t *testing.T) {
	nd := NewNode(0, 4, 1)
	defer nd.Close()
	nd.Release("a/7")
	nd.Release("b/007")
	for s, want := range map[string]bool{
		"a/7": true, "a/7/x": true, "a/007": false, "a/+7": false, "a/07/x": false, "a/70": false,
		"b/007": true, "b/007/x": true, "b/7": false,
	} {
		if got := nd.retired(s); got != want {
			t.Errorf("retired(%q) = %v, want %v", s, got, want)
		}
	}
}

// Releasing a session drops the tombstones beneath it, whichever kind they
// are, so a call's nested releases cost nothing once the call is released.
func TestReleaseDropsNestedTombstones(t *testing.T) {
	nd := NewNode(0, 4, 1)
	defer nd.Close()
	for d := 0; d < 50; d++ {
		root := SubSession("bench/fba", d)
		for i := 1; i <= 5; i++ {
			nd.Release(SubSession(root, "fc", "cf", i))
		}
		nd.Release(SubSession(root, "fc"))
		nd.ReleaseBelow(SubSession(root, "slot"), 9)
		if d%2 == 0 {
			nd.Release(root)
		}
	}
	family, _ := nd.tombs.walk("bench/fba", false)
	if len(family.kids) != 25 {
		t.Fatalf("%d nodes under the family, want the 25 unreleased roots", len(family.kids))
	}
	for d := 1; d < 50; d += 2 {
		root := SubSession("bench/fba", d)
		if !nd.retired(SubSession(root, "fc", "cf", 2, "out")) || !nd.retired(SubSession(root, "slot", 8)) || nd.retired(SubSession(root, "cs")) {
			t.Fatalf("nested tombstones under unreleased root %d are wrong", d)
		}
		nd.Release(root)
	}
	if len(family.kids) != 0 || len(family.spans) != 1 {
		t.Fatalf("after releasing every root: %d nodes, spans %v; want none and one interval", len(family.kids), family.spans)
	}
	// A release under a released session leaves nothing behind either.
	nd.Release("bench/fba/3/fc")
	nd.ReleaseBelow("bench/fba/3/slot", 4)
	if len(family.kids) != 0 {
		t.Fatalf("a release under a released root left %d nodes", len(family.kids))
	}
}

// Every receiver blocked on a mailbox wakes when it closes, whichever way
// it closes — not only the first.
func TestCloseWakesEveryReceiver(t *testing.T) {
	closers := map[string]func(nd *Node){
		"ReleaseBelow": func(nd *Node) { nd.ReleaseBelow("f", 2) },
		"Release":      func(nd *Node) { nd.Release("f/1") },
		"Close":        func(nd *Node) { nd.Close() },
	}
	for name, closeIt := range closers {
		closeIt := closeIt
		t.Run(name, func(t *testing.T) {
			nd := NewNode(0, 4, 1)
			defer nd.Close()
			box := nd.Mailbox("f/1/x")
			const receivers = 3
			errs := make(chan error, receivers)
			for i := 0; i < receivers; i++ {
				go func() {
					_, err := box.Recv(context.Background())
					errs <- err
				}()
			}
			time.Sleep(10 * time.Millisecond) // let them block; the test holds either way
			closeIt(nd)
			for i := 0; i < receivers; i++ {
				select {
				case err := <-errs:
					if err != ErrClosed {
						t.Fatalf("receiver %d returned %v, want ErrClosed", i, err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("only %d of %d blocked receivers woke", i, receivers)
				}
			}
		})
	}
}
