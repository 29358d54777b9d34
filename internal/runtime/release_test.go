package runtime

import (
	"context"
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
