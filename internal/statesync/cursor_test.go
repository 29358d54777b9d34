package statesync

import (
	"context"
	"testing"
	"time"

	"asyncft/internal/acs"
	"asyncft/internal/testkit"
)

// waitHeld blocks until srv.Held(rank) is the announcement a store at
// cursor makes — cursor itself or the stride boundary below it, whichever
// the server's loop woke up at — failing on a value beyond the cursor or
// on the cluster deadline.
func waitHeld(t *testing.T, c *testkit.Cluster, srv *Server, rank, cursor int) {
	t.Helper()
	for {
		reported := srv.Reported()
		got := srv.Held(rank)
		if got > cursor {
			t.Fatalf("Held(%d) = %d, beyond %d", rank, got, cursor)
		}
		if got >= cursor-cursor%cursorStride {
			return
		}
		select {
		case <-reported:
		case <-c.Ctx.Done():
			t.Fatalf("Held(%d) stuck at %d, want %d", rank, got, cursor)
		}
	}
}

// Servers announce their stores' cursors at stride boundaries, every
// server tracks every party's highest announcement (its own included), and
// a liar moves Held(r) no further than the honest announcements below it.
func TestServersAnnounceAndTrackCursors(t *testing.T) {
	const n, tf = 4, 1
	c := testkit.New(n, tf, testkit.WithSeed(31))
	defer c.Close()
	stores := map[int]*acs.Store{}
	servers := map[int]*Server{}
	for _, id := range []int{0, 1, 2} {
		stores[id] = acs.NewStore()
		servers[id] = NewServer(c.Envs[id], "cursors", stores[id], Options{})
		go servers[id].Run(c.Ctx)
	}
	for rank := 1; rank <= n; rank++ {
		if got := servers[0].Held(rank); got != 0 {
			t.Fatalf("Held(%d) = %d before any announcement", rank, got)
		}
	}

	// Cursors 9, 6 and 3: the first two crossed a stride boundary.
	fill(stores[0], 9, 0, 1, 2)
	fill(stores[1], 6, 0, 1, 2)
	fill(stores[2], 3, 0, 1, 2)
	for _, id := range []int{0, 1, 2} {
		waitHeld(t, c, servers[id], 1, 9)
		waitHeld(t, c, servers[id], 2, 6)
		if got := servers[id].Held(3); got != 0 {
			t.Fatalf("party %d: Held(3) = %d with one party below the stride", id, got)
		}
	}

	// Party 3 claims a cursor no store has: it takes the top rank and
	// nothing else moves past what the others announced.
	go func() { _ = CursorLiar{Session: "cursors", Cursor: 1 << 40}.Run(c.Ctx, c.Envs[3]) }()
	for _, id := range []int{0, 1, 2} {
		waitHeld(t, c, servers[id], 1, 1<<40)
		waitHeld(t, c, servers[id], 2, 9)
		waitHeld(t, c, servers[id], 3, 6)
		if got := servers[id].Held(4); got != 0 {
			t.Fatalf("party %d: Held(4) = %d", id, got)
		}
	}
	fill(stores[2], 8, 0, 1, 2)
	waitHeld(t, c, servers[1], 4, 6)
	waitHeld(t, c, servers[1], 3, 8)
	if got := servers[1].Held(2); got > 9 {
		t.Fatalf("Held(2) = %d, beyond every honest store", got)
	}
}

// Sync stops waiting for a range the store comes to hold by its own
// commits: no server ever answers here, yet Sync returns once the store
// has reached the target.
func TestSyncYieldsToLocalCommits(t *testing.T) {
	const n, tf, target = 4, 1, 3
	c := testkit.New(n, tf, testkit.WithSeed(37))
	defer c.Close()
	store := acs.NewStore()
	done := make(chan error, 1)
	go func() {
		done <- Sync(c.Ctx, c.Envs[3], "nobody-home", store, target, Options{HeadRetry: 10 * time.Millisecond})
	}()
	select {
	case err := <-done:
		t.Fatalf("Sync returned %v with an empty store and no servers", err)
	case <-time.After(30 * time.Millisecond):
	}
	fill(store, target, 0, 1, 2)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Sync: %v", err)
		}
	case <-c.Ctx.Done():
		t.Fatal("Sync kept waiting for heads after the store reached the target")
	}
	// A cancelled caller still gets its error.
	ctx, cancel := context.WithCancel(c.Ctx)
	cancel()
	if err := Sync(ctx, c.Envs[3], "nobody-home", store, target+1, Options{}); err == nil {
		t.Fatal("Sync on a cancelled context returned nil")
	}
}
