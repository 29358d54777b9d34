package reconfig

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"asyncft/internal/obs"
	rt "asyncft/internal/runtime"
	"asyncft/internal/testkit"
)

// TestRemovedPartyDrainReleasesResources is the teardown regression for
// the epoch switch: after a run in which a party was removed mid-stream,
// closing the cluster must return the process to its goroutine baseline.
// A leak here means the removed party's group was not fully torn down —
// queued frames still parked in mailboxes holding receivers, or slot
// workers never released across the boundary.
func TestRemovedPartyDrainReleasesResources(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()

	func() {
		c := testkit.New(5, 1, testkit.WithSeed(41), testkit.WithTimeout(240*time.Second))
		defer c.Close()
		res := runDynamic(t, c, []int{0, 1, 2, 3, 4}, Options{
			Session:  "rc/leak",
			Genesis:  []int{0, 1, 2, 3, 4},
			Slots:    8,
			Core:     testCfg(),
			PoolSize: 1,
			Source:   NewSource(ScheduledChange{Slot: 1, Change: Change{Add: false, Party: 2}}),
		})
		if res[2].RemovedAt < 0 {
			t.Fatal("party 2 never removed")
		}
	}()

	// Helper goroutines unwind asynchronously after Close; poll with a
	// generous allowance for the runtime's own background workers.
	deadline := time.Now().Add(30 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak across epoch switch: baseline %d, now %d\n%s",
				baseline, now, buf[:n])
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestGroupCloseSilencesEpochTraffic is the white-box half of the drain
// contract: after Close, a group discards inbound epoch frames instead of
// buffering them, drops outbound sends, and releases blocked receivers
// with ErrClosed. The route stays claimed so stray frames from slower
// peers die at the translation layer rather than accumulating in the
// physical node's mailboxes.
func TestGroupCloseSilencesEpochTraffic(t *testing.T) {
	c := testkit.New(4, 1, testkit.WithSeed(43), testkit.WithTimeout(60*time.Second))
	defer c.Close()

	members := []int{0, 1, 2, 3}
	res := c.Run(members, func(ctx context.Context, env *rt.Env) (interface{}, error) {
		g := newGroup(env, newEpochRouter(env, "wbx", 4), 0, members)
		sess := rt.SubSession(g.root, "ping")

		// Live round-trip through the virtual translation layer: each
		// virtual party pings its successor and receives exactly one
		// ping from its predecessor.
		g.env.Send((g.vid+1)%len(members), sess, 1, []byte("ping"))
		e, err := g.env.Recv(ctx, sess)
		if err != nil {
			return nil, err
		}
		want := (g.vid + len(members) - 1) % len(members)
		if e.From != want {
			return nil, fmt.Errorf("ping from virtual %d, want %d", e.From, want)
		}

		// After Close: blocked receivers release with ErrClosed, inbound
		// frames are discarded at the route, outbound sends drop without
		// panicking.
		g.Close()
		if _, err := g.env.Recv(ctx, rt.SubSession(g.root, "post")); !errors.Is(err, rt.ErrClosed) {
			return nil, fmt.Errorf("post-close Recv returned %v, want ErrClosed", err)
		}
		g.env.Send((g.vid+1)%len(members), sess, 1, []byte("stray"))
		g.Close() // idempotent
		return nil, nil
	})
	for id, r := range res {
		if r.Err != nil {
			t.Fatalf("party %d: %v", id, r.Err)
		}
	}
}

// TestFastPathEpochBoundaryDrain re-runs the drain regression with the
// unanimous-slot fast path armed. Fast-committed slots leave a background
// responder listening for stragglers' SLOW announcements; the epoch-switch
// contract is that those responders die with their epoch's group, so a
// membership change (including a removal) leaves no goroutine behind once
// the cluster closes. The run must also actually exercise the fast path —
// an all-honest schedule commits essentially every slot without BA.
func TestFastPathEpochBoundaryDrain(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()

	func() {
		c := testkit.New(5, 1, testkit.WithSeed(47), testkit.WithTimeout(240*time.Second))
		defer c.Close()
		reg := obs.NewRegistry() // shared across parties: the series are run-wide aggregates
		cfg := testCfg()
		cfg.FastPath = true
		cfg.FastPathWait = 2 * time.Second
		cfg.Metrics = reg
		res := runDynamic(t, c, []int{0, 1, 2, 3, 4}, Options{
			Session:  "rc/fpleak",
			Genesis:  []int{0, 1, 2, 3, 4},
			Slots:    8,
			Core:     cfg,
			PoolSize: 1,
			Source:   NewSource(ScheduledChange{Slot: 1, Change: Change{Add: false, Party: 2}}),
		})
		if res[2].RemovedAt < 0 {
			t.Fatal("party 2 never removed")
		}
		if reg.Total("acs_fastpath_hits_total") == 0 {
			t.Fatal("fast path never taken in an all-honest run")
		}
	}()

	deadline := time.Now().Add(30 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak across fast-path epoch switch: baseline %d, now %d\n%s",
				baseline, now, buf[:n])
		}
		time.Sleep(100 * time.Millisecond)
	}
}
