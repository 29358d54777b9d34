package svss

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"asyncft/internal/field"
	"asyncft/internal/runtime"
	"asyncft/internal/wire"
)

// discard is a Sender for a party run alone: its own sends go nowhere and
// the test dispatches what it receives.
type discard struct{}

func (discard) Send(wire.Envelope) {}

// soloRec starts RunRecBatch for party 0 of 4 on one opening it holds a
// valid row for, and returns the node to feed it reveals through.
func soloRec(t *testing.T, ctx context.Context, idle time.Duration) (nd *runtime.Node, reveal func(from int), done <-chan error) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	nd = runtime.NewNode(0, 4, 1)
	t.Cleanup(nd.Close)
	env := runtime.NewEnv(0, 4, 1, nd, discard{}, 1)
	row := field.NewBivariate(rng, 1, 42).Row(field.X(0))
	errc := make(chan error, 1)
	go func() {
		_, err := RunRecBatch(ctx, env, "solo/rec", 1, []field.Poly{row}, Options{RecIdleTimeout: idle})
		errc <- err
	}()
	// A row of an unrelated polynomial: it fails the cross-consistency
	// filter, so it counts as participation and resolves nothing.
	reveal = func(from int) {
		var w wire.Writer
		w.Poly(field.NewBivariate(rng, 1, 7).Row(field.X(from)))
		nd.Dispatch(wire.Envelope{From: from, Session: "solo/rec", Type: MsgReveal, Payload: w.Bytes()})
	}
	return nd, reveal, errc
}

// Progress re-arms the idle window: with reveals trickling in at less than
// the window apart, the fallback fires one full window after the last of
// them, not one window after the first.
func TestRecIdleWindowRestartsOnProgress(t *testing.T) {
	const idle = 150 * time.Millisecond
	nd, reveal, done := soloRec(t, context.Background(), idle)
	var last time.Time
	for from := 1; from <= 3; from++ {
		if from > 1 {
			time.Sleep(idle * 2 / 3)
		}
		select {
		case err := <-done:
			t.Fatalf("gave up after %d reveals, before a quorum had spoken: %v", from-1, err)
		default:
		}
		last = time.Now()
		reveal(from)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrNoQuorum) {
			t.Fatalf("idle fallback returned %v, want ErrNoQuorum", err)
		}
		if waited := time.Since(last); waited < idle {
			t.Fatalf("gave up %v after the last reveal, inside the %v idle window", waited, idle)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("idle fallback never fired")
	}
	if !nd.Shunned(1) {
		t.Fatal("the dealer of an unresolvable opening was not shunned")
	}
}

// A reconstruction whose session is released ends at once with ErrClosed —
// it neither spins on the closed mailbox nor takes the closure for an idle
// window and blames the dealer.
func TestRecEndsWhenItsSessionIsReleased(t *testing.T) {
	nd, reveal, done := soloRec(t, context.Background(), time.Hour)
	for from := 1; from <= 3; from++ {
		reveal(from) // a quorum has spoken: an idle window would shun
	}
	nd.Release("solo")
	select {
	case err := <-done:
		if !errors.Is(err, runtime.ErrClosed) {
			t.Fatalf("released reconstruction returned %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reconstruction outlived its released session")
	}
	if nd.Shunned(1) {
		t.Fatal("a released session was taken for a stalled dealer")
	}
}
