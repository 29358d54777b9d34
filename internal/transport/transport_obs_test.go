package transport

import (
	"context"
	"strings"
	"testing"
	"time"

	"asyncft/internal/obs"
)

// instrument attaches a fresh registry per party before traffic flows.
func (c *tcpCluster) instrument() []*obs.Registry {
	regs := make([]*obs.Registry, len(c.tcps))
	for i, tc := range c.tcps {
		regs[i] = obs.NewRegistry()
		tc.Instrument(regs[i])
	}
	return regs
}

func TestInstrumentedDelivery(t *testing.T) {
	c := newTCPCluster(t, 2, 0)
	defer c.close()
	regs := c.instrument()

	const total = 50
	for i := 0; i < total; i++ {
		c.envs[0].Send(1, "tcp/obs", 9, []byte("ping"))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < total; i++ {
		if _, err := c.envs[1].Recv(ctx, "tcp/obs"); err != nil {
			t.Fatal(err)
		}
	}

	// Sender side: every frame eventually flushed to peer 1; at least one
	// dial and one flush batch. The writer counts a batch after its Flush
	// returns, which can be after the receiver has read it: poll.
	var framesOut map[string]float64
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		var ok bool
		if framesOut, ok = regs[0].Snapshot("transport_frames_out_total"); ok && framesOut["1"] == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("frames_out = %v (ok=%v), want %d to peer 1", framesOut, ok, total)
		}
	}
	if dials, _ := regs[0].Snapshot("transport_dials_total"); dials[""] < 1 {
		t.Fatalf("dials = %v", dials)
	}
	if flushes, _ := regs[0].Snapshot("transport_flush_batches_total"); flushes[""] < 1 || flushes[""] > total {
		t.Fatalf("flush batches = %v, want within [1, %d]", flushes, total)
	}
	if hw, _ := regs[0].Snapshot("transport_queue_depth_highwater"); hw["1"] < 1 {
		t.Fatalf("queue high-water = %v", hw)
	}

	// Receiver side: all frames decoded and attributed to the source.
	framesIn, ok := regs[1].Snapshot("transport_frames_in_total")
	if !ok || framesIn["0"] != total {
		t.Fatalf("frames_in = %v (ok=%v), want %d from peer 0", framesIn, ok, total)
	}
	bytesIn, _ := regs[1].Snapshot("transport_bytes_in_total")
	if bytesIn["0"] <= 0 {
		t.Fatalf("bytes_in = %v", bytesIn)
	}

	// Both sides saw each other: 0 dialed out, 1 saw inbound frames.
	if got := c.tcps[0].ConnectedPeers(); got != 1 {
		t.Fatalf("sender ConnectedPeers = %d, want 1", got)
	}
	if got := c.tcps[1].ConnectedPeers(); got != 1 {
		t.Fatalf("receiver ConnectedPeers = %d, want 1", got)
	}
	if conn, _ := regs[1].Snapshot("transport_connected_peers"); conn[""] != 1 {
		t.Fatalf("connected_peers gauge = %v", conn)
	}

	// The shared traffic accountant renders under the transport prefix
	// with the same per-proto/per-party shape as the simulated fabric.
	var sb strings.Builder
	if err := regs[0].WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`transport_proto_bytes_total{proto="tcp"} `,
		`transport_sent_bytes_total{party="0"} `,
		"transport_messages_total 50",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}

func TestInstrumentSelfSendCharged(t *testing.T) {
	c := newTCPCluster(t, 2, 0)
	defer c.close()
	regs := c.instrument()
	c.envs[0].Send(0, "tcp/self", 1, []byte("me"))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.envs[0].Recv(ctx, "tcp/self"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := regs[0].WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "transport_messages_total 1") {
		t.Fatalf("self-send not charged to traffic:\n%s", sb.String())
	}
	// But no socket activity: nothing flushed, no dials.
	if dials, _ := regs[0].Snapshot("transport_dials_total"); dials[""] != 0 {
		t.Fatalf("self-send dialed: %v", dials)
	}
}

func TestRedialCounted(t *testing.T) {
	c := newTCPCluster(t, 2, 0)
	defer c.close()
	regs := c.instrument()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c.envs[0].Send(1, "tcp/rd", 1, []byte("a"))
	if _, err := c.envs[1].Recv(ctx, "tcp/rd"); err != nil {
		t.Fatal(err)
	}

	// Restart party 1's listener on the same port: the sender's next
	// batch hits a dead connection and must redial.
	addr := c.tcps[1].Addr()
	c.tcps[1].Close()
	tcp1, err := Listen(1, map[int]string{0: c.tcps[0].Addr(), 1: addr}, c.nodes[1].Dispatch)
	if err != nil {
		t.Fatal(err)
	}
	c.tcps[1] = tcp1

	deadline := time.Now().Add(10 * time.Second)
	for {
		c.envs[0].Send(1, "tcp/rd", 1, []byte("b"))
		rctx, rcancel := context.WithTimeout(ctx, 200*time.Millisecond)
		_, err := c.envs[1].Recv(rctx, "tcp/rd")
		rcancel()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no delivery after restart")
		}
	}
	if redials, _ := regs[0].Snapshot("transport_redials_total"); redials[""] < 1 {
		t.Fatalf("redials = %v, want ≥ 1", redials)
	}
}
