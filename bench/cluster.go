package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"asyncft/internal/core"
	"asyncft/internal/obs"
	"asyncft/internal/runtime"
	"asyncft/internal/shard"
	"asyncft/internal/trace"
	"asyncft/internal/transport"
)

// slotsPerShard is large enough that no run commits them all: the engine
// has no unbounded mode yet, and a run that exhausted its slots would
// measure the shutdown path. Every run asserts it stayed below this.
const slotsPerShard = 1 << 15

const ledgerSession = "bench/abc"

// party is one live party: the wiring of cmd/node's runNode and
// runShardedLedger, in-process.
type party struct {
	id   int
	node *runtime.Node
	tcp  *transport.TCP
	env  *runtime.Env
	reg  *obs.Registry
	eng  *shard.Engine // nil in the fba workload

	delay *delaySender // nil without injected delay
}

// cluster hosts the workload's live parties over loopback TCP.
type cluster struct {
	w       workload
	parties []*party // indexed by party id; nil = never started
	live    []int

	ctx    context.Context
	cancel context.CancelFunc
	stop   chan struct{} // closed on teardown; ends the delay pumps
	runs   sync.WaitGroup
	runErr atomic.Pointer[error] // first engine failure that was not the teardown

	decisions atomic.Int64 // fba workload: decisions completed

	// Traced runs only.
	rec  *trace.Recorder
	bdry *boundary
}

// ledgerConfig is cmd/node -mode abc's protocol configuration; fbaConfig
// is the paper-faithful one (SVSS weak coin inside every BA).
func ledgerConfig() core.Config {
	return core.Config{K: 1, Eps: 0.1, InnerCoin: core.InnerCoinLocal}
}

func fbaConfig() core.Config { return core.Config{K: 2, Eps: 0.1} }

// newCluster builds and starts the cluster. With traced set, the span
// recorder and the boundary wrappers are installed; otherwise the transport
// and node.Dispatch are wired together directly.
func newCluster(w workload, seed int64, traced bool) (*cluster, error) {
	ctx, cancel := context.WithCancel(context.Background())
	c := &cluster{
		w: w, live: w.live(), parties: make([]*party, numParties),
		ctx: ctx, cancel: cancel, stop: make(chan struct{}),
	}
	if traced {
		c.rec = trace.New(1 << 20)
		c.bdry = &boundary{}
	}
	addrs := make([]string, numParties)
	for _, id := range c.live {
		p := &party{id: id, node: runtime.NewNode(id, numParties, numFaults), reg: obs.NewRegistry()}
		handler := transport.Handler(p.node.Dispatch)
		if traced {
			handler = c.bdry.handler(p.node.Dispatch)
		}
		tcp, err := transport.Listen(id, map[int]string{id: "127.0.0.1:0"}, handler)
		if err != nil {
			c.close()
			return nil, err
		}
		p.tcp = tcp
		tcp.Instrument(p.reg)
		p.node.Instrument(p.reg)
		addrs[id] = tcp.Addr()
		c.parties[id] = p
	}
	if w.crashed >= 0 {
		// A crashed party's address refuses connections: bind a port, then
		// release it.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		addrs[w.crashed] = ln.Addr().String()
		ln.Close()
	}
	for _, id := range c.live {
		p := c.parties[id]
		for peer, a := range addrs {
			p.tcp.AddPeer(peer, a)
		}
		var sender runtime.Sender = p.tcp
		if w.delay > 0 {
			p.delay = newDelaySender(id, numParties, sender, w.delay, c.stop)
			sender = p.delay
		}
		if traced {
			sender = &boundarySender{b: c.bdry, self: id, inner: sender}
		}
		p.env = runtime.NewEnv(id, numParties, numFaults, p.node, sender, seed*1000003+int64(id))
	}
	if w.fba {
		return c, nil
	}
	for _, id := range c.live {
		p := c.parties[id]
		cfg := ledgerConfig()
		cfg.Metrics = p.reg
		cfg.Trace = c.rec
		eng, err := shard.New(p.env, shard.Options{
			Session: ledgerSession, Shards: w.shards, Slots: slotsPerShard, Width: 2, Core: cfg,
		})
		if err != nil {
			c.close()
			return nil, err
		}
		p.eng = eng
	}
	for _, id := range c.live {
		p := c.parties[id]
		c.runs.Add(1)
		go func() {
			defer c.runs.Done()
			err := p.eng.Run(c.ctx, c.ctx)
			if c.ctx.Err() == nil {
				// Run came back while the cluster was still up: it ran out
				// of slots (nil) or failed.
				if err == nil {
					err = fmt.Errorf("party %d committed all %d slots", p.id, slotsPerShard)
				}
				c.runErr.CompareAndSwap(nil, &err)
			}
		}()
	}
	return c, nil
}

// failure reports an engine that stopped while the cluster was up.
func (c *cluster) failure() error {
	if e := c.runErr.Load(); e != nil {
		return *e
	}
	return nil
}

// close tears the cluster down and waits for the engines, the transports'
// goroutines and the delay pumps to end.
func (c *cluster) close() {
	c.cancel()
	close(c.stop)
	c.runs.Wait()
	var wg sync.WaitGroup
	for _, p := range c.parties {
		if p == nil {
			continue
		}
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			if p.tcp != nil {
				p.tcp.Close()
			}
			p.node.Close()
			if p.delay != nil {
				p.delay.wait()
			}
		}()
	}
	wg.Wait()
}

// probeTimeout bounds the set-up probe; a healthy cluster acks it in well
// under a second even with a crashed party.
const probeTimeout = 20 * time.Second

// probe submits one op at every live party and waits for all acks: when it
// returns, every link is dialed and every party has committed a slot. The
// probe ops use a reserved stream and carry no op id, so the checker
// ignores them.
func (c *cluster) probe() error {
	ctx, cancel := context.WithTimeout(c.ctx, probeTimeout)
	defer cancel()
	if c.w.fba {
		_, err := c.decide(ctx, -1, fbaInputs(0, -1))
		return err
	}
	errc := make(chan error, len(c.live))
	for _, id := range c.live {
		p := c.parties[id]
		go func() {
			_, err := p.eng.Submit(ctx, []byte("probe"), nil)
			errc <- err
		}()
	}
	var first error
	for range c.live {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// setUp builds a cluster and probes it, returning the time both took: the
// benchmark's setup_s.
func setUp(w workload, seed int64, traced bool) (*cluster, time.Duration, error) {
	t0 := time.Now()
	c, err := newCluster(w, seed, traced)
	if err != nil {
		return nil, 0, err
	}
	if err := c.probe(); err != nil {
		c.close()
		return nil, 0, fmt.Errorf("set-up probe: %w", err)
	}
	return c, time.Since(t0), nil
}
