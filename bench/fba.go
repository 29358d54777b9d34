package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"asyncft/internal/core"
	"asyncft/internal/runtime"
)

const fbaSession = "bench/fba"

// fbaInputs derives decision d's four distinct inputs from the seed. With
// no majority among them, FBA cannot shortcut at step 5 and runs
// FairChoice → CoinFlip → SVSS every time.
func fbaInputs(seed int64, d int) [numParties][]byte {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(d)))
	var in [numParties][]byte
	for i := range in {
		in[i] = make([]byte, 32)
		rng.Read(in[i])
		binary.BigEndian.PutUint32(in[i], uint32(i)) // distinct whatever the draw
	}
	return in
}

// fbaRec is one decision: when it started and when the last party output.
type fbaRec struct {
	start, end int64 // ns since the load started
	timedOut   bool  // some party had no output within ackTimeout
	inputs     [numParties][]byte
	outputs    [numParties][]byte
}

// decide runs FBA decision d at every party concurrently and returns the
// parties' outputs once all have decided. d < 0 is the set-up probe.
func (c *cluster) decide(ctx context.Context, d int, inputs [numParties][]byte) ([numParties][]byte, error) {
	var sess string
	if d < 0 {
		sess = runtime.SubSession(fbaSession, "probe")
	} else {
		sess = runtime.SubSession(fbaSession, d)
	}
	type out struct {
		id  int
		val []byte
		err error
	}
	outc := make(chan out, len(c.live))
	for _, id := range c.live {
		p := c.parties[id]
		go func() {
			cfg := fbaConfig()
			cfg.Metrics = p.reg
			c.rec.Begin(p.id, sess, "fba")
			v, err := core.FBA(ctx, c.ctx, p.env, sess, inputs[p.id], cfg)
			c.rec.End(p.id, sess, "fba")
			outc <- out{id: p.id, val: v, err: err}
		}()
	}
	var outputs [numParties][]byte
	var first error
	for range c.live {
		o := <-outc
		outputs[o.id] = o.val
		if o.err != nil && first == nil {
			first = fmt.Errorf("party %d: %w", o.id, o.err)
		}
	}
	return outputs, first
}

// runFBA decides back to back, one decision in flight, until stopped. A
// decision some party does not finish within ackTimeout is abandoned and
// counts as a failed op; any other error ends the run.
func runFBA(c *cluster, seed int64, start time.Time, stopped *atomic.Bool) ([]fbaRec, error) {
	var recs []fbaRec
	for d := 0; !stopped.Load(); d++ {
		r := fbaRec{inputs: fbaInputs(seed, d)}
		ctx, cancel := context.WithTimeout(c.ctx, ackTimeout)
		r.start = int64(time.Since(start))
		outputs, err := c.decide(ctx, d, r.inputs)
		r.end = int64(time.Since(start))
		timedOut := ctx.Err() != nil && c.ctx.Err() == nil
		cancel()
		switch {
		case err != nil && timedOut:
			r.timedOut = true
			fmt.Fprintf(os.Stderr, "bench: decision %d abandoned: %v\n", d, err)
		case err != nil:
			return recs, fmt.Errorf("decision %d: %w", d, err)
		default:
			r.outputs = outputs
			c.decisions.Add(1)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// checkFBA verifies agreement and validity of every completed decision: all
// parties output the same value, and it is one of the decision's inputs.
func checkFBA(recs []fbaRec) error {
	for d, r := range recs {
		if r.timedOut {
			continue
		}
		for i := 1; i < numParties; i++ {
			if !bytes.Equal(r.outputs[i], r.outputs[0]) {
				return fmt.Errorf("decision %d: party %d output %x, party 0 output %x", d, i, r.outputs[i], r.outputs[0])
			}
		}
		valid := false
		for _, in := range r.inputs {
			valid = valid || bytes.Equal(in, r.outputs[0])
		}
		if !valid {
			return fmt.Errorf("decision %d: output %x is no party's input", d, r.outputs[0])
		}
	}
	return nil
}
