package core

import (
	"context"
	"fmt"
	"sync"

	"asyncft/internal/rbc"
	"asyncft/internal/runtime"
)

// msgOutput is the termination gadget's one message: OUTPUT(v), "v is my
// output of this call". It travels on the call's own "out" sub-session.
const msgOutput uint8 = 1

// call is one party's view of one scoped call's output: its own, or the
// one it adopted, whichever came first (they are equal, by agreement).
type call struct {
	env     *runtime.Env
	outSess string

	once sync.Once
	out  []byte
	done chan struct{} // closed once out is set
}

// output fixes this party's output, first caller wins, and announces it to
// everyone.
func (c *call) output(v []byte) {
	c.once.Do(func() {
		c.out = v
		close(c.done)
		c.env.SendAll(c.outSess, msgOutput, v)
	})
}

// listen tallies OUTPUT votes until n−t parties vouch for one value, which
// it reports as true, or the scope ends. Each party has one vote — its
// first well-formed OUTPUT — so t liars put at most t votes behind any
// value and reach neither threshold, and the tally holds at most n values
// of at most the A-Cast cap each. At t+1 matching votes the value is
// adopted as this party's output: one of the voters is nonfaulty and every
// nonfaulty party that completes outputs the same value (Definitions 3.1,
// 4.1), so this is the value the party's own run would end with.
func (c *call) listen(scope context.Context, box *runtime.Mailbox) bool {
	n, t := c.env.N, c.env.T
	voted := make([]bool, n)
	votes := make(map[string]int, 1)
	for {
		msg, err := box.Recv(scope)
		if err != nil {
			return false
		}
		if msg.Type != msgOutput || msg.From < 0 || msg.From >= n || voted[msg.From] || len(msg.Payload) > rbc.MaxValueSize {
			continue
		}
		voted[msg.From] = true
		k := votes[string(msg.Payload)] + 1
		votes[string(msg.Payload)] = k
		if k == t+1 {
			c.output(msg.Payload)
		}
		if k >= n-t {
			return true
		}
	}
}

// scoped runs body as one call of an exported entry point rooted at
// session, and gives the call an end: everything it starts is released
// once n−t parties have output, instead of living as long as helperCtx.
//
// body gets two contexts. Its first bounds this party's own run, as the
// caller's ctx did; its second, the scope, takes the place of helperCtx for
// every sub-protocol body starts. Beside body a termination gadget listens
// on session/out: when body returns v the party sends OUTPUT(v) to all;
// t+1 matching OUTPUT(v) make a party that has no output yet adopt v and
// send OUTPUT(v) itself; n−t matching OUTPUT(v) end the scope and the run
// and release the session tree (runtime.Node.Release). scoped returns as
// soon as this party has an output, its own or adopted; the gadget stays
// behind under helperCtx, and so does body when the output was adopted —
// an adopter keeps taking part until the release, because fewer than t+1
// nonfaulty parties may have output yet and the rest still need it.
//
// Why a party may stop helping at n−t votes: at least t+1 of the voters
// are nonfaulty and sent their OUTPUT to everyone, so every party still
// running reaches t+1 matching votes and terminates by adoption whatever
// this party does next. The gadget draws no randomness and forks no Env.
func scoped(ctx, helperCtx context.Context, env *runtime.Env, session string,
	body func(ctx, scope context.Context) ([]byte, error)) ([]byte, error) {
	c := &call{env: env, outSess: runtime.SubSession(session, "out"), done: make(chan struct{})}
	scope, endScope := context.WithCancel(helperCtx)
	run, endRun := context.WithCancel(ctx)
	box := env.Node.Mailbox(c.outSess)
	go func() {
		quorum := c.listen(scope, box)
		endScope()
		endRun()
		if quorum {
			env.Node.Release(session)
		}
	}()
	failed := make(chan error, 1)
	go func() {
		v, err := body(run, scope)
		if err != nil {
			failed <- err
			return
		}
		c.output(v)
	}()
	var err error
	select {
	case <-c.done:
	case err = <-failed:
	case <-ctx.Done():
		err = fmt.Errorf("%s: %w", session, ctx.Err())
	}
	select {
	case <-c.done:
		// Also when the run failed: it was adopted, then released, and the
		// run ended on its closed mailboxes.
		return c.out, nil
	default:
		return nil, err
	}
}
