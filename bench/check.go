package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"asyncft/internal/acs"
	"asyncft/internal/shard"
)

// settleTimeout bounds how long the checker waits for slower parties to
// commit the slots faster parties already acked ops in.
const settleTimeout = 5 * time.Second

// settle waits until every live party has committed, in every shard, each
// slot some party acked an op in — so the cross-party comparison below
// covers every acked op. A party that cannot catch up is a violation.
func settle(ctx context.Context, c *cluster, l *load) error {
	need := make([]int, c.w.shards) // per shard: highest acked slot + 1
	l.each(func(op *opRec) {
		if op.state == opAcked && op.pos.Slot+1 > need[op.pos.Shard] {
			need[op.pos.Shard] = op.pos.Slot + 1
		}
	})
	ctx, cancel := context.WithTimeout(ctx, settleTimeout)
	defer cancel()
	for _, id := range c.live {
		for s, want := range need {
			st := c.parties[id].eng.Store(s)
			for st.Next() < want {
				adv := st.Advanced()
				if st.Next() >= want {
					break
				}
				select {
				case <-adv:
				case <-ctx.Done():
					return fmt.Errorf("party %d shard %d stuck at slot %d, an op was acked in slot %d", id, s, st.Next(), want-1)
				}
			}
		}
	}
	return nil
}

// checkLedger is the ledger workloads' correctness check. Per shard it
// requires the live parties' stores to be byte-identical over their common
// prefix (EncodeRange and ChainDigest), then decodes that prefix once and
// requires every acked op to sit exactly once on the ledger, at the
// (shard, slot, index) its ack named, and no rejected op to sit anywhere.
// Identical bytes make the one decode speak for every party. It also
// asserts no shard ran out of slots.
func checkLedger(c *cluster, l *load) error {
	if err := c.failure(); err != nil {
		return err
	}
	type where struct {
		pos   shard.Pos
		count int
	}
	found := make([]where, l.count()) // op ids are dense: 0..count-1
	for s := 0; s < c.w.shards; s++ {
		common := slotsPerShard
		for _, id := range c.live {
			if n := c.parties[id].eng.Store(s).Next(); n < common {
				common = n
			}
		}
		if common >= slotsPerShard {
			return fmt.Errorf("shard %d exhausted its %d slots", s, slotsPerShard)
		}
		ref := c.parties[c.live[0]].eng.Store(s)
		refBytes, ok := ref.EncodeRange(0, common)
		refDigest, ok2 := ref.ChainDigest(common)
		if !ok || !ok2 {
			return fmt.Errorf("shard %d: party %d cannot encode its own prefix [0,%d)", s, c.live[0], common)
		}
		for _, id := range c.live[1:] {
			st := c.parties[id].eng.Store(s)
			b, ok := st.EncodeRange(0, common)
			d, ok2 := st.ChainDigest(common)
			if !ok || !ok2 || !bytes.Equal(b, refBytes) || d != refDigest {
				return fmt.Errorf("shard %d: parties %d and %d disagree on slots [0,%d)", s, c.live[0], id, common)
			}
		}
		slots, err := acs.DecodeRange(refBytes, 0, common, numParties)
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		for k, entries := range slots {
			for i, op := range shard.SlotOps(entries) {
				id, ok := opID(op.Payload)
				if !ok {
					continue
				}
				if id >= uint64(len(found)) {
					return fmt.Errorf("shard %d slot %d carries op %d, which was never submitted", s, k, id)
				}
				found[id].pos = shard.Pos{Shard: s, Slot: k, Index: i}
				found[id].count++
			}
		}
	}
	var err error
	l.each(func(op *opRec) {
		if err != nil {
			return
		}
		w := found[op.id]
		switch op.state {
		case opAcked:
			if w.count != 1 || w.pos != op.pos {
				err = fmt.Errorf("op %d acked at %+v sits %d time(s) on the ledger, last at %+v", op.id, op.pos, w.count, w.pos)
			}
		case opRejected:
			if w.count != 0 {
				err = fmt.Errorf("op %d was rejected at admission but sits at %+v", op.id, w.pos)
			}
		}
	})
	return err
}
