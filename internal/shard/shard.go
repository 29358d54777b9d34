// Package shard drives every atomic-broadcast ledger over a static member
// set, and scales it out horizontally: S ≥ 1 independent store-backed
// ledger shards (each its own acs.RunFrom over a slot Store, fast-path +
// BCA enabled, with its own snapshot server) run over ONE shared
// transport and party set, multiplexed purely by session namespacing —
// the same mechanism that lets slots of a single ledger pipeline. A plain
// ledger is S=1; a restarted replica is a start cursor (Options.From).
// Client submissions are routed to a shard by a deterministic hash of
// their stream id, batched into that shard's next slot, and acknowledged
// with their committed (shard, slot, index) position.
//
// A ledger's live state is its pipeline window, not its length. Every
// party announces its stores' cursors (internal/statesync), and once n−t
// parties are more than a window past a slot the engine retires it: the
// slot's whole session tree is released, its helpers end, and late frames
// for it are dropped (Engine.retire; the slot's entries stay in the
// store). The same announcements tell a party that it is behind — not
// only one that restarted with From > 0, but any live one that a quorum
// has left more than a window behind, whose peers may have retired the
// slots it is still running: it transfers them from the peers' stores
// while its live slots go on, its own runs of the transferred slots are
// cancelled, and the ops they carried are re-queued (Engine.catchUp).
// Agreement does not depend on any of this: a slot enters a store by its
// own protocol or as a chunk t+1 parties vouch for on the digest chain.
//
// The consistency contract is sequential consistency per shard and per
// stream: within a shard, every party commits the identical slot
// sequence (bit-identical stores, the acs invariant), and all of one
// client stream's operations land on the same shard (Route is a pure
// function of the stream id), so a client that pipelines on acks sees
// its own operations in submission order. There is no ordering between
// shards — that independence is exactly what multiplies throughput.
//
// The serving plane on top (Engine, engine.go) adds admission control:
// a bounded per-shard queue that rejects with ErrOverloaded when full
// (backpressure, never silent drops), and exactly-once placement per
// shard via (origin, seq) op identity — an op rides in at most one slot
// at a time and is re-proposed only if its slot committed without it.
package shard

import (
	"fmt"

	"asyncft/internal/acs"
	"asyncft/internal/wire"
)

// Route deterministically maps a client stream id onto one of shards
// ledger shards: FNV-1a (64-bit) over the stream bytes, reduced modulo
// the shard count. It is a pure function — the same stream id lands on
// the same shard at every party, across restarts and across processes —
// which is what makes per-stream ordering meaningful without any
// coordination.
func Route(stream []byte, shards int) int {
	if shards <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range stream {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % uint64(shards))
}

// Op is one client operation riding the sharded ledger.
type Op struct {
	// Origin is the front-door party that admitted the op and Seq its
	// per-origin admission sequence number; together they identify the op
	// within a session. Origin is NOT a verified author — a Byzantine
	// party can fabricate pairs — but honest front doors never reuse a
	// pair, which is all exactly-once placement needs.
	Origin, Seq int
	// Stream is the client stream id; Route(Stream, S) fixes the shard.
	Stream []byte
	// Payload is the opaque client payload.
	Payload []byte
}

// Wire caps for one op batch (one party's slot contribution). They are
// package constants, not options: every party must decode committed
// batches identically or flattened indices would diverge.
const (
	// MaxOpsPerBatch bounds the ops one slot batch may carry.
	MaxOpsPerBatch = 1024
	// MaxStreamBytes bounds a stream id.
	MaxStreamBytes = 256
	// MaxOpPayloadBytes bounds one op's payload.
	MaxOpPayloadBytes = 64 << 10
)

// EncodeOps serializes an op batch canonically (wire format). The result
// is what a shard's slot A-Casts; it must stay under acs.MaxPayloadSize,
// which the engine's per-batch op cap guarantees.
func EncodeOps(ops []Op) []byte {
	var w wire.Writer
	w.Int(len(ops))
	for _, op := range ops {
		w.Int(op.Origin)
		w.Int(op.Seq)
		w.BytesField(op.Stream)
		w.BytesField(op.Payload)
	}
	return w.Bytes()
}

// DecodeOps parses an op batch, enforcing every cap a Byzantine
// contributor could abuse. All parties apply the identical caps, so a
// batch either decodes everywhere or nowhere — the dichotomy slot
// flattening relies on.
func DecodeOps(data []byte) ([]Op, error) {
	r := wire.NewReader(data)
	cnt := r.Int()
	if r.Err() != nil || cnt < 0 || cnt > MaxOpsPerBatch {
		return nil, fmt.Errorf("shard: op batch count invalid")
	}
	ops := make([]Op, 0, cnt)
	for i := 0; i < cnt; i++ {
		origin, seq := r.Int(), r.Int()
		stream := r.BytesField(MaxStreamBytes)
		payload := r.BytesField(MaxOpPayloadBytes)
		if r.Err() != nil || origin < 0 || seq < 0 || len(stream) == 0 {
			return nil, fmt.Errorf("shard: op %d malformed", i)
		}
		ops = append(ops, Op{Origin: origin, Seq: seq, Stream: stream, Payload: payload})
	}
	return ops, nil
}

// Pos is a committed position on the sharded ledger: shard, slot, and
// index within the slot's flattened op list (see SlotOps). Positions are
// identical at every party — they are derived from committed bytes only.
type Pos struct {
	Shard, Slot, Index int
}

// SlotOps flattens one committed slot's entries (in committed party
// order, the acs invariant) into the slot's ordered client-op list. The
// op at list index i sits at Pos{shard, slot, i}. Entries whose payloads
// do not decode as op batches are skipped deterministically — the caps
// in DecodeOps are package constants, so a Byzantine contributor's junk
// vanishes identically at every party and never shifts honest indices
// differently anywhere.
func SlotOps(entries []acs.Entry) []Op {
	var out []Op
	for _, e := range entries {
		ops, err := DecodeOps(e.Payload)
		if err != nil {
			continue
		}
		out = append(out, ops...)
	}
	return out
}
