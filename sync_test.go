package asyncft

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

func ledgerPayload(party, slot int) []byte {
	return []byte(fmt.Sprintf("tx/p%d/s%d", party, slot))
}

// TestAtomicBroadcastResume: a party marked Resume rejoins the run as a
// restarted replica — state transfer for the skipped prefix, live
// participation after — and the built-in cross-party ledger check must
// pass with its spliced ledger included, on one shard and on two.
func TestAtomicBroadcastResume(t *testing.T) {
	const slots, rejoin = 10, 4
	for _, shards := range []int{0, 2} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c, err := New(Config{N: 4, T: 1, Seed: 5, Coin: CoinLocal, CoinRounds: 1, Timeout: 90 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ledger, err := c.RunAtomicBroadcast(AtomicBroadcastSpec{
				Session:  "resume",
				Slots:    slots,
				Width:    3,
				Shards:   shards,
				Payloads: ledgerPayload,
				Resume:   map[int]int{3: rejoin},
			})
			if err != nil {
				t.Fatal(err)
			}
			perShard := map[int]int{}
			rejoined := map[int]bool{}
			for _, e := range ledger {
				perShard[e.Shard]++
				if e.Party == 3 && e.Slot < rejoin {
					t.Fatalf("resumed party committed in a slot it skipped: %+v", e)
				}
				if e.Party == 3 && e.Slot >= rejoin {
					rejoined[e.Shard] = true
				}
			}
			for s := 0; s < shards || s == 0; s++ {
				if perShard[s] < slots*2 {
					t.Fatalf("shard %d ledger has %d entries, want ≥ %d", s, perShard[s], slots*2)
				}
				if !rejoined[s] {
					t.Fatalf("resumed party never participated post-rejoin on shard %d", s)
				}
			}
		})
	}
}

func TestRunAtomicBroadcastRejectsBadResume(t *testing.T) {
	c, err := New(Config{N: 4, T: 1, Seed: 1, Coin: CoinLocal, CoinRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for name, resume := range map[string]map[int]int{
		"too-many":    {2: 1, 3: 1},
		"zero-slot":   {3: 0},
		"past-end":    {3: 4},
		"bad-party":   {9: 1},
		"negative-id": {-1: 1},
	} {
		spec := AtomicBroadcastSpec{Session: "bad/" + name, Slots: 4, Payloads: ledgerPayload, Resume: resume}
		if _, err := c.RunAtomicBroadcast(spec); err == nil {
			t.Fatalf("%s: invalid Resume accepted", name)
		}
	}
}

// TestSyncFromMatchesLedger: the verified range a fresh client pulls must
// carry exactly the committed slot contents of the run, whether the run
// drew its batches from Payloads or from Submit.
func TestSyncFromMatchesLedger(t *testing.T) {
	const slots = 6
	c, err := New(Config{N: 4, T: 1, Seed: 7, Coin: CoinLocal, CoinRounds: 1, Timeout: 90 * time.Second, SyncChunkSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.SyncFrom("unknown", 0, 0, slots); err == nil {
		t.Fatal("unknown session accepted")
	}
	runs := map[string]func() ([]LedgerEntry, error){
		"payloads": func() ([]LedgerEntry, error) {
			return c.RunAtomicBroadcast(AtomicBroadcastSpec{Session: "sf/payloads", Slots: slots, Payloads: ledgerPayload})
		},
		"submit": func() ([]LedgerEntry, error) {
			acks := make(chan error, 4)
			for p := 0; p < 4; p++ {
				p := p
				go func() {
					_, err := c.Submit("sf/submit", p, []byte("stream"), []byte(fmt.Sprintf("op-%d", p)))
					acks <- err
				}()
			}
			ledger, err := c.RunAtomicBroadcast(AtomicBroadcastSpec{Session: "sf/submit", Slots: slots, Width: 1})
			for p := 0; p < 4 && err == nil; p++ {
				err = <-acks
			}
			return ledger, err
		},
	}
	for name, run := range runs {
		ledger, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ledger) == 0 {
			t.Fatalf("%s: empty ledger", name)
		}
		got, err := c.SyncFrom("sf/"+name, 0, 0, slots)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Every ledger entry must appear in the synced range with identical
		// bytes (the synced range is pre-dedup, so it may hold repeats;
		// these workloads have none).
		if len(got) != len(ledger) {
			t.Fatalf("%s: synced %d entries, ledger has %d", name, len(got), len(ledger))
		}
		for i, e := range ledger {
			g := got[i]
			if g.Slot != e.Slot || g.Party != e.Party || !bytes.Equal(g.Payload, e.Payload) {
				t.Fatalf("%s: entry %d: synced %+v, ledger %+v", name, i, g, e)
			}
		}
	}
}

// TestSyncFromByzantineSnapshotServers is the Cluster-level Byzantine
// snapshot-server coverage: one corrupted party runs a hostile server —
// a forged-ledger liar (stale heads, forged chunks) or a wrong-bytes /
// truncated-range pull responder — and both SyncFrom and a resumed-style
// fetch must reject every hostile response and return the honest range.
func TestSyncFromByzantineSnapshotServers(t *testing.T) {
	const slots = 6
	cases := map[string]func(session string) Behavior{
		"lying-server": LyingSnapshotServer,
		"wrong-bytes":  WrongBytesSnapshotServer,
	}
	for name, mk := range cases {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			session := "byz-" + name
			c, err := New(Config{
				N: 4, T: 1, Seed: 11, Coin: CoinLocal, CoinRounds: 1,
				Timeout: 90 * time.Second, SyncChunkSlots: 2,
				Byzantine: map[int]Behavior{3: mk(session)},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ledger, err := c.RunAtomicBroadcast(AtomicBroadcastSpec{
				Session: session, Slots: slots, Payloads: ledgerPayload,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.SyncFrom(session, 0, 0, slots)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(ledger) {
				t.Fatalf("synced %d entries under %s, ledger has %d", len(got), name, len(ledger))
			}
			for i, e := range ledger {
				if !bytes.Equal(got[i].Payload, e.Payload) {
					t.Fatalf("hostile server corrupted entry %d", i)
				}
			}
			if _, err := c.SyncFrom(session, 3, 0, slots); err == nil {
				t.Fatal("SyncFrom at the Byzantine party accepted")
			}
		})
	}
}
