package experiments

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"asyncft/internal/acs"
	"asyncft/internal/core"
	"asyncft/internal/network"
	"asyncft/internal/runtime"
	"asyncft/internal/testkit"
)

// E12CodedBroadcast measures A-Cast's digest dispersal against classic
// full-value echo inside E11's pipelined atomic-broadcast ledger (n = 4,
// t = 1, latency-bound network.Delay links). For each batch size |m| ∈
// {1 KiB, 16 KiB, 64 KiB} the same workload runs twice from the same seed —
// classic (rbc full-value INIT/ECHO/READY, (2n+1)·n·|m| per broadcast,
// self-sends included as the router counts them) and coded (the value once
// in INIT, SHA-256 digests in ECHO and READY, n·|m| + O(n²·33)) — and the
// router's per-link byte counters report the measured per-party broadcast
// bandwidth. Every run re-verifies replication (byte-identical ledgers at
// all parties) and content (every committed batch bit-identical to its
// proposer's input), because a bandwidth number from a corrupted or forked
// ledger would be meaningless. The headline is the per-party bandwidth
// reduction at 64 KiB, which the byte count above puts near 2n+1 = 9× at
// n = 4; the run also checks that moving fewer bytes did not cost wall
// clock there (the Reed–Solomon fragment path it replaced ran at 0.82×).
func E12CodedBroadcast(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "digest vs classic A-Cast dispersal in the pipelined ledger (n=4, t=1, 0.2–1ms link delay)",
		Claim:   "digest dispersal (value once in INIT, SHA-256 in ECHO/READY) cuts measured per-party broadcast bytes ≥6x vs classic echo at |m| = 64KiB without losing wall clock, with bit-identical ledgers",
		Columns: []string{"|m|", "mode", "bytes/party", "wall", "reduction", "wall speedup"},
	}
	cfg := core.Config{K: 1, Eps: 0.1, InnerCoin: core.InnerCoinLocal}
	const n, tf = 4, 1
	slots := 2
	if scale >= 1 {
		slots = 4
	}
	sizes := []int{1 << 10, 16 << 10, 64 << 10}

	payloadFor := func(id, slot, size int) []byte {
		p := []byte(fmt.Sprintf("e12/p%d/s%d/", id, slot))
		for len(p) < size {
			p = append(p, byte('a'+(len(p)*13+id+slot)%26))
		}
		return p[:size]
	}

	// runLedger executes one mode and returns wall clock and mean per-party
	// sent bytes, after verifying replication and content.
	runLedger := func(size int, coded bool, seed int64) (time.Duration, float64, error) {
		c := testkit.New(n, tf, testkit.WithSeed(seed),
			testkit.WithPolicy(network.NewDelay(seed, 200*time.Microsecond, time.Millisecond)),
			testkit.WithTimeout(600*time.Second))
		defer c.Close()
		mode := cfg
		if !coded {
			mode.RBC.CodedThreshold = -1
		}
		sess := runtime.SubSession("e12", size, coded)
		start := time.Now()
		res := c.Run(c.Honest(), func(ctx context.Context, env *runtime.Env) (interface{}, error) {
			return acs.Run(ctx, c.Ctx, env, sess, slots, 0, func(slot int) []byte {
				return payloadFor(env.ID, slot, size)
			}, mode)
		})
		wall := time.Since(start)
		ledgers := make(map[int][]acs.Entry, len(res))
		for id, r := range res {
			if r.Err != nil {
				return 0, 0, fmt.Errorf("party %d: %w", id, r.Err)
			}
			ledgers[id] = r.Value.([]acs.Entry)
		}
		ref, err := acs.AgreeLedgers(ledgers)
		if err != nil {
			return 0, 0, err
		}
		if len(ref) < slots*(n-tf) {
			return 0, 0, fmt.Errorf("ledger has %d entries, want ≥ %d", len(ref), slots*(n-tf))
		}
		for _, e := range ref {
			if !bytes.Equal(e.Payload, payloadFor(e.Party, e.Slot, size)) {
				return 0, 0, fmt.Errorf("slot %d party %d: committed bytes differ from proposal", e.Slot, e.Party)
			}
		}
		m := c.Router.Metrics()
		var sent uint64
		for id := 0; id < n; id++ {
			sent += m.SentBy(id)
		}
		return wall, float64(sent) / float64(n), nil
	}

	headline, headlineSpeedup := 0.0, 0.0
	seed := int64(14000)
	for _, size := range sizes {
		seed++
		classicWall, classicBytes, err := runLedger(size, false, seed)
		if err != nil {
			return nil, fmt.Errorf("E12 classic |m|=%d: %w", size, err)
		}
		codedWall, codedBytes, err := runLedger(size, true, seed)
		if err != nil {
			return nil, fmt.Errorf("E12 coded |m|=%d: %w", size, err)
		}
		reduction := classicBytes / codedBytes
		speedup := classicWall.Seconds() / codedWall.Seconds()
		if size == sizes[len(sizes)-1] {
			headline, headlineSpeedup = reduction, speedup
		}
		kib := fmt.Sprintf("%dKiB", size>>10)
		t.Rows = append(t.Rows,
			[]string{kib, "classic", fmt.Sprintf("%.0f", classicBytes), ms(classicWall), "1.00", "1.00"},
			[]string{kib, "coded", fmt.Sprintf("%.0f", codedBytes), ms(codedWall), f2(reduction), f2(speedup)},
		)
	}
	t.Notes = fmt.Sprintf("%d pipelined slots per run; bytes/party = mean over the router's per-link byte counters; every run verified byte-identical, content-exact ledgers at all parties", slots)
	t.Headline, t.HeadlineName = headline, "per-party bandwidth reduction at 64KiB"
	if headline < 6 {
		return t, fmt.Errorf("E12: per-party bandwidth reduction %.2fx < 6x at 64KiB", headline)
	}
	// Two single runs of tens of milliseconds: 0.9 leaves room for timing
	// noise (smoke-scale runs spread 1.05–2.0×) and still refuses what the
	// fragment path measured, 0.82×.
	if headlineSpeedup < 0.9 {
		return t, fmt.Errorf("E12: digest dispersal ran %.2fx the classic wall clock at 64KiB", 1/headlineSpeedup)
	}
	return t, nil
}
