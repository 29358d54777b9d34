package experiments

import (
	"context"
	"fmt"
	"time"

	"asyncft/internal/acs"
	"asyncft/internal/core"
	"asyncft/internal/network"
	"asyncft/internal/obs"
	"asyncft/internal/runtime"
	"asyncft/internal/testkit"
)

// E16AgreementCore measures the next-gen agreement core under the
// latency-bound network.Delay schedule: the unanimous-slot fast path
// (skip the n BA instances when all n A-Casts deliver) against BCA-based
// BA rounds (AUX→VAL vote reuse), swept over n. The grid has three modes,
// not four: FastPath forces the BCA engine (its safety argument needs
// BCA's deterministic unanimous-input validity — see core.Config), so a
// "fast path over classic rounds" cell is not a representable
// configuration. Each (n, mode) cell runs the same pipelined ledger from
// the same seed, so link delays and BA round luck are comparable; every
// run re-verifies byte-identical ledgers, because a throughput number
// from a forked ledger would be meaningless. The headline is the
// fast-path speedup (fast+bca slots/s over classic slots/s) at the
// largest n — the claim is ≥1.5× once the per-slot cost is dominated by
// the n BA instances the fast path skips.
func E16AgreementCore(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "E16",
		Title:   "agreement core: unanimous-slot fast path × BCA rounds (0.2–1ms link delay)",
		Claim:   "skipping the per-slot BA instances on unanimous delivery beats classic slot agreement ≥1.5× in slots/s at n ≥ 8; BCA keeps rounds/decision at the classic level with fewer per-round broadcasts",
		Columns: []string{"n", "mode", "wall", "slots/s", "fast-path", "rounds/decision"},
	}
	ns := []int{4, 8}
	if scale >= 1 {
		ns = append(ns, 12, 16)
	}
	slots := scale.trials(12)
	if slots < 6 {
		slots = 6
	}

	type mode struct {
		name     string
		fastPath bool
		bca      bool
	}
	modes := []mode{
		{"classic", false, false},
		{"bca", false, true},
		{"fast+bca", true, true},
	}

	runLedger := func(n int, m mode, seed int64) (time.Duration, *obs.Registry, error) {
		tf := (n - 1) / 3
		c := testkit.New(n, tf, testkit.WithSeed(seed),
			testkit.WithPolicy(network.NewDelay(seed, 200*time.Microsecond, time.Millisecond)),
			testkit.WithTimeout(600*time.Second))
		defer c.Close()
		reg := obs.NewRegistry() // shared across parties: the series are run aggregates
		cfg := core.Config{K: 1, Eps: 0.1, InnerCoin: core.InnerCoinLocal}
		cfg.BA.MaxRounds = 512 // local-coin splits at larger n need room, not a failsafe trip
		cfg.BA.UseBCA = m.bca
		cfg.FastPath = m.fastPath
		cfg.Metrics = reg
		sess := runtime.SubSession("e16", n, m.name)
		input := func(id int) func(int) []byte {
			return func(slot int) []byte { return []byte(fmt.Sprintf("p%d/s%d", id, slot)) }
		}
		start := time.Now()
		res := c.Run(c.Honest(), func(ctx context.Context, env *runtime.Env) (interface{}, error) {
			return acs.Run(ctx, c.Ctx, env, sess, slots, 0, input(env.ID), cfg)
		})
		wall := time.Since(start)
		ledgers := make(map[int][]acs.Entry, len(res))
		for id, r := range res {
			if r.Err != nil {
				return 0, nil, fmt.Errorf("party %d: %w", id, r.Err)
			}
			ledgers[id] = r.Value.([]acs.Entry)
		}
		if _, err := acs.AgreeLedgers(ledgers); err != nil {
			return 0, nil, err
		}
		return wall, reg, nil
	}

	// per is num/den, 0 when nothing was counted (a pure fast-path run
	// decides no BA instance at all).
	per := func(reg *obs.Registry, num, den string) float64 {
		d := reg.Total(den)
		if d == 0 {
			return 0
		}
		return reg.Total(num) / d
	}

	topN := ns[len(ns)-1]
	headline := 0.0
	seed := int64(16000)
	for _, n := range ns {
		seed++
		rate := make(map[string]float64, len(modes))
		for _, m := range modes {
			wall, reg, err := runLedger(n, m, seed)
			if err != nil {
				return nil, fmt.Errorf("E16 n=%d %s: %w", n, m.name, err)
			}
			rate[m.name] = float64(slots) / wall.Seconds()
			t.Rows = append(t.Rows, []string{
				itoa(n), m.name, ms(wall), f2(rate[m.name]),
				fmt.Sprintf("%.0f%%", 100*per(reg, "acs_fastpath_hits_total", "acs_slots_committed_total")),
				f2(per(reg, "ba_rounds_total", "ba_decisions_total")),
			})
		}
		if n == topN {
			headline = rate["fast+bca"] / rate["classic"]
		}
	}
	t.Notes = fmt.Sprintf("%d slots per cell, all modes of an n share one seed; fast-path %% is the fraction of slots committed without any BA instance, rounds/decision covers the BAs that did run (0 when the fast path skipped them all); no fast-without-bca mode exists — FastPath forces the BCA engine", slots)
	t.Headline, t.HeadlineName = headline, fmt.Sprintf("fast-path speedup over classic (n=%d)", topN)
	if scale >= 1 && topN >= 8 && headline < 1.5 {
		return t, fmt.Errorf("E16: fast-path speedup %.2fx < 1.5x at n=%d", headline, topN)
	}
	return t, nil
}
