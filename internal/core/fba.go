package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"asyncft/internal/commonsubset"
	"asyncft/internal/rbc"
	"asyncft/internal/runtime"
)

// FBA runs Algorithm 3: multivalued Byzantine agreement with fair validity
// (Definition 4.1). If all nonfaulty parties input the same value, that
// value is the output; otherwise, with probability at least 1/2, the common
// output is some nonfaulty party's input (Theorem 4.5). All nonfaulty
// parties must call FBA with the same session.
//
// Steps: A-Cast the input; agree via CommonSubset on a set S of at least
// n−t delivered A-Casts; if a strict majority of the values in S coincide,
// output that value; otherwise FairChoice(|S|) picks the index of the
// winning A-Cast almost fairly — and since more than half of S is nonfaulty,
// a nonfaulty input wins with probability at least 1/2.
func FBA(ctx, helperCtx context.Context, env *runtime.Env, session string, input []byte, cfg Config) ([]byte, error) {
	cfg = cfg.withDefaults()
	return scoped(ctx, helperCtx, env, session, func(ctx, scope context.Context) ([]byte, error) {
		return fba(ctx, scope, env, session, input, cfg)
	})
}

// fba is Algorithm 3 itself, run inside FBA's scope; its FairChoice is a
// scoped call of its own. cfg is resolved by the caller.
func fba(ctx, helperCtx context.Context, env *runtime.Env, session string, input []byte, cfg Config) ([]byte, error) {
	n, t := env.N, env.T

	// Step 1: A-Cast the input, participate in everyone's A-Cast.
	acastSess := func(j int) string { return runtime.SubSession(session, "acast", j) }
	pred := commonsubset.NewPredicate()
	var mu sync.Mutex
	values := make(map[int][]byte, n)
	valueReady := make(chan int, n)
	for j := 0; j < n; j++ {
		j := j
		go func() {
			var in []byte
			if j == env.ID {
				in = input
			}
			v, err := rbc.Run(helperCtx, env, acastSess(j), j, in)
			if err != nil {
				return // abandoned broadcast (faulty sender); Q_i(j) stays 0
			}
			mu.Lock()
			values[j] = v
			mu.Unlock()
			pred.Set(j) // step 2: Q_i(j) = 1 ⟺ P_j's A-Cast completed
			valueReady <- j
		}()
	}

	// Step 3: common subset of delivered A-Casts.
	csSess := runtime.SubSession(session, "cs")
	set, err := commonsubset.Run(ctx, env, csSess, pred, n-t,
		cfg.innerCoins(helperCtx, env, csSess), commonsubset.Options{BA: cfg.BA})
	if err != nil {
		return nil, fmt.Errorf("fba %s: %w", session, err)
	}
	m := len(set)

	// Step 4: wait for every A-Cast in S (termination of A-Cast guarantees
	// delivery: some nonfaulty party saw each complete).
	need := map[int]bool{}
	mu.Lock()
	for _, j := range set {
		if _, ok := values[j]; !ok {
			need[j] = true
		}
	}
	mu.Unlock()
	for len(need) > 0 {
		select {
		case j := <-valueReady:
			delete(need, j)
		case <-ctx.Done():
			return nil, fmt.Errorf("fba %s: %w", session, ctx.Err())
		}
	}

	// Step 5: strict majority within S wins immediately.
	mu.Lock()
	counts := map[string]int{}
	byIndex := make(map[int][]byte, m)
	for _, j := range set {
		byIndex[j] = values[j]
		counts[string(values[j])]++
	}
	mu.Unlock()
	for v, c := range counts {
		if 2*c > m {
			return []byte(v), nil
		}
	}

	// Steps 6–8: almost-fair choice among S, ranked biggest-first ("0 being
	// understood as the biggest value").
	kth, err := FairChoice(ctx, helperCtx, env, runtime.SubSession(session, "fc"), m, cfg)
	if err != nil {
		return nil, fmt.Errorf("fba %s: %w", session, err)
	}
	desc := append([]int(nil), set...)
	sort.Sort(sort.Reverse(sort.IntSlice(desc)))
	winner := desc[kth]
	return byIndex[winner], nil
}
