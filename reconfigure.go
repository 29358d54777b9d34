package asyncft

import (
	"context"
	"fmt"
	"sort"

	"asyncft/internal/acs"
	"asyncft/internal/field"
	"asyncft/internal/reconfig"
	"asyncft/internal/runtime"
)

// MembershipChange is one dynamic-membership operation: from slot Slot on,
// every current member submits it with its slot batches until the schedule
// processes it. An operation applies only when the committed entries of
// one slot carry it from ≥ t+1 distinct members — met automatically here,
// since the cluster feeds every member the same operation — and the
// processed operation reshapes the member set Lag slots later.
// Addr is an advisory transport address for the added party, surfaced to
// deployments (cmd/node) so existing members can learn a joiner's
// endpoint; the simulated cluster ignores it.
type MembershipChange struct {
	Slot  int
	Add   bool
	Party int
	Addr  string
}

// DynamicMembership switches RunAtomicBroadcast into epoch-based
// reconfiguration (internal/reconfig): the run starts from Genesis rather
// than the full cluster, membership operations — scheduled here or
// injected mid-run via Cluster.Reconfigure — commit as ordered ledger
// entries, and every party deterministically folds them into the same
// epoch schedule at the same slot boundaries. Parties outside the current
// member set still call into the run: joiners bootstrap via state transfer
// before their first member epoch, and removed parties follow the ledger
// as observers, so the returned ledger is universal.
type DynamicMembership struct {
	// Genesis is the sorted epoch-0 member set (≥ reconfig.MinMembers
	// parties, a subset of the cluster).
	Genesis []int
	// Lag is the activation delay in slots for committed operations
	// (default 2, min 1); it also bounds pipeline depth across an epoch
	// boundary.
	Lag int
	// Changes are membership operations scheduled before the run starts.
	Changes []MembershipChange
	// PoolSize deals this many long-lived SVSS-held secrets at genesis and
	// re-shares them onto every new member set at each boundary — the
	// "state carried across epochs" half of reconfiguration (0: none).
	PoolSize int
	// CheckPool opens the pool at genesis and after the final epoch and
	// verifies the values survived every re-deal bit-exact. Verification
	// mode only: opening destroys secrecy.
	CheckPool bool
}

func (d *DynamicMembership) validate(n int) error {
	if len(d.Genesis) < reconfig.MinMembers {
		return fmt.Errorf("asyncft: DynamicMembership genesis needs ≥ %d members, got %d",
			reconfig.MinMembers, len(d.Genesis))
	}
	if !sort.IntsAreSorted(d.Genesis) {
		return fmt.Errorf("asyncft: DynamicMembership genesis must be sorted")
	}
	for i, p := range d.Genesis {
		if p < 0 || p >= n {
			return fmt.Errorf("asyncft: genesis member %d outside cluster [0, %d)", p, n)
		}
		if i > 0 && d.Genesis[i-1] == p {
			return fmt.Errorf("asyncft: duplicate genesis member %d", p)
		}
	}
	if d.Lag < 0 {
		return fmt.Errorf("asyncft: DynamicMembership lag must be ≥ 0, got %d", d.Lag)
	}
	if d.PoolSize < 0 {
		return fmt.Errorf("asyncft: DynamicMembership pool size must be ≥ 0")
	}
	return nil
}

// Reconfigure injects a membership operation into a dynamic-membership run
// that is already in flight (or about to start): every current member will
// submit it from slot ch.Slot on until the schedule processes it, which
// gives the operation its ≥ t+1 distinct-contributor endorsement in the
// first slot that commits after it falls due. The session must name a
// RunAtomicBroadcast call with DynamicMembership set; operations that
// would violate the schedule's guard rails (unknown party, shrinking below
// the minimum, starving the re-share quorum) are submitted but
// deterministically ignored by every party.
func (c *Cluster) Reconfigure(session string, ch MembershipChange) error {
	c.runMu.Lock()
	run := c.runs["abc/"+session]
	c.runMu.Unlock()
	if run == nil || run.src == nil {
		return fmt.Errorf("asyncft: Reconfigure %q: no dynamic-membership run registered", session)
	}
	run.src.Schedule(reconfig.ScheduledChange{
		Slot:   ch.Slot,
		Change: reconfig.Change{Add: ch.Add, Party: ch.Party, Addr: ch.Addr},
	})
	return nil
}

// runDynamicMembership is the DynamicMembership path of
// RunAtomicBroadcast. Beyond the static path's bit-identical-ledger check
// it verifies that every honest party derived the same final member set
// and — under CheckPool — that the opened pool values agree across parties
// and across epochs.
func (c *Cluster) runDynamicMembership(spec AtomicBroadcastSpec) ([]LedgerEntry, error) {
	d := spec.DynamicMembership
	if err := d.validate(c.cfg.N); err != nil {
		return nil, err
	}
	if len(spec.Resume) > 0 {
		return nil, fmt.Errorf("asyncft: DynamicMembership is incompatible with Resume (joiners bootstrap via the schedule)")
	}
	if spec.Shards > 0 {
		return nil, fmt.Errorf("asyncft: DynamicMembership is incompatible with Shards")
	}
	sess := "abc/" + spec.Session

	src := reconfig.NewSource()
	for _, ch := range d.Changes {
		src.Schedule(reconfig.ScheduledChange{
			Slot:   ch.Slot,
			Change: reconfig.Change{Add: ch.Add, Party: ch.Party, Addr: ch.Addr},
		})
	}
	if err := c.registerRun(sess, &ledgerRun{src: src, syncName: sess}); err != nil {
		return nil, err
	}

	syncOpts := c.cfg.syncOptions()
	res := c.run(func(ctx context.Context, env *runtime.Env) (interface{}, error) {
		var input func(int) []byte
		if spec.Payloads != nil {
			id := env.ID
			input = func(slot int) []byte { return spec.Payloads(id, slot) }
		}
		return reconfig.Run(ctx, c.ctx, env, reconfig.Options{
			Session:   sess,
			Genesis:   d.Genesis,
			Lag:       d.Lag,
			Slots:     spec.Slots,
			Width:     spec.Width,
			Input:     input,
			Core:      c.core,
			Sync:      syncOpts,
			Source:    src,
			PoolSize:  d.PoolSize,
			CheckPool: d.CheckPool,
		})
	})

	ids := make([]int, 0, len(res))
	for id := range res {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	ledgers := make(map[int][]acs.Entry, len(res))
	var refMembers []int
	var refGenesis, refFinal []field.Elem
	for _, id := range ids {
		r := res[id]
		if r.err != nil {
			return nil, fmt.Errorf("party %d: %w", id, r.err)
		}
		rr := r.value.(*reconfig.Result)
		ledgers[id] = rr.Ledger
		if refMembers == nil {
			refMembers = rr.FinalMembers
		} else if !equalIntSlices(refMembers, rr.FinalMembers) {
			return nil, fmt.Errorf("agreement violated: party %d final members %v, expected %v",
				id, rr.FinalMembers, refMembers)
		}
		var err error
		if refGenesis, err = agreePool(refGenesis, rr.PoolGenesis, id, "genesis"); err != nil {
			return nil, err
		}
		if refFinal, err = agreePool(refFinal, rr.PoolFinal, id, "final"); err != nil {
			return nil, err
		}
	}
	ref, err := acs.AgreeLedgers(ledgers)
	if err != nil {
		return nil, fmt.Errorf("atomic broadcast %s: %w", sess, err)
	}
	if d.CheckPool && d.PoolSize > 0 {
		if refGenesis == nil || refFinal == nil {
			return nil, fmt.Errorf("asyncft: pool check requested but no party reported opened values")
		}
		for i := range refGenesis {
			if refGenesis[i] != refFinal[i] {
				return nil, fmt.Errorf("asyncft: pool secret %d drifted across epochs: %v → %v",
					i, refGenesis[i], refFinal[i])
			}
		}
	}
	out := make([]LedgerEntry, len(ref))
	for i, e := range ref {
		out[i] = LedgerEntry{Slot: e.Slot, Party: e.Party, Payload: append([]byte(nil), e.Payload...)}
	}
	return out, nil
}

// agreePool folds one party's opened pool values into the reference,
// enforcing element-wise agreement among the parties that report them.
func agreePool(ref, got []field.Elem, id int, label string) ([]field.Elem, error) {
	if got == nil {
		return ref, nil
	}
	if ref == nil {
		return got, nil
	}
	if len(ref) != len(got) {
		return nil, fmt.Errorf("agreement violated: party %d %s pool size %d, expected %d",
			id, label, len(got), len(ref))
	}
	for i := range ref {
		if ref[i] != got[i] {
			return nil, fmt.Errorf("agreement violated: party %d %s pool %v, expected %v",
				id, label, got, ref)
		}
	}
	return ref, nil
}

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
