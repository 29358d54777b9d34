// Package asyncft is a Go implementation of "Revisiting Asynchronous Fault
// Tolerant Computation with Optimal Resilience" (Abraham, Dolev, Stern,
// PODC 2020): asynchronous fault-tolerant protocols with optimal resilience
// n ≥ 3t+1 in the information-theoretic setting, built entirely on the Go
// standard library.
//
// The library provides:
//
//   - CoinFlip — an ε-biased, almost-surely terminating strong common coin
//     (the paper's Algorithm 1): all parties always agree on the outcome,
//     and each outcome has probability ≥ 1/2 − ε.
//
//   - FairChoice — agreement on one of m elements such that any majority
//     subset wins with probability ≥ 1/2 (Algorithm 2).
//
//   - FairBA — multivalued Byzantine agreement with fair validity: a
//     unanimous honest input always wins, and otherwise some honest party's
//     input wins with probability ≥ 1/2 (Algorithm 3) — the first such
//     protocol in the information-theoretic setting.
//
//     A call of any of the three leaves nothing behind: each is a scope
//     with a termination gadget (internal/core) — a party announces its
//     output, t+1 matching announcements let a party that is behind adopt
//     it (by agreement it is the protocol's output), and n−t of them
//     release the call's whole session tree (mailboxes, helper goroutines,
//     a tombstone for late frames), since whoever is still running then
//     terminates by adoption. A node's memory does not grow with the
//     number of decisions it has made.
//
//   - The full substrate stack: Bracha reliable broadcast, shunning
//     verifiable secret sharing, weak common coins, almost-surely
//     terminating binary agreement, and the CommonSubset protocol
//     (Algorithm 4), each usable on its own.
//
//   - An executable rendition of the paper's Section 2 lower bound
//     (Theorem 2.2): a terminating AVSS for n = 4, t = 1 together with the
//     attacks that break its correctness, demonstrating why the upper-bound
//     protocols must be "almost surely" rather than "surely" terminating.
//
//   - ACS-based atomic broadcast (RunAtomicBroadcast, internal/acs):
//     asynchronous total-order broadcast in the BKR/HoneyBadgerBFT lineage
//     — per slot, every party A-Casts its payload batch, the slot commits
//     all n batches after one confirmation round when every broadcast
//     delivers everywhere and the ≥ n−t contributors CommonSubset agrees
//     on otherwise, and the agreed batches form one replicated,
//     deduplicated ledger, with slots pipelined width-bounded. One
//     shard.Engine per party drives every static ledger — plain, resumed
//     and sharded alike, so Shards, Resume and the batch source (Payloads
//     or Cluster.Submit) are parameters that combine, not modes that
//     exclude each other — always in the fastest sound configuration.
//     Batches of at least rbc.DefaultCodedThreshold bytes
//     are A-Cast by digest dispersal (internal/rbc.RunCoded; "coded" is
//     the path's historical name): the batch crosses each link once, in
//     the sender's INIT, and ECHO and READY carry its SHA-256 instead of
//     the bytes, cutting per-party broadcast bandwidth from O(n·|m|) to
//     O(|m| + n·digest) — measured 4.5–8.9× fewer bytes per party at
//     1–64 KiB batches (experiment E12). A party whose READY quorum
//     completes before the batch reaches it pulls it from t+1 parties
//     that echoed the digest, one of which is nonfaulty and holds it.
//     Dispersal is chosen by batch size alone; classic echo for large
//     values is an oracle the experiments and acs tests configure
//     (rbc.Options.CodedThreshold).
//
//   - An agreement core with three stackable optimizations (internal/acs,
//     internal/ba, internal/core), none load-bearing for safety. Every
//     ledger the public API or cmd/node starts runs all three; the slower
//     modes are core.Config values the experiments (E12, E16) and the
//     differential tests hand to acs.Run* as oracles, not deployment
//     switches. The unanimous-slot fast path (core.Config.FastPath)
//     commits a slot whose n A-Casts all delivered with one FAST(digest)
//     confirmation round and zero BA instances, falling back to full
//     CommonSubset agreement on any SLOW vote, digest mismatch or timeout
//     — measured 2.5–4× slots/s at n = 8–16 (experiment E16). BCA rounds
//     (ba.Options.UseBCA) replace the two-phase inner ABA round with
//     MMR-style BV-broadcast + AUX, reusing round-r AUX votes as round-r+1
//     VAL credit; FastPath forces this engine, whose deterministic
//     unanimous-input validity the fallback's safety argument requires.
//     The guided coin schedule (core.Config.CoinsFor, applied only over
//     the BCA engine, whose BV validity makes a deterministic schedule
//     sound) fixes the first two coin values to 1 then 0 so unanimous
//     instances decide deterministically without invoking a coin
//     protocol, and
//     core.Config.SharedCoin amortizes one weak-coin flip per (slot,
//     round) across all n BA instances. Instrumentation is the obs
//     series on core.Config.Metrics (acs_fastpath_hits_total,
//     acs_fastpath_fallbacks_total, ba_decisions_total, ba_rounds_total)
//     and an optional trace.Recorder.
//
//   - General asynchronous MPC (Compute, internal/mpc): an
//     arithmetic-circuit evaluation engine over the shared field. Inputs
//     are dealt via SVSS with a CommonSubset-agreed contributor core set;
//     linear gates (Add, Sub, MulConst, AddConst) evaluate locally on
//     shares; Mul gates run Beaver-style degree reduction against
//     preprocessed triples (random mask sharings aggregated over a core
//     set, products reduced by GRR re-sharing, every triple certified by
//     a sacrifice check that turns corrupted preprocessing into an abort
//     instead of a wrong output). All of a circuit layer's masked
//     openings travel in a single per-party message through the one
//     batched reconstruction path (svss.RunRecBatch, error-corrected via
//     internal/rs), and triple preprocessing for the next layer overlaps
//     the current layer's openings — measured ~3–4× faster than
//     gate-at-a-time evaluation under latency-bound schedules
//     (experiment E13). Openings are fully robust at t < n/4 and
//     detect-and-abort at the optimal t < n/3; secure aggregation
//     (SecureSum) is a one-gate circuit on the same engine.
//
//   - State transfer & recovery (SyncFrom, AtomicBroadcastSpec.Resume,
//     internal/statesync): digest-verified ledger snapshot transfer for
//     lagging and restarted replicas. Every ledger run records committed
//     slots into a digest chain (chain(k+1) = SHA-256(chain(k) ‖ slot k))
//     and serves ranged snapshot chunks from it concurrently with live
//     slots, over the coded broadcast's generalized pull machinery —
//     full bytes below the coded threshold, per-server Reed–Solomon
//     fragments above it. A catching-up replica trusts only a head
//     reported identically by t+1 parties, verifies every chunk against
//     its digest and re-chains it onto its own prefix — concurrently
//     with the live slots its engine runs from its start cursor on,
//     without replaying any A-Cast. A
//     Byzantine snapshot server (LyingSnapshotServer,
//     WrongBytesSnapshotServer) can cause at most a rejected response and
//     a retry against another peer. Experiment E14 measures catch-up
//     latency against lag depth: ~5× fewer bytes per slot than live
//     agreement at 64 KiB batches.
//
//   - Dynamic membership (AtomicBroadcastSpec.DynamicMembership,
//     Cluster.Reconfigure, internal/reconfig): the member set of an
//     atomic-broadcast run is itself replicated state. Membership
//     operations (add/remove a party) are submitted as ordered ledger
//     entries, and every replica folds the committed operations into the
//     same epoch schedule: an operation applies only when one slot's
//     committed entries carry it from ≥ t+1 distinct contributors (so a
//     Byzantine member can neither admit colluders nor evict honest
//     parties on its own), and a processed operation from slot k reshapes
//     the member set at slot k+lag, so all parties cross the same epoch
//     boundary at the same slot. The lifecycle of one switch E_i → E_i+1
//     (boundary at slot s, operation processed at slot s−lag): (1) the
//     admission gate quiesces at slot s and in-flight slots below s
//     drain; (2) the ≥ 2t+1 surviving members of E_i re-share each
//     SVSS-pooled secret to the members of E_i+1 — Lagrange at zero over
//     the old shares, the secrets never reconstructed in the clear, the
//     dealt values checked against the old sharing's Reed–Solomon code
//     before installation (a corrupt re-deal aborts loudly with
//     reconfig.ErrReshareCheck instead of drifting the pool); (3) the
//     per-epoch group re-keys: virtual party indices, session routes and
//     transport peer tables are rebuilt for the E_i+1 member set; (4) a
//     joiner
//     bootstraps slots [0, s) via state transfer from t+1-agreed heads
//     of the E_i quorum, then participates live; (5) E_i+1 runs slot s
//     onward, while removed parties drain their frames and follow the
//     ledger as observers.
//
//     Final ledgers stay bit-identical across genesis members, joiners
//     and retirees; a rolling replacement of the entire genesis set
//     during one run is the acceptance scenario, and experiment E15
//     measures the switch cost (tens of milliseconds at m ≤ 10, with
//     slots/s retention ≈ 1).
//
//   - Sharded scale-out & a serving plane (AtomicBroadcastSpec.Shards,
//     Cluster.Submit, internal/shard): S independent store-backed ledger
//     shards — each its own acs.RunFrom slot pipeline, snapshot server
//     and (for a resumed party) catch-up — run over one shared transport
//     and party set, multiplexed by session namespacing. Client operations are routed to a shard by
//     a deterministic FNV-1a hash of their stream id (sequential
//     consistency per shard and per stream; no ordering across shards —
//     that independence is what multiplies throughput, measured ~4.7×
//     client-ops/s at S=8 over S=1 under 1–4 ms links, experiment E17).
//     A per-party serving engine admits ops into bounded per-shard
//     queues (full queue → ErrOverloaded, backpressure instead of
//     silent drops), places each op exactly once via its (origin, seq)
//     identity with requeue on a lost slot race, and acks submitters
//     with the op's committed (shard, slot, index) position — derived
//     from committed bytes only, hence identical at every party; op
//     batches decode under package-constant caps so Byzantine junk
//     vanishes identically everywhere. cmd/node -serve (with any
//     -shards and -resume) opens an HTTP front door (POST /submit long-polls for the
//     position ack, 429 on overload; GET /log streams the committed
//     ops). Committed slots are retired: once n−t parties have announced
//     a cursor more than a pipeline window past a slot, its session tree
//     is released (helpers end, late frames are dropped), so a node's
//     sessions, goroutines and heap follow the window, not the ledger's
//     length; a party a quorum has left behind fetches what it lacks
//     from the stores by state transfer while its live slots go on.
//
//   - A batched multi-session pipeline (RunBatch with CoinFlipSpec,
//     BinaryAgreementSpec, ShareAndReconstructSpec): K independent protocol
//     instances multiplexed over one network by session namespacing, so the
//     cluster pays setup once and overlaps per-instance latency instead of
//     serializing it. The optimistic reconstruction hot path runs on a
//     precomputed-Lagrange fast path (internal/field.Domain) that is
//     bit-identical to, and ~5× faster than, per-call weight recomputation.
//
//   - A unified observability plane (internal/obs, internal/trace): a
//     stdlib-only metrics registry — counters, gauges, fixed-bucket
//     histograms, single-label vecs, alloc-free on update hot paths —
//     exposed in Prometheus text format, with an operational HTTP
//     endpoint (/metrics, /healthz, /readyz, /debug/pprof) served by
//     cmd/node's -obs flag; readiness means "connected to ≥ n−t peers
//     and, when resuming, state transfer caught up". Every layer
//     (transport, runtime, rbc, ba, acs, mpc, statesync, reconfig)
//     registers its series on one shared registry via core.Config.Metrics,
//     and slot-lifecycle spans (dispersal → confirm → agree) recorded
//     through trace.Recorder export as Chrome-trace JSON (-tracefile).
//
// Everything runs over a simulated asynchronous network (package
// internal/network) whose message scheduling the test harness fully
// controls — FIFO, seeded random reordering, or targeted adversarial holds —
// plus a library of Byzantine party behaviors.
//
// # Quick start
//
//	cluster, err := asyncft.New(asyncft.Config{N: 4, T: 1, Seed: 42})
//	if err != nil { ... }
//	defer cluster.Close()
//	coin, err := cluster.CoinFlip("demo")       // strong common coin
//	winner, err := cluster.FairBA("election", map[int][]byte{
//		0: []byte("a"), 1: []byte("b"), 2: []byte("c"), 3: []byte("d"),
//	})
//	results, err := cluster.RunBatch(0,         // batched pipeline
//		asyncft.CoinFlipSpec("flip/0"),
//		asyncft.CoinFlipSpec("flip/1"),
//		asyncft.ShareAndReconstructSpec("deal", 0, 4242),
//	)
//
// See examples/ for runnable programs and EXPERIMENTS.md for the harness
// that reproduces every quantitative claim of the paper.
//
// # Static verification
//
// The invariants that are easiest to break silently — bit-identical
// canonical encodings (no map iteration into digests or wire bytes),
// pooled-buffer ownership (wire.GetBuf/PutBuf pairing, zero-copy payload
// aliasing), protocol goroutine lifetimes, canonical session derivation
// (SubSession, never ad-hoc fmt.Sprintf), and field.Elem arithmetic
// discipline — are machine-checked by the asyncftvet analyzer suite
// (internal/analysis, cmd/asyncftvet). CI runs it on every push:
//
//	go build -o "$(go env GOPATH)/bin/asyncftvet" ./cmd/asyncftvet
//	go vet -vettool=$(which asyncftvet) ./...
//
// Intentional exceptions are suppressed in place with a mandatory reason
// via "//asyncftvet:ignore <analyzer> <reason>"; suppressions are counted
// in CI so they stay visible.
package asyncft
