package main

import (
	"asyncft/internal/reconfig"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// freeAddrs reserves n distinct loopback ports by listening on :0, then
// releases them for the transports to claim. The tiny window between close
// and re-listen is acceptable in a loopback test.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// launch runs one in-process node per party with the given options template
// (id and peers filled in per party) and returns each party's output.
func launch(t *testing.T, n int, mk func(id int, peers []string) options) []string {
	t.Helper()
	return launchOn(t, freeAddrs(t, n), mk)
}

// launchOn is launch with a caller-provided address list, for tests that
// need to reference a party's endpoint inside the options (e.g. a -submit
// operation carrying a joiner's address).
func launchOn(t *testing.T, peers []string, mk func(id int, peers []string) options) []string {
	t.Helper()
	n := len(peers)
	outs := make([]bytes.Buffer, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[id] = runNode(mk(id, peers), &outs[id])
		}()
	}
	wg.Wait()
	res := make([]string, n)
	for id := 0; id < n; id++ {
		if errs[id] != nil {
			t.Fatalf("party %d: %v", id, errs[id])
		}
		res[id] = outs[id].String()
	}
	return res
}

// TestE2EAtomicBroadcastLedger runs 4 in-process nodes over loopback TCP in
// -mode abc and asserts every party printed the byte-identical ledger.
func TestE2EAtomicBroadcastLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP listeners")
	}
	const n, slots = 4, 3
	outs := launch(t, n, func(id int, peers []string) options {
		return options{
			id: id, peers: peers, t: 1, mode: "abc", input: "tx",
			k: 1, batch: 1, slots: slots, width: 0, timeout: 90 * time.Second,
		}
	})
	var digest string
	for id, out := range outs {
		lines := strings.Split(strings.TrimSpace(out), "\n")
		last := lines[len(lines)-1]
		if !strings.HasPrefix(last, "ledger digest: ") {
			t.Fatalf("party %d: no digest line in output:\n%s", id, out)
		}
		if digest == "" {
			digest = last
		} else if digest != last {
			t.Fatalf("ledger digests differ:\nparty 0: %s\nparty %d: %s", digest, id, last)
		}
		// The full entry listing must replicate too, not just the digest.
		if outs[0] != out {
			t.Fatalf("ledger listings differ:\nparty 0:\n%s\nparty %d:\n%s", outs[0], id, out)
		}
		if got := strings.Count(out, "ledger["); got < slots*(n-1) {
			t.Fatalf("party %d: %d ledger entries, want ≥ %d", id, got, slots*(n-1))
		}
	}
}

// TestE2ECodedLedgerOverTCP drives digest dispersal over real sockets:
// batch prefixes longer than rbc.DefaultCodedThreshold force every slot
// A-Cast onto the above-threshold ("coded") path.
func TestE2ECodedLedgerOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP listeners")
	}
	const n, slots = 4, 2
	big := strings.Repeat("x", 2048) // every batch crosses the coded threshold
	outs := launch(t, n, func(id int, peers []string) options {
		return options{
			id: id, peers: peers, t: 1, mode: "abc", input: big,
			k: 1, batch: 1, slots: slots, width: 0, timeout: 90 * time.Second,
		}
	})
	for id, out := range outs {
		if outs[0] != out {
			t.Fatalf("coded ledger outputs differ between party 0 and party %d", id)
		}
		if got := strings.Count(out, "ledger["); got < slots*(n-1) {
			t.Fatalf("party %d: %d ledger entries, want ≥ %d", id, got, slots*(n-1))
		}
	}
}

// TestE2EFastPathLedgerOverTCP runs the unanimous-slot fast path over
// real sockets. All-honest loopback delivery means every slot should
// fast-commit the FULL contributor set (n entries per slot, strictly more
// than full agreement's n−t floor), and the listing must stay
// byte-identical.
func TestE2EFastPathLedgerOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP listeners")
	}
	const n, slots = 4, 3
	outs := launch(t, n, func(id int, peers []string) options {
		return options{
			id: id, peers: peers, t: 1, mode: "abc", input: "tx",
			k: 1, batch: 1, slots: slots, width: 0, timeout: 90 * time.Second,
		}
	})
	for id, out := range outs {
		if outs[0] != out {
			t.Fatalf("fast-path ledger outputs differ between party 0 and party %d", id)
		}
		if got := strings.Count(out, "ledger["); got != slots*n {
			t.Fatalf("party %d: %d ledger entries, want the full %d", id, got, slots*n)
		}
	}
}

// TestE2EBatchedCoinFlips runs 4 in-process nodes over loopback TCP with
// -batch 3 coin flips and asserts per-instance agreement across parties.
func TestE2EBatchedCoinFlips(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP listeners")
	}
	const n, batchK = 4, 3
	outs := launch(t, n, func(id int, peers []string) options {
		return options{
			id: id, peers: peers, t: 1, mode: "proto", protocol: "coinflip",
			k: 1, batch: batchK, timeout: 90 * time.Second,
		}
	})
	var ref []string
	for id, out := range outs {
		var coins []string
		for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
			if strings.HasPrefix(line, "[node/cf/") {
				coins = append(coins, line)
			}
		}
		sort.Strings(coins)
		if len(coins) != batchK {
			t.Fatalf("party %d: %d coin lines, want %d:\n%s", id, len(coins), batchK, out)
		}
		if ref == nil {
			ref = coins
		} else if fmt.Sprint(ref) != fmt.Sprint(coins) {
			t.Fatalf("coin outputs differ:\nparty 0: %v\nparty %d: %v", ref, id, coins)
		}
	}
}

func TestRunNodeRejectsBadOptions(t *testing.T) {
	base := options{peers: []string{"a", "b", "c", "d"}, t: 1, mode: "proto", protocol: "rbc", batch: 1}
	cases := []struct {
		name string
		mut  func(o options) options
	}{
		{"too-few-peers", func(o options) options { o.peers = o.peers[:2]; return o }},
		{"id-range", func(o options) options { o.id = 9; return o }},
		{"bad-batch", func(o options) options { o.batch = 0; return o }},
		{"bad-mode", func(o options) options { o.mode = "nope"; return o }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := runNode(c.mut(base), &bytes.Buffer{}); err == nil {
				t.Fatal("invalid options accepted")
			}
		})
	}
}

// TestE2EMPCVarianceOverTCP runs 4 in-process nodes over loopback TCP in
// -mode mpc: the parties jointly evaluate the private-variance circuit
// (n+1 Mul gates through Beaver degree reduction) and every party must
// print byte-identical aggregate outputs.
func TestE2EMPCVarianceOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP listeners")
	}
	const n = 4
	outs := launch(t, n, func(id int, peers []string) options {
		return options{
			id: id, peers: peers, t: 1, mode: "mpc",
			x: uint64(5*id + 3), k: 1, batch: 1, timeout: 90 * time.Second,
		}
	})
	for id, out := range outs {
		if outs[0] != out {
			t.Fatalf("mpc outputs differ:\nparty 0:\n%s\nparty %d:\n%s", outs[0], id, out)
		}
		if !strings.Contains(out, "mpc sum(x) = ") || !strings.Contains(out, "mpc n²·var(x) = ") {
			t.Fatalf("party %d: missing aggregate lines:\n%s", id, out)
		}
	}
	// With all four contributing, the aggregates are exact: inputs 3,8,13,18
	// give Σx = 42 and n·Σx² − (Σx)² = 4·566 − 1764 = 500.
	if !strings.Contains(outs[0], "mpc sum(x) = 42\n") {
		// The asynchronous core set may have dropped a slow party; the run
		// is still correct (agreement was checked above) but not the
		// full-participation constant.
		t.Logf("core set dropped a party; skipping exact-value check:\n%s", outs[0])
		return
	}
	if !strings.Contains(outs[0], "mpc n²·var(x) = 500\n") {
		t.Fatalf("full-participation variance mismatch:\n%s", outs[0])
	}
}

// TestE2EResumeCatchesUp32SlotLag is the restart e2e: 4 nodes over
// loopback TCP run a 36-slot ledger, with node 3 started as a restarted
// replica (-resume 32) — it has no state for slots [0, 32), catches the
// whole 32-slot lag up via statesync from its peers while they keep
// committing, participates live in the final slots, and must print the
// byte-identical ledger listing and digest.
func TestE2EResumeCatchesUp32SlotLag(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP listeners")
	}
	const n, slots, lag = 4, 36, 32
	outs := launch(t, n, func(id int, peers []string) options {
		o := options{
			id: id, peers: peers, t: 1, mode: "abc", input: "tx",
			k: 1, batch: 1, slots: slots, width: 8,
			timeout: 120 * time.Second, grace: 3 * time.Second,
		}
		if id == 3 {
			o.resume = lag
		}
		return o
	})
	var digest string
	for id, out := range outs {
		lines := strings.Split(strings.TrimSpace(out), "\n")
		last := lines[len(lines)-1]
		if !strings.HasPrefix(last, "ledger digest: ") {
			t.Fatalf("party %d: no digest line in output:\n%s", id, out)
		}
		if digest == "" {
			digest = last
		} else if digest != last {
			t.Fatalf("ledger digests differ after resume:\nparty 0: %s\nparty %d: %s", digest, id, last)
		}
		if outs[0] != out {
			t.Fatalf("ledger listings differ between party 0 and resumed-run party %d", id)
		}
		if got := strings.Count(out, "ledger["); got < slots*(n-2) {
			t.Fatalf("party %d: %d ledger entries, want ≥ %d", id, got, slots*(n-2))
		}
	}
	// The resumed party never ran slots [0, lag): every one of its entries
	// there must have arrived via verified state transfer — which the
	// byte-identical listing above already proves. Check the lag really
	// existed: the shared ledger holds committed entries in those slots.
	for slot := 0; slot < lag; slot++ {
		if !strings.Contains(outs[3], fmt.Sprintf("slot=%d ", slot)) {
			t.Fatalf("resumed party's ledger is missing slot %d", slot)
		}
	}
}

// TestE2EShardedResumeOverTCP composes the two parameters the binary used
// to reject together: 4 nodes run -shards 2, node 3 as a restarted replica
// (-resume R). It catches up both shards' prefixes via state transfer
// while running their live slots, and every node must print the same
// per-shard listings and digests.
func TestE2EShardedResumeOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP listeners")
	}
	const n, shards, slots, lag = 4, 2, 12, 8
	outs := launch(t, n, func(id int, peers []string) options {
		o := options{
			id: id, peers: peers, t: 1, mode: "abc", input: "tx",
			k: 1, batch: 1, slots: slots, width: 4, shards: shards,
			timeout: 120 * time.Second, grace: 3 * time.Second,
		}
		if id == 3 {
			o.resume = lag
		}
		return o
	})
	for id, out := range outs {
		if outs[0] != out {
			t.Fatalf("sharded listings differ between party 0 and party %d:\n%s\n---\n%s", id, outs[0], out)
		}
	}
	for s := 0; s < shards; s++ {
		if !strings.Contains(outs[3], fmt.Sprintf("shard[%d] digest: ", s)) {
			t.Fatalf("no digest line for shard %d:\n%s", s, outs[3])
		}
		// The resumed node never ran slots [0, lag) of either shard, yet
		// lists entries committed there, and its own batches (which only
		// live slots can carry) after.
		if !strings.Contains(outs[3], fmt.Sprintf("shard[%d][0] slot=0 ", s)) {
			t.Fatalf("resumed party's shard %d is missing slot 0:\n%s", s, outs[3])
		}
		own := false
		for _, l := range strings.Split(outs[3], "\n") {
			own = own || strings.HasPrefix(l, fmt.Sprintf("shard[%d][", s)) && strings.Contains(l, " party=3 ")
		}
		if !own {
			t.Fatalf("resumed party never committed a batch of its own on shard %d:\n%s", s, outs[3])
		}
	}
}

func TestRunNodeRejectsBadResume(t *testing.T) {
	peers := freeAddrs(t, 4)
	o := options{
		id: 0, peers: peers, t: 1, mode: "abc", input: "tx",
		k: 1, batch: 1, slots: 4, resume: 4, timeout: 5 * time.Second, grace: -1,
	}
	if err := runNode(o, &bytes.Buffer{}); err == nil {
		t.Fatal("resume ≥ slots accepted")
	}
}

// TestE2EDynamicMembershipChurnOverTCP is the churn e2e over real loopback
// TCP: five processes, genesis members {0,1,2,3}, with node 4 started as a
// joiner the members initially have NO address for — their -peers slot for
// it is empty. Nodes 0, 2 and 3 co-propose the join at slot 2 with node
// 4's endpoint attached — the schedule applies an operation only when
// ≥ t+1 distinct members' committed entries carry it — so the members
// learn the address from the committed operation (transport.AddPeer) and
// the joiner's statesync bootstrap converges on the retried head
// requests. Node 1 proposes its own retirement at slot 6 via -retire,
// co-signed by nodes 2 and 3 via -submit, and follows the tail as an
// observer. Every node — members, joiner,
// retiree — must print the byte-identical ledger listing, digest, and
// final member set, and the joiner's own batches must have committed.
func TestE2EDynamicMembershipChurnOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP listeners")
	}
	const n, slots = 5, 12
	allAddrs := freeAddrs(t, n)
	outs := launchOn(t, allAddrs, func(id int, peers []string) options {
		o := options{
			id: id, peers: peers, t: 1, mode: "abc", input: "tx",
			k: 1, batch: 1, slots: slots, width: 0,
			members: []int{0, 1, 2, 3},
			pace:    50 * time.Millisecond,
			timeout: 120 * time.Second, grace: 3 * time.Second,
		}
		if id != 4 {
			// Members start without the joiner's endpoint: they learn it
			// from the committed add operation, not from configuration.
			o.peers = append([]string(nil), peers...)
			o.peers[4] = ""
		}
		// Endorsement: ops apply only when ≥ t+1 distinct members carry
		// them in one committed slot, so each op is co-proposed by 2t+1
		// members (any slot core set then contains ≥ t+1 of them).
		if id == 0 || id == 2 || id == 3 {
			o.submits = mustChanges(t, fmt.Sprintf("2:+4@%s", allAddrs[4]))
		}
		if id == 1 {
			o.retire = 6
		}
		if id == 2 || id == 3 {
			o.submits = append(o.submits, mustChanges(t, "6:-1")...)
		}
		return o
	})
	_ = allAddrs
	var digest, members string
	joinerCommitted := false
	for id, out := range outs {
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if len(lines) < 2 {
			t.Fatalf("party %d: truncated output:\n%s", id, out)
		}
		dl, ml := lines[len(lines)-2], lines[len(lines)-1]
		if !strings.HasPrefix(dl, "ledger digest: ") || !strings.HasPrefix(ml, "final members: ") {
			t.Fatalf("party %d: missing digest/members lines:\n%s", id, out)
		}
		if digest == "" {
			digest, members = dl, ml
		} else if digest != dl || members != ml {
			t.Fatalf("outputs diverge:\nparty 0: %s / %s\nparty %d: %s / %s", digest, members, id, dl, ml)
		}
		if outs[0] != out {
			t.Fatalf("ledger listings differ between party 0 and party %d", id)
		}
		if strings.Contains(out, `payload="tx/p4/`) || strings.Contains(out, "tx/p4/") {
			joinerCommitted = true
		}
	}
	if !strings.Contains(members, "[0 2 3 4]") {
		t.Fatalf("final member set %q, want [0 2 3 4]", members)
	}
	if !joinerCommitted {
		t.Fatal("joiner's own batches never committed")
	}
}

// httpGet fetches a URL with a short timeout, returning (0, "") when the
// server is not reachable — poll loops treat that as "not yet".
func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	c := &http.Client{Timeout: 2 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return 0, ""
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestE2EObservabilityEndpoint drives the full observability plane over
// loopback TCP: 4 nodes in -mode abc, each serving its
// operational HTTP endpoint (-obs) and dumping Chrome-trace JSON
// (-tracefile). It asserts the readiness lifecycle — /healthz answers
// immediately, /readyz stays 503 while the node lacks its n−t peer quorum
// and flips to 200 once the cluster connects — then scrapes /metrics
// mid-run for Prometheus series from every instrumented layer, and
// finally validates each party's trace file as Chrome-trace JSON with
// paired slot spans.
func TestE2EObservabilityEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns TCP listeners and HTTP servers")
	}
	const n, slots = 4, 3
	peers := freeAddrs(t, n)
	obsAddrs := freeAddrs(t, n)
	dir := t.TempDir()
	traceFile := func(id int) string { return filepath.Join(dir, fmt.Sprintf("trace-%d.json", id)) }
	mk := func(id int) options {
		return options{
			id: id, peers: peers, t: 1, mode: "abc", input: "tx",
			k: 1, batch: 1, slots: slots, width: 0,
			timeout: 90 * time.Second, grace: 5 * time.Second,
			obsAddr: obsAddrs[id], traceFile: traceFile(id),
		}
	}
	outs := make([]bytes.Buffer, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	startNode := func(id int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[id] = runNode(mk(id), &outs[id])
		}()
	}

	// Phase 1: node 0 alone. Its endpoint must serve /healthz as soon as
	// it is up, and /readyz must refuse while the peer quorum is missing.
	startNode(0)
	base := "http://" + obsAddrs[0]
	deadline := time.Now().Add(15 * time.Second)
	for {
		if code, _ := httpGet(t, base+"/healthz"); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("obs endpoint never served /healthz")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code, body := httpGet(t, base+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with no peers connected: %d %q, want 503", code, body)
	}

	// Phase 2: the rest of the cluster. /readyz flips to 200 once ≥ n−t
	// parties (this one included) are connected.
	for id := 1; id < n; id++ {
		startNode(id)
	}
	deadline = time.Now().Add(30 * time.Second)
	for {
		if code, _ := httpGet(t, base+"/readyz"); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never flipped to 200 after the cluster connected")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Phase 3: scrape /metrics until every instrumented layer shows up
	// (the run plus its -grace linger keeps the endpoint alive).
	wanted := []string{
		"# TYPE transport_frames_out_total counter",
		"transport_connected_peers",
		"runtime_sessions_active",
		"# TYPE acs_slot_commit_seconds histogram",
		"acs_slot_commit_seconds_bucket{le=",
		"acs_fastpath_hits_total",
		"rbc_deliveries_total",
		"transport_messages_total",
	}
	var metrics string
	deadline = time.Now().Add(30 * time.Second)
	for {
		_, metrics = httpGet(t, base+"/metrics")
		missing := ""
		for _, w := range wanted {
			if !strings.Contains(metrics, w) {
				missing = w
				break
			}
		}
		if missing == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics never exposed %q; last scrape:\n%s", missing, metrics)
		}
		time.Sleep(50 * time.Millisecond)
	}

	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("party %d: %v", id, err)
		}
	}
	for id := 1; id < n; id++ {
		if outs[0].String() != outs[id].String() {
			t.Fatalf("ledger outputs differ between party 0 and party %d", id)
		}
	}

	// Phase 4: every party's -tracefile is valid Chrome-trace JSON with
	// paired slot spans.
	for id := 0; id < n; id++ {
		data, err := os.ReadFile(traceFile(id))
		if err != nil {
			t.Fatalf("party %d trace: %v", id, err)
		}
		var events []map[string]interface{}
		if err := json.Unmarshal(data, &events); err != nil {
			t.Fatalf("party %d trace is not valid Chrome-trace JSON: %v", id, err)
		}
		if len(events) == 0 {
			t.Fatalf("party %d trace is empty", id)
		}
		begins, ends := 0, 0
		for _, e := range events {
			if e["name"] == "slot" {
				switch e["ph"] {
				case "B":
					begins++
				case "E":
					ends++
				}
			}
		}
		if begins != slots || ends != slots {
			t.Fatalf("party %d trace: %d slot begins / %d ends, want %d each", id, begins, ends, slots)
		}
	}
}

// mustChanges parses a -submit spec or fails the test.
func mustChanges(t *testing.T, s string) []reconfig.ScheduledChange {
	t.Helper()
	chs, err := parseChanges(s)
	if err != nil {
		t.Fatal(err)
	}
	return chs
}

// TestParseChanges covers the -submit grammar.
func TestParseChanges(t *testing.T) {
	chs, err := parseChanges("2:+4@127.0.0.1:7004, 6:-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(chs) != 2 || !chs[0].Change.Add || chs[0].Change.Party != 4 ||
		chs[0].Change.Addr != "127.0.0.1:7004" || chs[0].Slot != 2 ||
		chs[1].Change.Add || chs[1].Change.Party != 1 || chs[1].Slot != 6 {
		t.Fatalf("parsed %+v", chs)
	}
	for _, bad := range []string{"x", "2:4", "2:+x", "a:+4", "2:-1@addr"} {
		if _, err := parseChanges(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
	if got, err := parseChanges("  "); err != nil || got != nil {
		t.Fatalf("empty spec: %v %v", got, err)
	}
}
