package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"asyncft/internal/trace"
)

// spanKey names one span: the recorder's Begin/End events pair up by it.
type spanKey struct {
	party         int
	session, name string
}

type span struct{ begin, end time.Time }

// pairSpans pairs Begin/End events into spans; open spans are dropped.
func pairSpans(events []trace.Event) map[spanKey]span {
	out := make(map[spanKey]span)
	for _, e := range events {
		k := spanKey{e.Party, e.Session, e.Detail}
		switch e.Kind {
		case trace.KindSpanBegin:
			out[k] = span{begin: e.Time}
		case trace.KindSpanEnd:
			if s, ok := out[k]; ok && s.end.IsZero() {
				s.end = e.Time
				out[k] = s
			}
		}
	}
	for k, s := range out {
		if s.end.IsZero() {
			delete(out, k)
		}
	}
	return out
}

// slotKey names one party's run of one ledger slot.
type slotKey struct{ party, shard, slot int }

// slotSpans is a slot's lifecycle at one party: the "slot" span and its
// children, as internal/acs records them.
type slotSpans struct {
	slot, dispersal, confirm, agree span
}

// slotSession is the session acs.RunFrom gives shard s's slot k; the spans
// are recorded under it.
const slotPrefix = ledgerSession + "/s/"

// parseSlotSession splits "bench/abc/s/<shard>/slot/<k>".
func parseSlotSession(session string) (shard, slot int, ok bool) {
	rest, found := strings.CutPrefix(session, slotPrefix)
	if !found {
		return 0, 0, false
	}
	parts := strings.Split(rest, "/")
	if len(parts) != 3 || parts[1] != "slot" {
		return 0, 0, false
	}
	s, err1 := strconv.Atoi(parts[0])
	k, err2 := strconv.Atoi(parts[2])
	return s, k, err1 == nil && err2 == nil
}

// collectSlots groups the recorder's paired spans by slot.
func collectSlots(spans map[spanKey]span) map[slotKey]*slotSpans {
	out := make(map[slotKey]*slotSpans)
	for k, sp := range spans {
		s, slot, ok := parseSlotSession(k.session)
		if !ok {
			continue
		}
		key := slotKey{k.party, s, slot}
		ss := out[key]
		if ss == nil {
			ss = &slotSpans{}
			out[key] = ss
		}
		switch k.name {
		case "slot":
			ss.slot = sp
		case "dispersal":
			ss.dispersal = sp
		case "confirm":
			ss.confirm = sp
		case "agree":
			ss.agree = sp
		}
	}
	return out
}

func (s span) ms() float64 { return float64(s.end.Sub(s.begin)) / 1e6 }

// cpuLayers are the packages under internal/ that get a cpu_share metric.
var cpuLayers = []string{
	"field", "rs", "wire", "transport", "runtime", "rbc", "ba", "commonsubset",
	"weakcoin", "svss", "core", "acs", "batch", "shard", "obs", "trace",
}

// perLayer derives the per-layer metrics of a traced window.
func (m *measurement) perLayer() (map[string]float64, error) {
	c := m.c
	out := make(map[string]float64)
	slots := float64(m.after.slots - m.before.slots)
	acked := float64(m.ackedInWindow)
	secs := m.after.at.Sub(m.before.at).Seconds()
	b := m.after.bdry.sub(m.before.bdry)
	perSlot := func(v float64) float64 { return ratio(v, slots) }

	// transport
	frames := m.delta("transport_frames_out_total")
	out["transport.frames_per_slot"] = perSlot(frames)
	out["transport.bytes_per_slot"] = perSlot(m.delta("transport_bytes_out_total"))
	out["transport.frames_per_flush"] = ratio(frames, m.delta("transport_flush_batches_total"))
	out["transport.send_busy_us_per_slot"] = perSlot(float64(b.sendBusyNs) / 1e3)
	out["transport.queue_highwater"] = c.maxGauge("transport_queue_depth_highwater")

	// runtime
	out["runtime.dispatch_calls_per_slot"] = perSlot(float64(b.dispatchCalls))
	out["runtime.dispatch_busy_us_per_slot"] = perSlot(float64(b.dispatchBusyNs) / 1e3)
	out["runtime.sessions_per_slot"] = perSlot(m.delta("runtime_sessions_total"))
	out["runtime.sessions_live_end"] = c.sum("runtime_sessions_active", "")
	out["runtime.mailbox_highwater"] = c.maxGauge("runtime_mailbox_depth_highwater")

	// rbc
	out["rbc.msgs_per_slot"] = perSlot(float64(b.msgs[layerRBC]))
	out["rbc.bytes_per_slot"] = perSlot(float64(b.bytes[layerRBC]))
	out["rbc.coded_share"] = ratio(m.after.coded-m.before.coded, m.delta("rbc_deliveries_total"))
	out["rbc.pulls_per_slot"] = perSlot(m.delta("rbc_pulls_sent_total"))
	out["rbc.reconstruct_failures"] = m.delta("rbc_reconstruct_failures_total")

	// acs: slot lifecycle spans of every party, for slots begun in the window
	events, _ := c.rec.Snapshot() // nil-safe: an untraced cluster has no events
	spans := pairSpans(events)
	slotSpansByKey := collectSlots(spans)
	var slotMs, dispersalMs, confirmMs, agreeMs []float64
	for _, ss := range slotSpansByKey {
		if ss.slot.end.IsZero() || ss.slot.begin.Before(m.before.at) || !ss.slot.begin.Before(m.after.at) {
			continue
		}
		slotMs = append(slotMs, ss.slot.ms())
		if !ss.dispersal.end.IsZero() {
			dispersalMs = append(dispersalMs, ss.dispersal.ms())
		}
		if !ss.confirm.end.IsZero() {
			confirmMs = append(confirmMs, ss.confirm.ms())
		}
		if !ss.agree.end.IsZero() {
			agreeMs = append(agreeMs, ss.agree.ms())
		}
	}
	out["acs.slots_per_s"] = slots / secs
	out["acs.slot_ms_p50"] = median(slotMs)
	out["acs.slot_ms_p99"] = percentile(slotMs, 99) // median sorted it
	out["acs.dispersal_ms_p50"] = median(dispersalMs)
	out["acs.confirm_ms_p50"] = median(confirmMs)
	out["acs.agree_ms_p50"] = median(agreeMs)
	hits, falls := m.delta("acs_fastpath_hits_total"), m.delta("acs_fastpath_fallbacks_total")
	out["acs.fastpath_hit_ratio"] = ratio(hits, hits+falls)
	out["acs.fp_msgs_per_slot"] = perSlot(float64(b.msgs[layerACS]))

	// ba
	decisions := m.delta("ba_decisions_total")
	out["ba.rounds_per_decision"] = ratio(m.delta("ba_rounds_total"), decisions)
	out["ba.decisions_per_slot"] = perSlot(decisions)
	out["ba.coin_calls_per_decision"] = ratio(m.delta("ba_coin_invocations_total"), decisions)
	out["ba.msgs_per_slot"] = perSlot(float64(b.msgs[layerBA]))

	// svss, weakcoin
	out["svss.msgs_per_op"] = ratio(float64(b.msgs[layerSVSS]), acked)
	out["svss.bytes_per_op"] = ratio(float64(b.bytes[layerSVSS]), acked)
	out["weakcoin.msgs_per_op"] = ratio(float64(b.msgs[layerWeakcoin]), acked)

	// core: one party's FBA call, from the spans bench records around it
	var fbaMs []float64
	for k, sp := range spans {
		if k.name == "fba" && !sp.begin.Before(m.before.at) && sp.begin.Before(m.after.at) {
			fbaMs = append(fbaMs, sp.ms())
		}
	}
	out["core.fba_party_ms_p50"] = median(fbaMs)

	// shard: every acked op joined to its carrying slot's span at its
	// origin party. queue_wait + slot + ack is the op's latency.
	var queueMs, carryMs, ackMs, residualMs []float64
	joined := 0
	nAcked := 0
	for _, s := range m.samples {
		if !s.acked || s.op == nil {
			continue
		}
		nAcked++
		ss := slotSpansByKey[slotKey{int(s.op.party), s.op.pos.Shard, s.op.pos.Slot}]
		if ss == nil || ss.slot.end.IsZero() {
			continue
		}
		joined++
		begin := int64(ss.slot.begin.Sub(m.start))
		end := int64(ss.slot.end.Sub(m.start))
		q, sl, a := begin-s.op.due, end-begin, s.op.ack-end
		queueMs = append(queueMs, float64(q)/1e6)
		carryMs = append(carryMs, float64(sl)/1e6)
		ackMs = append(ackMs, float64(a)/1e6)
		r := float64(s.latencyNs-(q+sl+a)) / 1e6
		if r < 0 {
			r = -r
		}
		residualMs = append(residualMs, r)
	}
	out["shard.queue_wait_ms_p50"] = median(queueMs)
	out["shard.queue_wait_ms_p99"] = percentile(queueMs, 99)
	out["shard.carry_slot_ms_p50"] = median(carryMs)
	out["shard.ack_ms_p50"] = median(ackMs)
	out["shard.ops_per_slot"] = perSlot(acked)
	out["shard.requeued_per_kop"] = ratio(1000*m.delta("shard_requeued_total"), acked)
	offered := m.delta("serve_accepted_total") + m.delta("serve_rejected_total")
	out["shard.rejected_share"] = ratio(m.delta("serve_rejected_total"), offered)
	out["shard.queue_depth_max"] = float64(m.queueDepthMax)
	out["trace.joined_share"] = ratio(float64(joined), float64(nAcked))
	out["trace.join_residual_ms_p50"] = median(residualMs)

	// CPU budget from the window's profile
	shares, err := cpuShares(m.profile)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for name, v := range shares {
		out[name] = v
	}

	// process and generator
	out["go_runtime.rss_peak_mb"] = peakRSSMiB()
	out["go_runtime.gc_pause_ms_max"] = float64(m.gcPauseMaxNs) / 1e6
	out["go_runtime.goroutines_end"] = float64(m.goroutinesAtEnd)
	late := nsToMs(m.late)
	out["loadgen.late_ms_p99"] = percentile(late, 99)
	out["loadgen.late_ms_max"] = percentile(late, 100)
	// The traced window's own latency, to read the decomposition above
	// against, and what the end-to-end metrics leave out because it does
	// not hold steady from run to run on one machine: the tail percentiles,
	// and the process's CPU per op, which at these loads is a third
	// scheduler idling and moves by a quarter between two sets of runs.
	lat, failed := m.latenciesMs()
	out["loadgen.failed_share"] = ratio(float64(failed), float64(len(m.samples)))
	out["trace.latency_p50_ms"] = percentile(lat, 50)
	out["trace.latency_p90_ms"] = percentile(lat, 90)
	out["trace.latency_p99_ms"] = percentile(lat, 99)
	out["process.cpu_ms_per_op"] = ratio(float64(m.after.cpu-m.before.cpu)/1e6, acked)
	return out, nil
}

// writeTrace writes the run's spans as Chrome-trace JSON under dir.
func (m *measurement) writeTrace(dir string) error {
	if m.c.rec == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, m.c.w.name+".trace.json"))
	if err != nil {
		return err
	}
	events, _ := m.c.rec.Snapshot()
	spansOnly := events[:0:0]
	for _, e := range events {
		if e.Kind == trace.KindSpanBegin || e.Kind == trace.KindSpanEnd {
			spansOnly = append(spansOnly, e)
		}
	}
	if err := trace.WriteChromeEvents(f, spansOnly); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
