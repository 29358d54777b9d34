package main

import (
	"encoding/json"
	"strings"
)

// The benchmark's contract: which metrics exist, their units and
// directions, and for the end-to-end ones the share of the parent's median
// by which a change may worsen them. BENCHMARK.json at the repository root
// is this table rendered by `-spec`; bench_test.go holds the two together.

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is how long one run measures (BENCHMARK.json's run_seconds).
const runSeconds = 10

var endToEndSpec = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"goodput_ops_s", "1/s", "higher", 0.15},
	{"latency_p50_ms", "ms", "lower", 0.15},
	{"latency_mean_ms", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.15},
	{"wire_bytes_per_op", "bytes", "lower", 0.15},
	{"heap_kb_per_slot", "KiB", "lower", 0.20},
}

// perLayerSpec lists the traced run's metrics. Direction is a reading aid
// only; these have no bound and are not gated.
var perLayerSpec = buildPerLayerSpec()

func buildPerLayerSpec() []metricSpec {
	spec := []metricSpec{
		{"transport.frames_per_slot", "count", "lower", 0},
		{"transport.bytes_per_slot", "bytes", "lower", 0},
		{"transport.frames_per_flush", "count", "higher", 0},
		{"transport.send_busy_us_per_slot", "us", "lower", 0},
		{"transport.queue_highwater", "count", "lower", 0},
		{"runtime.dispatch_calls_per_slot", "count", "lower", 0},
		{"runtime.dispatch_busy_us_per_slot", "us", "lower", 0},
		{"runtime.sessions_per_slot", "count", "lower", 0},
		{"runtime.sessions_live_end", "count", "lower", 0},
		{"runtime.mailbox_highwater", "count", "lower", 0},
		{"rbc.msgs_per_slot", "count", "lower", 0},
		{"rbc.bytes_per_slot", "bytes", "lower", 0},
		{"rbc.coded_share", "ratio", "higher", 0},
		{"rbc.pulls_per_slot", "count", "lower", 0},
		{"rbc.reconstruct_failures", "count", "lower", 0},
		{"acs.slots_per_s", "1/s", "higher", 0},
		{"acs.slot_ms_p50", "ms", "lower", 0},
		{"acs.slot_ms_p99", "ms", "lower", 0},
		{"acs.dispersal_ms_p50", "ms", "lower", 0},
		{"acs.confirm_ms_p50", "ms", "lower", 0},
		{"acs.agree_ms_p50", "ms", "lower", 0},
		{"acs.fastpath_hit_ratio", "ratio", "higher", 0},
		{"acs.fp_msgs_per_slot", "count", "lower", 0},
		{"ba.rounds_per_decision", "count", "lower", 0},
		{"ba.decisions_per_slot", "count", "lower", 0},
		{"ba.coin_calls_per_decision", "count", "lower", 0},
		{"ba.msgs_per_slot", "count", "lower", 0},
		{"svss.msgs_per_op", "count", "lower", 0},
		{"svss.bytes_per_op", "bytes", "lower", 0},
		{"weakcoin.msgs_per_op", "count", "lower", 0},
		{"core.fba_party_ms_p50", "ms", "lower", 0},
		{"shard.queue_wait_ms_p50", "ms", "lower", 0},
		{"shard.queue_wait_ms_p99", "ms", "lower", 0},
		{"shard.carry_slot_ms_p50", "ms", "lower", 0},
		{"shard.ack_ms_p50", "ms", "lower", 0},
		{"shard.ops_per_slot", "count", "higher", 0},
		{"shard.requeued_per_kop", "count", "lower", 0},
		{"shard.rejected_share", "ratio", "lower", 0},
		{"shard.queue_depth_max", "count", "lower", 0},
	}
	for _, l := range cpuLayers {
		spec = append(spec, metricSpec{l + ".cpu_share", "ratio", "lower", 0})
	}
	for _, b := range []string{bucketGC, bucketSyscall, bucketRuntime, bucketBench} {
		spec = append(spec, metricSpec{b, "ratio", "lower", 0})
	}
	return append(spec, []metricSpec{
		{"go_runtime.rss_peak_mb", "MiB", "lower", 0},
		{"go_runtime.gc_pause_ms_max", "ms", "lower", 0},
		{"go_runtime.goroutines_end", "count", "lower", 0},
		{"loadgen.late_ms_p99", "ms", "lower", 0},
		{"loadgen.late_ms_max", "ms", "lower", 0},
		{"loadgen.failed_share", "ratio", "lower", 0},
		{"process.cpu_ms_per_op", "ms", "lower", 0},
		{"trace.latency_p50_ms", "ms", "lower", 0},
		{"trace.latency_p90_ms", "ms", "lower", 0},
		{"trace.latency_p99_ms", "ms", "lower", 0},
		{"trace.overhead_p50_ratio", "ratio", "lower", 0},
		{"trace.overhead_goodput_ratio", "ratio", "higher", 0},
		{"trace.joined_share", "ratio", "higher", 0},
		{"trace.join_residual_ms_p50", "ms", "lower", 0},
		{"transport.probe_frames_s", "1/s", "higher", 0},
		{"runtime.probe_dispatch_ns", "ns", "lower", 0},
		{"rbc.probe_coded_mb_s", "MB/s", "higher", 0},
		{"ba.probe_bca_ms", "ms", "lower", 0},
		{"shard.probe_codec_ns_per_op", "ns", "lower", 0},
		{"acs.probe_setslot_us", "us", "lower", 0},
		{"rs.probe_encode_mb_s", "MB/s", "higher", 0},
		{"rs.probe_reconstruct_mb_s", "MB/s", "higher", 0},
		{"field.probe_interpolate_ns", "ns", "lower", 0},
		{"svss.probe_share_rec_ms", "ms", "lower", 0},
		{"weakcoin.probe_flip_ms", "ms", "lower", 0},
		{"statesync.probe_slots_s", "1/s", "higher", 0},
	}...)
}

// benchmarkSpec is BENCHMARK.json's shape.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"` // bounds are 0 and omitted
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// renderSpec renders BENCHMARK.json.
func renderSpec() string {
	spec := benchmarkSpec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndSpec,
		PerLayer:   perLayerSpec,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, workloadSpec{w.name, w.why})
	}
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(spec); err != nil {
		panic(err) // a struct of strings and numbers always encodes
	}
	return sb.String()
}
