package main

import (
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != renderSpec() {
		t.Error("BENCHMARK.json differs from the tables in spec.go and workload.go; regenerate it with `bash bench/run.sh -spec > BENCHMARK.json`")
	}
}

func specNames(specs []metricSpec) []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

func TestPercentile(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ p, want float64 }{
		{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}, {99, 49.6},
	} {
		if got := percentile(v, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
}

func TestPoissonScheduleBySeed(t *testing.T) {
	draw := func(seed int64) []int64 {
		return poissonSchedule(rand.New(rand.NewSource(seed)), 2000, 5*time.Second)
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Fatal("two seeds gave the same schedule")
	}
	if n := float64(len(a)); math.Abs(n-10000) > 400 { // 4 standard deviations
		t.Errorf("%v arrivals in 5 s at 2000/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
	if last := a[len(a)-1]; last >= int64(5*time.Second) {
		t.Errorf("arrival due at %v, past the span", time.Duration(last))
	}
	p1, p2 := newLoadPlan(workloads[1], 7, time.Second), newLoadPlan(workloads[1], 7, time.Second)
	if !reflect.DeepEqual(p1, p2) {
		t.Error("the same seed gave two load plans")
	}
}

// TestSmoke runs every workload for a second through its checker, and one
// of them traced, and holds the metric names against the spec.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real clusters for several seconds")
	}
	const warm, window = 500 * time.Millisecond, time.Second
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			c, _, err := setUp(w, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			defer c.close()
			m, err := measure(c, 1, warm, window, false)
			if err != nil {
				t.Fatal(err)
			}
			e2e, attempted, failed := m.endToEnd(0.1)
			if attempted == 0 || failed != 0 {
				t.Errorf("%d attempted, %d failed", attempted, failed)
			}
			names := make([]metricSpec, 0, len(e2e))
			for name, v := range e2e {
				names = append(names, metricSpec{Name: name})
				// A one-second window is too short for the heap to have
				// grown past the collector's noise.
				if name != "heap_kb_per_slot" && (v <= 0 || math.IsNaN(v) || math.IsInf(v, 0)) {
					t.Errorf("%s = %v", name, v)
				}
			}
			if got, want := specNames(names), specNames(endToEndSpec); !reflect.DeepEqual(got, want) {
				t.Errorf("end-to-end metrics %v, spec has %v", got, want)
			}
			if m.load == nil {
				return
			}
			// The checker must notice an ack that names the wrong place.
			var moved *opRec
			m.load.each(func(op *opRec) {
				if moved == nil && op.state == opAcked {
					moved = op
				}
			})
			moved.pos.Index++
			if err := checkLedger(c, m.load); err == nil {
				t.Error("checker accepted an op acked at the wrong index")
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		w, _ := workloadByName("large_open")
		c, _, err := setUp(w, 2, true)
		if err != nil {
			t.Fatal(err)
		}
		defer c.close()
		m, err := measure(c, 2, warm, window, true)
		if err != nil {
			t.Fatal(err)
		}
		layers, err := m.perLayer()
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range runProbes() {
			if v <= 0 {
				t.Errorf("probe %s = %v", name, v)
			}
			layers[name] = v
		}
		layers["trace.overhead_p50_ratio"], layers["trace.overhead_goodput_ratio"] = 1, 1
		names := make([]metricSpec, 0, len(layers))
		var cpu float64
		for name, v := range layers {
			names = append(names, metricSpec{Name: name})
			if len(name) > 10 && name[len(name)-10:] == ".cpu_share" || len(name) > 10 && name[len(name)-10:] == "_cpu_share" {
				cpu += v
			}
		}
		if got, want := specNames(names), specNames(perLayerSpec); !reflect.DeepEqual(got, want) {
			t.Errorf("per-layer metrics %v, spec has %v", got, want)
		}
		if math.Abs(cpu-1) > 0.01 {
			t.Errorf("cpu shares sum to %v", cpu)
		}
		if layers["trace.joined_share"] < 0.99 {
			t.Errorf("only %v of the acked ops found their slot's span", layers["trace.joined_share"])
		}
		if layers["rbc.coded_share"] == 0 || layers["acs.fastpath_hit_ratio"] == 0 {
			t.Errorf("4 KiB ops on a healthy cluster: coded share %v, fast-path ratio %v", layers["rbc.coded_share"], layers["acs.fastpath_hit_ratio"])
		}
	})
}
