// Command bench is the repository's benchmark: absolute end-to-end numbers
// for the sharded ledger and for fair Byzantine agreement over loopback
// TCP, a per-layer budget from a traced run, and a repeatability check.
// README.md in this directory defines every metric and workload.
//
//	bash bench/run.sh                         every workload, untraced then traced
//	bash bench/run.sh -workload large_open    one workload, end-to-end metrics
//	bash bench/run.sh -workload large_open -trace 1
//	bash bench/run.sh -sets 2                 two sets (seeds s, s+1) and their comparison
//	bash bench/run.sh -compare a.json b.json
//
// A run of one workload prints its metrics by name and ends with one JSON
// object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	workloadFlag := flag.String("workload", "", "workload to run (default: all, each in a fresh child process)")
	seed := flag.Int64("seed", 1, "seed for arrival times, stream ids, payload bytes and party randomness")
	seconds := flag.Int("seconds", runSeconds, "length of the measured window in seconds")
	traceFlag := flag.String("trace", "", "0 = end-to-end metrics, tracing off; 1 = per-layer metrics from a traced run (default: 0 for one workload, both for all)")
	out := flag.String("out", "", "all workloads: also write the results as JSON to this file")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments against the bounds")
	sets := flag.Int("sets", 1, "all workloads: run this many sets with seeds seed, seed+1, … and compare the first two")
	spec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flag.Parse()

	switch {
	case *spec:
		fmt.Print(renderSpec())
		return 0
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	if *traceFlag != "" && *traceFlag != "0" && *traceFlag != "1" {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if *workloadFlag != "" {
		w, ok := workloadByName(*workloadFlag)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadFlag)
			return 2
		}
		return runOne(w, *seed, *seconds, *traceFlag == "1")
	}
	return runAll(*seed, *seconds, *traceFlag, *out, *sets)
}

// traceDir is where traced runs leave their Chrome-trace files; it is
// git-ignored.
const traceDir = "bench/out"

// runOne runs one workload in this process and prints the contract's
// result line.
func runOne(w workload, seed int64, seconds int, traced bool) int {
	var (
		values            map[string]float64
		attempted, failed int
		err               error
		specs             = endToEndSpec
	)
	if traced {
		specs = perLayerSpec
		values, attempted, failed, err = runTraced(w, seed, seconds, traceDir)
	} else {
		values, attempted, failed, err = runUntraced(w, seed, time.Duration(seconds)*time.Second)
	}
	if err != nil {
		// A correctness violation or a broken run: no result line.
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	res := result{Correct: true, Attempted: attempted, Failed: failed, Metrics: make(map[string]metric, len(specs))}
	fmt.Printf("workload %s seed %d window %d s traced %v: %d attempted, %d failed, peak RSS %.0f MiB\n",
		w.name, seed, seconds, traced, attempted, failed, peakRSSMiB())
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: %s: metric %s was not measured\n", w.name, s.Name)
			return 1
		}
		res.Metrics[s.Name] = metric{Value: v, Unit: s.Unit}
		fmt.Printf("  %-36s %16.6g %s\n", s.Name, v, s.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// setResult is one set of runs: every workload, untraced and traced.
type setResult struct {
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// runChild re-executes this program for one workload. Each workload gets a
// fresh process because a run leaves a large heap behind (the per-slot
// residue the benchmark reports) that would distort the next one. With echo
// set, the child's metric lines are passed on to standard output.
func runChild(w workload, seed int64, seconds int, traced, echo bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (trace %s): %w", w.name, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	last := len(lines) - 1
	if echo {
		fmt.Println(strings.Join(lines[:last], "\n"))
	}
	var res result
	if err := json.Unmarshal([]byte(lines[last]), &res); err != nil {
		return nil, fmt.Errorf("%s (trace %s): result line: %w", w.name, trace, err)
	}
	return &res, nil
}

func values(r *result) map[string]float64 {
	out := make(map[string]float64, len(r.Metrics))
	for k, m := range r.Metrics {
		out[k] = m.Value
	}
	return out
}

// runSet runs every workload once per requested mode, printing the
// metrics as they come.
func runSet(seed int64, seconds int, traceFlag string) (*setResult, error) {
	set := &setResult{Seed: seed, Seconds: seconds, Workloads: make(map[string]*workloadResult)}
	for _, w := range workloads {
		wr := &workloadResult{}
		set.Workloads[w.name] = wr
		fmt.Printf("== %s: %s\n", w.name, w.why)
		if traceFlag != "1" {
			res, err := runChild(w, seed, seconds, false, true)
			if err != nil {
				return nil, err
			}
			wr.Attempted, wr.Failed, wr.EndToEnd = res.Attempted, res.Failed, values(res)
		}
		if traceFlag != "0" {
			res, err := runChild(w, seed, seconds, true, true)
			if err != nil {
				return nil, err
			}
			wr.PerLayer = values(res)
		}
	}
	return set, nil
}

func runAll(seed int64, seconds int, traceFlag, out string, sets int) int {
	var results []*setResult
	for i := 0; i < sets; i++ {
		set, err := runSet(seed+int64(i), seconds, traceFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		results = append(results, set)
		if out != "" {
			name := out
			if i > 0 {
				name = fmt.Sprintf("%s.%d", out, i+1)
			}
			data, err := json.MarshalIndent(set, "", "  ")
			if err == nil {
				err = os.WriteFile(name, append(data, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
		}
	}
	if len(results) >= 2 {
		return compareSets(results[0], results[1])
	}
	return 0
}
