package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// compareSets prints, per workload and end-to-end metric, both sets'
// values, their relative spread and the metric's bound, and returns
// non-zero when a spread exceeds its bound: the repeatability gate. Spread
// is |a−b| over the mean of the two.
func compareSets(a, b *setResult) int {
	status := 0
	fmt.Printf("\nrepeatability: seed %d against seed %d\n", a.Seed, b.Seed)
	fmt.Printf("%-20s %-20s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "spread", "bound")
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil || wb == nil || wa.EndToEnd == nil || wb.EndToEnd == nil {
			fmt.Printf("%-20s missing from one of the sets\n", w.name)
			status = 1
			continue
		}
		for _, m := range endToEndSpec {
			va, vb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			spread := ratio(math.Abs(va-vb), (va+vb)/2)
			verdict := ""
			if spread > m.Bound {
				verdict = "  EXCEEDS"
				status = 1
			}
			fmt.Printf("%-20s %-20s %14.6g %14.6g %8.3f %6.2f%s\n", w.name, m.Name, va, vb, spread, m.Bound, verdict)
		}
	}
	return status
}

func readSet(path string) (*setResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setResult
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func compareFiles(pathA, pathB string) int {
	a, err := readSet(pathA)
	if err == nil {
		var b *setResult
		if b, err = readSet(pathB); err == nil {
			return compareSets(a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 2
}
