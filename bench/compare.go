package main

// bench -compare a.json b.json: the A/B tool. For every workload and
// end-to-end metric it prints both values, the relative difference in
// the metric's worse direction and the bound BENCHMARK.json fixes, and
// fails when b is worse than a by more than the bound. Either side may
// be a comma-separated list of -out files — a set of runs — and is then
// represented by its medians: one run against one run mostly measures
// the sandbox's neighbours.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// readSuites reads a comma-separated list of -out files and returns,
// per workload, the median of each end-to-end metric over the files.
func readSuites(paths string) (map[string]metrics, error) {
	values := map[string]map[string][]float64{}
	for _, path := range strings.Split(paths, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var s suiteResult
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for name, passes := range s {
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for metric, v := range passes[passName("0")] {
				values[name][metric] = append(values[name][metric], v)
			}
		}
	}
	out := map[string]metrics{}
	for name, byMetric := range values {
		out[name] = metrics{}
		for metric, vs := range byMetric {
			sort.Float64s(vs)
			out[name][metric] = (vs[(len(vs)-1)/2] + vs[len(vs)/2]) / 2
		}
	}
	return out, nil
}

// worseBy is how far b is on the wrong side of a, as a share of a.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readSuites(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSuites(pathB)
	if err != nil {
		return false, err
	}
	bf, err := loadBenchmarkFile()
	if err != nil {
		return false, fmt.Errorf("bounds: %w", err)
	}
	ok := true
	fmt.Fprintf(w, "%-10s %-14s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, wl := range workloads {
		name := wl.name
		pa, pb := a[name], b[name]
		for _, d := range bf.EndToEnd {
			va, inA := pa[d.Name]
			vb, inB := pb[d.Name]
			if !inA || !inB {
				continue
			}
			worse := worseBy(va, vb, d.Better)
			verdict := ""
			if worse > d.Bound {
				verdict = "  REGRESSION"
				ok = false
			}
			fmt.Fprintf(w, "%-10s %-14s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", name, d.Name, va, vb, worse*100, d.Bound*100, verdict)
		}
	}
	return ok, nil
}
