// Command bench is the repository's benchmark: it builds the default
// hotel corpus, writes a 4-shard journaled fleet, serves it through the
// router on a loopback listener, drives one of four closed-loop
// workloads against it, checks the answers and prints every metric by
// name with its unit. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    string
	scratch  string
	traceDir string
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: read_hot, read_cold, mixed, ingest or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated request streams")
	flag.IntVar(&o.seconds, "seconds", 15, "length of the measured window")
	flag.StringVar(&o.trace, "trace", "both", "0 = end-to-end metrics, 1 = per-layer metrics (traced pass), both = one after the other")
	flag.StringVar(&o.scratch, "scratch", "", "directory for fleets and journals (default: a fresh one under the system temp dir)")
	flag.StringVar(&o.traceDir, "trace-dir", "out", "where the traced pass writes trace-<workload>.json")
	flag.StringVar(&o.out, "out", "", "also write every workload's metrics to this JSON file")
	compare := flag.Bool("compare", false, "compare two -out files, or two comma-separated sets of them by their medians: bench -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare a.json b.json"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	correct, err := run(o)
	if err != nil {
		fatal(err)
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// suiteResult is the -out file: workload → pass → metric → value.
type suiteResult map[string]map[string]metrics

func run(o options) (bool, error) {
	var selected []*workload
	for i := range workloads {
		if o.workload == "all" || o.workload == workloads[i].name {
			selected = append(selected, &workloads[i])
		}
	}
	if len(selected) == 0 {
		return false, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.trace != "0" && o.trace != "1" && o.trace != "both" {
		return false, fmt.Errorf("-trace must be 0, 1 or both, not %q", o.trace)
	}
	if o.seconds < 1 {
		return false, fmt.Errorf("-seconds must be at least 1")
	}
	// Each invocation works in a fresh directory under -scratch (or the
	// system temp directory) and removes it when done.
	if o.scratch != "" {
		if err := os.MkdirAll(o.scratch, 0o755); err != nil {
			return false, err
		}
	}
	scratch, err := os.MkdirTemp(o.scratch, "opinedb-bench-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(scratch)

	// Only the end-to-end pass reports setup_s, so only it pays for the
	// repeated rounds.
	rounds := 1
	if o.trace != "1" {
		rounds = setupRounds
	}
	e, err := setUpRounds(scratch, o.seed, rounds)
	if err != nil {
		return false, err
	}
	e.seconds = o.seconds
	fmt.Printf("set-up: %.3f s (build %.3f s, save %.3f s, %.1f MiB of snapshots, %d preloaded reviews), median of rounds %.3f\n",
		e.setup.total, e.setup.build, e.setup.save, float64(e.setup.snapshotBytes)/mib, preloadReviews, e.rounds)

	suite := suiteResult{}
	correct := true
	var last []byte
	for _, w := range selected {
		suite[w.name] = map[string]metrics{}
		for _, pass := range []string{"0", "1"} {
			if o.trace != "both" && o.trace != pass {
				continue
			}
			var res *passResult
			var defs []metricDef
			if pass == "0" {
				res, err = e.runEndToEnd(w)
				defs = endToEnd
			} else {
				res, err = e.runLayers(w, o.traceDir)
				defs = perLayer()
			}
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			rendered, err := render(defs, res.metrics, pass == "0")
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			suite[w.name][passName(pass)] = res.metrics
			fmt.Printf("\n== %s, %s ==\n", w.name, passName(pass))
			for _, note := range res.notes {
				fmt.Println("  " + note)
			}
			for _, d := range defs {
				if v, ok := res.metrics[d.Name]; ok {
					fmt.Printf("  %-40s %14.4f %s\n", d.Name, v, d.Unit)
				}
			}
			fmt.Printf("  %-40s %14.6f ratio (%d failed of %d attempted)\n", "fail_ratio",
				float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted)
			correct = correct && res.failed == 0
			last, err = json.Marshal(output{Correct: res.failed == 0, Attempted: max(res.attempted, 1), Failed: res.failed, Metrics: rendered})
			if err != nil {
				return false, err
			}
		}
	}
	if o.out != "" {
		b, err := json.MarshalIndent(suite, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.MkdirAll(filepath.Dir(o.out), 0o755); err != nil {
			return false, err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	fmt.Printf("\n%s\n", last)
	return correct, nil
}

func passName(pass string) string {
	if pass == "0" {
		return "end_to_end"
	}
	return "per_layer"
}
