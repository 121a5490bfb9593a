package main

// The metric catalogue: every name the benchmark prints, with its unit
// and direction. BENCHMARK.json at the repository root declares the same
// names (bench_test.go holds the two together) and owns the regression
// bounds of the end-to-end metrics.

import (
	"encoding/json"
	"fmt"
	"os"
)

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the fleet sees. Every one is
// defined, and non-zero, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", lower},
	{"restart_s", "s", lower},
	{"heap_mb", "MiB", lower},
	{"ops_per_s", "1/s", higher},
	{"cpu_ms_per_op", "ms", lower},
	{"mix_p50_us", "us", lower},
	{"mix_p95_us", "us", lower},
}

// rungNames lists the ladder's rungs outside-in, the order they run in.
var rungNames = []string{"router_http", "router_tcp", "router", "server_tcp", "server", "core"}

// perLayer lists the metrics of single layers. A metric that a workload
// does not exercise is reported as 0 there.
func perLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{name, unit, better}) }
	for _, rung := range rungNames {
		for _, op := range opNames {
			add("ladder."+rung+"."+op+"_p50_us", "us", lower)
			add("ladder."+rung+"."+op+"_allocs", "count", lower)
		}
	}
	add("sqlparse.parse_p50_us", "us", lower)
	add("core.build_s", "s", lower)
	add("snapshot.save_s", "s", lower)
	add("snapshot.load_s", "s", lower)
	add("snapshot.mb", "MiB", lower)
	add("core.interpret_w2v_share", "ratio", higher)
	add("core.interpret_cooccur_share", "ratio", lower)
	add("core.interpret_fallback_share", "ratio", lower)
	add("core.topk_sorted_accesses", "count", lower)
	add("core.topk_depth", "count", lower)
	add("core.prepare_p50_us", "us", lower)
	add("core.apply_p50_us", "us", lower)
	for _, op := range opNames {
		add("server."+op+"_self_us", "us", lower)
	}
	add("server.topk_memo_hit_ratio", "ratio", higher)
	add("router.interpret_cache_hit_ratio", "ratio", higher)
	add("server.commit_batch_mean", "count", higher)
	add("server.commit_wait_p50_us", "us", lower)
	add("server.backpressure_total", "count", lower)
	add("tcp.hop_us", "us", lower)
	for _, op := range opNames {
		add("router."+op+"_self_us", "us", lower)
	}
	add("router.leg_p50_us", "us", lower)
	add("router.leg_slowest_over_median", "ratio", lower)
	add("router.hedges_fired", "count", lower)
	add("router.owner_hop_p50_us", "us", lower)
	add("router.replicate_p50_us", "us", lower)
	add("journal.append_p50_us", "us", lower)
	add("journal.fsync_p50_us", "us", lower)
	add("journal.fsync_p95_us", "us", lower)
	add("journal.fsyncs_per_write", "count", lower)
	add("journal.bytes_per_write", "B", lower)
	add("journal.replay_us_per_record", "us", lower)
	for _, op := range opNames {
		add("client."+op+"_p50_us", "us", lower)
		add("client."+op+"_p95_us", "us", lower)
		add("client."+op+"_p99_us", "us", lower)
		add("client.ops_"+op, "count", higher)
	}
	add("client.max_us", "us", lower)
	add("client.distinct_predicates", "count", higher)
	add("client.fail_ratio", "ratio", lower)
	add("process.cpu_user_s", "s", lower)
	add("process.cpu_sys_s", "s", lower)
	add("process.alloc_kb_per_op", "KiB", lower)
	add("process.mallocs_per_op", "count", lower)
	add("process.gc_cycles", "count", lower)
	add("process.gc_pause_ms", "ms", lower)
	add("process.heap_end_mb", "MiB", lower)
	add("bench.trace_overhead_ratio", "ratio", lower)
	return out
}

// metrics maps a metric name to its measured value.
type metrics map[string]float64

// output is the one JSON object a run prints last.
type output struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]measuredMetric `json:"metrics"`
}

type measuredMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render fills the output's metrics with exactly the catalogue's names:
// a missing per-layer value is 0, a missing end-to-end value an error.
func render(defs []metricDef, m metrics, required bool) (map[string]measuredMetric, error) {
	out := make(map[string]measuredMetric, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok && required {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = measuredMetric{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadBenchmarkFile finds BENCHMARK.json from the repository root or
// from the benchmark's own directory.
func loadBenchmarkFile() (*benchmarkFile, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var bf benchmarkFile
		if err := json.Unmarshal(b, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &bf, nil
	}
	return nil, firstErr
}
