package main

import (
	"os"
	"strconv"
	"strings"
)

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names; TestMetricListsMatchBenchmarkJSON keeps the two in step.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the engine sees, printed with
// --trace 0. Every workload measures every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_tail_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"alloc_mb_per_query", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, printed with --trace 1. A
// layer a workload does not reach reports 0.
var perLayer = []metricDef{
	// End-to-end measures that are zero, or do not apply, on some
	// workloads, so they cannot carry a relative bound.
	{"spill_query_p50_ms", "ms"},
	{"slo_miss_rate", "ratio"},
	{"error_rate", "ratio"},
	{"bound_violation_rate", "ratio"},

	{"store.open_s", "s"},
	{"store.write_s", "s"},
	{"store.bytes_per_tuple", "B"},
	{"prepare.us_per_call", "us"},
	{"prepare.self_ms_per_query", "ms"},

	{"urel.ms_per_query", "ms"},
	{"urel.tuples_out_per_query", "count"},
	{"urel.lineage_ms_per_query", "ms"},
	{"urel.clauses_per_query", "count"},
	{"urel.spill_bytes_per_query", "B"},
	{"urel.spill_files_per_query", "count"},

	{"dnf.factor_ms_per_query", "ms"},
	{"dnf.exact_factored_per_query", "count"},
	{"dnf.confidence_ms_per_query", "ms"},

	{"karpluby.ms_per_query", "ms"},
	{"karpluby.ns_per_trial", "ns"},
	{"karpluby.allocs_per_trial", "count"},
	{"karpluby.trials_per_query", "count"},

	{"core.ms_per_query", "ms"},
	{"core.self_ms_per_query", "ms"},
	{"core.reused_trial_ratio", "ratio"},
	{"core.cache_hits_per_query", "count"},
	{"core.restarts_per_query", "count"},

	{"pdb.result_ms_per_query", "ms"},
	{"pdb.rows_per_query", "count"},

	{"server.ttfb_ms", "ms"},
	{"server.stream_ms", "ms"},
	{"server.bytes_per_row", "B"},
	{"server.admission_wait_ms", "ms"},
	{"server.reject_rate", "ratio"},
	{"server.self_ms_per_query", "ms"},

	{"cluster.sample_ms_per_query", "ms"},
	{"cluster.self_ms_per_query", "ms"},
	{"cluster.bytes_sent_per_query", "B"},
	{"cluster.batches_per_query", "count"},
	{"cluster.merge_us_per_query", "us"},
	{"cluster.failovers", "count"},
	{"cluster.hedges", "count"},

	{"go.gc_cycles_per_query", "count"},
	{"go.gc_pause_ms_per_query", "ms"},

	{"harness.gen_lag_ms", "ms"},
	{"harness.queue_ms_per_query", "ms"},
	{"harness.trace_overhead_pct", "%"},

	{"trace.query_ms", "ms"},
	{"trace.unattributed_ms_per_query", "ms"},
	{"trace.queries", "count"},
}

// selfTimeMetrics lists, per span name, the per-layer metric that carries
// its self time. Together with trace.unattributed_ms_per_query they add up
// to trace.query_ms.
var selfTimeMetrics = map[string]string{
	"prepare":              "prepare.self_ms_per_query",
	"parser.parse":         "prepare.us_per_call",
	"algebra.validate":     "prepare.us_per_call",
	"algebra.infer_schema": "prepare.us_per_call",
	"pdb.eval":             "pdb.result_ms_per_query",
	"core.eval":            "core.self_ms_per_query",
	"urel.eval":            "urel.ms_per_query",
	"urel.lineage":         "urel.lineage_ms_per_query",
	"dnf.factor":           "dnf.factor_ms_per_query",
	"dnf.confidence":       "dnf.confidence_ms_per_query",
	"karpluby.sample":      "karpluby.ms_per_query",
	"cluster.sample":       "cluster.self_ms_per_query",
	"server.http":          "server.self_ms_per_query",
	"harness.queue":        "harness.queue_ms_per_query",
	"unattributed":         "trace.unattributed_ms_per_query",
}

// collector gathers one run's metrics and check outcomes.
type collector struct {
	metrics     map[string]sampled
	attempted   int64
	failed      int64
	checkErrors []string
	tailPct     float64
	corpus      map[string]int64
	kinds       map[string]sampled // median latency per query kind
}

func newCollector() *collector {
	return &collector{metrics: make(map[string]sampled), corpus: make(map[string]int64), kinds: make(map[string]sampled)}
}

func (c *collector) set(name string, value float64, samples int) {
	c.metrics[name] = sampled{Value: value, Unit: unitOf(name), Samples: samples}
}

// fail records a failed correctness check; the run then exits non-zero.
func (c *collector) fail(msg string) {
	if len(c.checkErrors) < 20 {
		c.checkErrors = append(c.checkErrors, msg)
	}
}

func unitOf(name string) string {
	for _, lists := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range lists {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) >= 2 {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
