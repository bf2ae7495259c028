// Command perfbench is the repository benchmark: it generates a workload
// corpus from a seed, drives one workload against the engine from a single
// process, checks every output, and prints the metrics named in
// BENCHMARK.json. See README.md for the workloads and metrics.
//
// Usage (from the repository root, via perfbench/run.sh):
//
//	perfbench --workload corpus-sample --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics; with --trace 1 they are the per-layer metrics of
// a traced run. The line before it is a report with sample counts, the
// tail percentile used and the environment stamp.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sampled is a metric with the number of samples behind it, for the
// report line.
type sampled struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// report is the line printed before the result: every metric measured
// (end-to-end and per-layer), with sample counts, plus the stamp.
type report struct {
	Workload     string             `json:"workload"`
	Trace        bool               `json:"trace"`
	TailPct      float64            `json:"query_tail_percentile"`
	Stamp        stamp              `json:"stamp"`
	Metrics      map[string]sampled `json:"metrics"`
	KindP50      map[string]sampled `json:"kind_p50_ms"`
	CheckErrors  []string           `json:"check_errors,omitempty"`
	ElapsedTotal float64            `json:"elapsed_s"`
}

// stamp records where and on what the numbers were measured.
type stamp struct {
	Commit     string           `json:"commit"`
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NProc      int              `json:"nproc"`
	Seed       int64            `json:"seed"`
	Seconds    int              `json:"seconds"`
	Corpus     map[string]int64 `json:"corpus_tuples"`
}

// workloadFunc runs one workload and fills the collector.
type workloadFunc func(cfg config, c *collector) error

var workloads = map[string]workloadFunc{
	"corpus-sample":  runCorpusSample,
	"corpus-exact":   runCorpusExact,
	"serve-mixed":    runServeMixed,
	"cluster-sample": runClusterSample,
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	nproc    int
	workDir  string
	scale    float64 // corpus and window sizes relative to the defaults
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced layer replay and prints per-layer metrics")
	workDir := fs.String("workdir", ".bench_build", "directory for generated corpora and spill files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := config{workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1, nproc: nproc, workDir: dir, scale: 1}

	start := time.Now()
	c := newCollector()
	if err := fn(cfg, c); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	res := result{
		Correct:   len(c.checkErrors) == 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   make(map[string]metric, len(names)),
	}
	rep := report{
		Workload: cfg.workload, Trace: cfg.trace, TailPct: c.tailPct,
		Stamp: stamp{
			Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			NProc: nproc, Seed: cfg.seed, Seconds: cfg.seconds, Corpus: c.corpus,
		},
		Metrics:      c.metrics,
		KindP50:      c.kinds,
		CheckErrors:  c.checkErrors,
		ElapsedTotal: time.Since(start).Seconds(),
	}
	for _, n := range names {
		m, ok := c.metrics[n.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not measure %s\n", cfg.workload, n.name)
			return 1
		}
		res.Metrics[n.name] = metric{Value: m.Value, Unit: n.unit}
	}
	for _, e := range c.checkErrors {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	printTable(os.Stdout, c, names)
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		return 1
	}
	if !res.Correct || res.Attempted < 1 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printTable writes the human-readable metric table.
func printTable(w *os.File, c *collector, names []metricDef) {
	for _, n := range names {
		m := c.metrics[n.name]
		fmt.Fprintf(w, "%-32s %14.4f %-6s n=%d\n", n.name, m.Value, n.unit, m.Samples)
	}
}

// commit names the source revision: PERFBENCH_COMMIT when set, else the
// VCS stamp Go embeds when it builds inside a repository, else "unknown".
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// subdir creates and returns a fresh directory under the run directory.
func subdir(cfg config, name string) (string, error) {
	d := filepath.Join(cfg.workDir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}
