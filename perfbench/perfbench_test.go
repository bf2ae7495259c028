package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i) // 40 … 1, unsorted order
	}
	pct, v, ok := tail(xs, 10)
	if !ok || pct != 75 || v != 30 {
		t.Fatalf("tail of 1..40 = (%v, %v, %v), want (75, 30, true)", pct, v, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != 10 {
		t.Fatalf("%d samples beyond the tail value, want 10", beyond)
	}
	// One more sample moves the tail up, never below ten beyond.
	pct2, _, _ := tail(append(xs, 41), 10)
	if pct2 <= pct {
		t.Fatalf("tail percentile %v did not rise above %v with more samples", pct2, pct)
	}
	if _, _, ok := tail(xs[:10], 10); ok {
		t.Fatal("tail of 10 samples must report no percentile")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestSelfTimes(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	r := &recorder{}
	root := r.add(0, 1, "query", at(0), at(100))
	prep := r.add(root, 1, "prepare", at(0), at(10))
	r.add(prep, 1, "parser.parse", at(1), at(4))
	ev := r.add(root, 1, "pdb.eval", at(12), at(98))
	// Replays run after the query; they are logical children.
	core := r.add(ev, 1, "core.eval", at(200), at(270))
	r.add(core, 1, "urel.eval", at(300), at(320))
	r.add(core, 1, "karpluby.sample", at(330), at(370))
	self := selfTimes(r.snapshot())
	want := map[string]time.Duration{
		"unattributed":    4 * time.Millisecond,  // 100 − 10 − 86
		"prepare":         7 * time.Millisecond,  // 10 − 3
		"parser.parse":    3 * time.Millisecond,  // leaf
		"pdb.eval":        16 * time.Millisecond, // 86 − 70
		"core.eval":       10 * time.Millisecond, // 70 − 20 − 40
		"urel.eval":       20 * time.Millisecond,
		"karpluby.sample": 40 * time.Millisecond,
	}
	var sum time.Duration
	for name, d := range self {
		if d != want[name] {
			t.Errorf("self(%s) = %v, want %v", name, d, want[name])
		}
		sum += d
	}
	if sum != 100*time.Millisecond {
		t.Fatalf("self times add up to %v, want the root's 100ms", sum)
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	base := time.Unix(0, 0)
	iv := func(a, b int) span {
		return span{Start: base.Add(time.Duration(a)), End: base.Add(time.Duration(b))}
	}
	got := covered([]span{iv(5, 10), iv(0, 3), iv(2, 6), iv(20, 25)})
	if got != 15 {
		t.Fatalf("covered = %v, want 15ns", got)
	}
}

// fileBytes reads every file under dir, keyed by relative path.
func fileBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		out[rel] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGeneratorsDeterministicForSeed(t *testing.T) {
	cfg := config{scale: 0.02}
	gen := func(seed int64) map[string][]byte {
		dir := t.TempDir()
		if _, err := genCorpus(dir, cfg.rows(sampleTuples), seed); err != nil {
			t.Fatal(err)
		}
		return fileBytes(t, dir)
	}
	a, b, c := gen(7), gen(7), gen(8)
	if len(a) == 0 {
		t.Fatal("no corpus files generated")
	}
	for name := range a {
		if !bytes.Equal(a[name], b[name]) {
			t.Errorf("%s differs between two generations with seed 7", name)
		}
	}
	same := true
	for name := range a {
		same = same && bytes.Equal(a[name], c[name])
	}
	if same {
		t.Error("seeds 7 and 8 generated identical corpora")
	}

	// The serve-mixed schedule is a function of the seed too.
	s := &serveEnv{programs: make([]program, 3), warm: make([]queryRequest, 3)}
	s.windows = []keyWindows{
		{scen: "sensor-dedup", keys: []any{int64(1), int64(2)}, cum: []float64{0, 5, 10}},
		{scen: "entity-resolution", keys: []any{"a", "b"}, cum: []float64{0, 5, 10}},
		{scen: "repair-whatif", keys: []any{int64(3), int64(4)}, cum: []float64{0, 5, 10}},
	}
	var f1, f2 int64
	r1 := s.schedule(3, 2*time.Second, &f1)
	r2 := s.schedule(3, 2*time.Second, &f2)
	j1, _ := json.Marshal(fmtRequests(r1))
	j2, _ := json.Marshal(fmtRequests(r2))
	if !bytes.Equal(j1, j2) {
		t.Error("two schedules with seed 3 differ")
	}
}

func fmtRequests(rs []request) []any {
	var out []any
	for _, r := range rs {
		out = append(out, []any{r.at, r.kind, r.scen, r.body})
	}
	return out
}

func TestWindowDrawReachesTarget(t *testing.T) {
	k := keyWindows{scen: "repair-whatif", keys: []any{int64(1), int64(2), int64(3), int64(4)}, cum: []float64{0, 1, 3, 6, 10}}
	conf, _ := k.draw(nil, 3)
	if want := "Part >= 1 and Part <= 2"; !bytes.Contains([]byte(conf), []byte(want)) {
		t.Fatalf("window %q does not cover keys 1..2", conf)
	}
	conf, _ = k.draw(nil, 100)
	if want := "Part >= 1 and Part <= 4"; !bytes.Contains([]byte(conf), []byte(want)) {
		t.Fatalf("an oversized target gave %q, want every key", conf)
	}
}

// TestWorkloadsSmoke runs every workload at a tiny size, untraced and
// traced, and requires every metric and no failed check.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 5, seconds: 1, trace: trace, nproc: 2, workDir: t.TempDir(), scale: 0.05}
			c := newCollector()
			if err := workloads[name](cfg, c); err != nil {
				t.Fatalf("%s (trace %t): %v", name, trace, err)
			}
			if len(c.checkErrors) > 0 {
				t.Fatalf("%s (trace %t): checks failed: %v", name, trace, c.checkErrors)
			}
			if c.attempted < 1 || c.failed != 0 {
				t.Fatalf("%s (trace %t): attempted %d, failed %d", name, trace, c.attempted, c.failed)
			}
			want := endToEnd
			if trace {
				want = append(append([]metricDef(nil), endToEnd...), perLayer...)
			}
			for _, m := range want {
				if _, ok := c.metrics[m.name]; !ok {
					t.Errorf("%s (trace %t): no %s", name, trace, m.name)
				}
			}
			if c.metrics["query_p50_ms"].Value <= 0 || c.metrics["setup_s"].Value <= 0 {
				t.Errorf("%s (trace %t): zero latency or setup time", name, trace)
			}
		}
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !equalStrings(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, benchmark %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, benchmark has %+v", i, m, endToEnd[i])
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, benchmark %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %+v, benchmark has %+v", i, m, perLayer[i])
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
