package pdb

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites testdata/golden.txt from the current engine instead of
// comparing against it: go test ./pdb -run TestGoldenFingerprints -update
var update = flag.Bool("update", false, "rewrite golden result fingerprints")

// goldenQueries run over the examples/data CSVs (sensors, rooms). They
// cover sampled conf, a join feeding conf, σ̂ decisions whose error bounds
// propagate through project/join/union/poss (Lemma 6.4), and a spill-prone
// union of joins.
var goldenQueries = []string{
	`conf as P (project[sensor](select[temp >= 21](repairkey[sensor @ w](sensors))));`,
	`conf as P (project[room](join(select[temp >= 21](repairkey[sensor @ w](sensors)), rooms)));`,
	`aselect[p1 >= 0.5 over conf[room]](join(select[temp >= 21](repairkey[sensor @ w](sensors)), rooms));`,
	`union(project[room](join(aselect[p1 >= 0.3 over conf[sensor]](select[temp >= 21](repairkey[sensor @ w](sensors))), rooms)),
	       project[room](select[sensor = 's3'](rooms)));`,
	`poss(project[sensor](aselect[p1 - 0.5 * p2 >= 0 over conf[sensor], conf[]](select[temp <= 21](repairkey[sensor @ w](sensors)))));`,
	`project[sensor, room](union(join(sensors, rooms), join(sensors, rooms)));`,
}

// goldenModes are the evaluation paths the fingerprints pin: exact, flat
// Karp–Luby, stratified, and out-of-core exact. Sampling modes use fixed
// seeds, so a change to any PRNG stream shows up as an explicit diff.
var goldenModes = []struct {
	name  string
	exact bool
	opts  func(spillDir string) []Option
}{
	{"exact", true, func(string) []Option { return nil }},
	{"flat", false, func(string) []Option { return []Option{WithSeed(7)} }},
	{"strata4", false, func(string) []Option { return []Option{WithSeed(7), WithStrata(4)} }},
	{"exact-spilled", true, func(dir string) []Option {
		return []Option{WithMaxMemory(300), WithSpillDir(dir)}
	}},
}

// TestGoldenFingerprints compares every (mode, query) result — rows with
// their error bounds and singularity marks, plus the deterministic
// evaluation statistics — against testdata/golden.txt byte for byte.
func TestGoldenFingerprints(t *testing.T) {
	db, err := Open(map[string]string{
		"sensors": filepath.Join("..", "examples", "data", "sensors.csv"),
		"rooms":   filepath.Join("..", "examples", "data", "rooms.csv"),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var sb strings.Builder
	for _, m := range goldenModes {
		for i, src := range goldenQueries {
			q, err := db.Prepare(src)
			if err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			opts := m.opts(t.TempDir())
			var res *Result
			if m.exact {
				res, err = q.EvalExact(ctx, opts...)
			} else {
				res, err = q.Eval(ctx, opts...)
			}
			if err != nil {
				t.Fatalf("%s query %d: %v", m.name, i, err)
			}
			s := res.Stats()
			fmt.Fprintf(&sb, "== %s q%d rounds=%d restarts=%d sampled=%d reused=%d decisions=%d singular-drops=%d strata=%d early=%d factored=%d spilled=%d/%d\n",
				m.name, i, s.FinalRounds, s.Restarts, s.SampledTrials, s.ReusedTrials,
				s.Decisions, s.SingularDrops, s.Strata, s.EarlyStops, s.ExactFactored,
				s.SpilledBytes, s.SpillFiles)
			sb.WriteString(fingerprint(res))
			// Row.String rounds bounds to four digits; pin them exactly.
			for row := range res.Rows() {
				if row.ErrorBound() > 0 {
					fmt.Fprintf(&sb, "µ %v\n", row.ErrorBound())
				}
			}
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("golden mismatch at line %d:\n got: %s\nwant: %s\n(regenerate with -update if the change is intended)", i+1, g, w)
			}
		}
	}
}
