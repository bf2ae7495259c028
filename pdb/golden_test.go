package pdb

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
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

// goldenSkewQueries run over skewDB (scenario_test.go). Every group's
// lineage is one connected 12-clause component whose clause weights span
// several bands, so dnf.Factor leaves it as a residue and the stratified
// modes really sample: adaptive conf waves, threshold early stops, and
// σ̂ passes across restarts (group 1 sits near the 0.05 cut).
var goldenSkewQueries = []string{
	`conf as P (project[Grp](product(R, S)));`,
	`aselect[p1 >= 0.05 over conf[Grp]](project[Grp](product(R, S)));`,
}

// goldenModes are the evaluation paths the fingerprints pin: exact, flat
// Karp–Luby, stratified (plain, with a threshold early stop, and at a
// tight δ whose σ̂ passes span several chunks, so they run doubling waves
// and resume chunk-aligned counts across restarts), and out-of-core
// exact. Sampling modes use fixed seeds, so a change to any PRNG stream
// shows up as an explicit diff.
//
// Clustered modes are rerun through an in-process two-shard cluster.
// Those rows, bounds and singularity marks must equal the single-node
// lines; their stats are not recorded, because remote dispatch re-samples
// mid-chunk tails instead of continuing them.
var goldenModes = []struct {
	name      string
	exact     bool
	clustered bool
	opts      func(spillDir string) []Option
}{
	{"exact", true, false, func(string) []Option { return nil }},
	{"flat", false, true, func(string) []Option { return []Option{WithSeed(7)} }},
	{"strata4", false, true, func(string) []Option { return []Option{WithSeed(7), WithStrata(4)} }},
	{"strata4-tau", false, false, func(string) []Option { return []Option{WithSeed(7), WithStrata(4), WithThreshold(0.3)} }},
	{"strata4-tight", false, true, func(string) []Option { return []Option{WithSeed(7), WithStrata(4), WithDelta(1e-9)} }},
	{"exact-spilled", true, false, func(dir string) []Option {
		return []Option{WithMaxMemory(300), WithSpillDir(dir)}
	}},
}

// TestGoldenFingerprints compares every (mode, query) result — rows with
// their error bounds and singularity marks, plus the deterministic
// evaluation statistics — against testdata/golden.txt byte for byte.
func TestGoldenFingerprints(t *testing.T) {
	sensors, err := Open(map[string]string{
		"sensors": filepath.Join("..", "examples", "data", "sensors.csv"),
		"rooms":   filepath.Join("..", "examples", "data", "rooms.csv"),
	})
	if err != nil {
		t.Fatal(err)
	}
	sets := []struct {
		label   string
		db      *DB
		queries []string
	}{
		{"q", sensors, goldenQueries},
		{"skew", skewDB(t), goldenSkewQueries},
	}
	ctx := context.Background()
	var sb strings.Builder
	// bodies holds each single-node sampling block (rows and bounds, no
	// stats) for the clustered comparison below.
	bodies := map[string]string{}
	for _, m := range goldenModes {
		for _, set := range sets {
			for i, src := range set.queries {
				q, err := set.db.Prepare(src)
				if err != nil {
					t.Fatalf("%s%d: %v", set.label, i, err)
				}
				opts := m.opts(t.TempDir())
				var res *Result
				if m.exact {
					res, err = q.EvalExact(ctx, opts...)
				} else {
					res, err = q.Eval(ctx, opts...)
				}
				if err != nil {
					t.Fatalf("%s %s%d: %v", m.name, set.label, i, err)
				}
				s := res.Stats()
				fmt.Fprintf(&sb, "== %s %s%d rounds=%d restarts=%d sampled=%d reused=%d decisions=%d singular-drops=%d strata=%d early=%d factored=%d spilled=%d/%d\n",
					m.name, set.label, i, s.FinalRounds, s.Restarts, s.SampledTrials, s.ReusedTrials,
					s.Decisions, s.SingularDrops, s.Strata, s.EarlyStops, s.ExactFactored,
					s.SpilledBytes, s.SpillFiles)
				body := goldenBody(res)
				sb.WriteString(body)
				bodies[fmt.Sprintf("%s %s%d", m.name, set.label, i)] = body
			}
		}
	}
	peers := startGoldenShards(t, 2)
	for _, m := range goldenModes {
		if !m.clustered {
			continue
		}
		for _, set := range sets {
			for i, src := range set.queries {
				eng, err := set.db.Engine(WithEngineCluster(ClusterOptions{Peers: peers}))
				if err != nil {
					t.Fatal(err)
				}
				q, err := eng.Prepare(src)
				if err != nil {
					t.Fatal(err)
				}
				res, err := q.Eval(ctx, m.opts("")...)
				eng.Close()
				if err != nil {
					t.Fatalf("%s-2shard %s%d: %v", m.name, set.label, i, err)
				}
				body := goldenBody(res)
				if want := bodies[fmt.Sprintf("%s %s%d", m.name, set.label, i)]; body != want {
					t.Errorf("%s %s%d: two-shard rows differ from single node\n got: %q\nwant: %q", m.name, set.label, i, body, want)
				}
				fmt.Fprintf(&sb, "== %s-2shard %s%d\n", m.name, set.label, i)
				sb.WriteString(body)
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

// goldenBody renders a result's rows with their rounded bounds and
// singularity marks, then every positive bound exactly (Row.String
// rounds bounds to four digits).
func goldenBody(res *Result) string {
	var sb strings.Builder
	sb.WriteString(fingerprint(res))
	for row := range res.Rows() {
		if row.ErrorBound() > 0 {
			fmt.Fprintf(&sb, "µ %v\n", row.ErrorBound())
		}
	}
	return sb.String()
}

// startGoldenShards boots n in-process shard servers on loopback and
// returns their addresses; test cleanup closes them.
func startGoldenShards(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		sh := cluster.NewShard(cluster.ShardConfig{Workers: 2})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		go sh.Serve(ln)
		t.Cleanup(func() { sh.Close() })
	}
	return addrs
}
