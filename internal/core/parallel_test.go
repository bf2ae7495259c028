package core

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/karpluby"
	"repro/internal/predapprox"
	"repro/internal/rel"
	"repro/internal/sched"
	"repro/internal/urel"
	"repro/internal/vars"
)

// clusterDB builds a database whose relation R(ID) has n tuples, each with
// a width-wide multi-clause lineage (clause j of tuple i asserts the j-th
// of the tuple's private variables is 0), so every tuple goes through the
// Karp–Luby estimator rather than a singleton shortcut.
func clusterDB(n, width int) *urel.Database {
	db := urel.NewDatabase()
	r := urel.NewRelation(rel.NewSchema("ID"))
	for i := 0; i < n; i++ {
		for j := 0; j < width; j++ {
			v := db.Vars.Add("v"+strconv.Itoa(i)+"_"+strconv.Itoa(j), []float64{0.3, 0.7}, nil)
			r.Add(vars.MustAssignment(vars.Binding{Var: v, Alt: 0}), rel.Tuple{rel.Int(int64(i))})
		}
	}
	db.AddURelation("R", r, false)
	return db
}

// resultFingerprint captures every bit of an approximate result that the
// determinism contract covers: data rows with their exact float P values,
// error bounds, and singularity flags.
func resultFingerprint(t *testing.T, r *Result) []string {
	t.Helper()
	var out []string
	for _, ut := range r.Rel.Tuples() {
		line := ut.Row.Key()
		for _, v := range ut.Row {
			if v.IsNumeric() {
				// Exact bit pattern, not a rounded rendering.
				line += "|" + strconv.FormatFloat(v.AsFloat(), 'x', -1, 64)
			}
		}
		line += "|err=" + strconv.FormatFloat(r.Errors.Get(ut.Row.Key()), 'x', -1, 64)
		line += "|sing=" + strconv.FormatBool(r.Singular[ut.Row.Key()])
		out = append(out, line)
	}
	sort.Strings(out)
	return out
}

// Determinism contract: the same Options.Seed yields bit-identical results
// for every worker count, on both conf and σ̂ plans.
func TestWorkersBitIdentical(t *testing.T) {
	db := clusterDB(12, 4)
	r, id := algebra.Base{Name: "R"}, expr.A("ID")
	queries := map[string]algebra.Query{
		"conf": algebra.Conf{In: r},
		"shat": algebra.ApproxSelect{
			In:   r,
			Args: []algebra.ConfArg{{Attrs: []string{"ID"}}},
			Pred: predapprox.Linear([]float64{1}, 0.5),
		},
		// Branches holding conf evaluate one after the other; each conf
		// spreads its estimation batch across the pool.
		"join-of-confs": algebra.Join{
			L: algebra.Conf{In: algebra.Select{In: r, Pred: expr.Lt(id, expr.CInt(8))}, As: "PL"},
			R: algebra.Conf{In: algebra.Select{In: r, Pred: expr.Ge(id, expr.CInt(3))}, As: "PR"},
		},
		// Pure-algebra branches evaluate concurrently at workers > 1.
		"conf-of-branch-join": algebra.Conf{In: algebra.Join{
			L: algebra.Select{In: r, Pred: expr.Lt(id, expr.CInt(9))},
			R: algebra.Project{In: algebra.Select{In: r, Pred: expr.Ge(id, expr.CInt(2))},
				Targets: []expr.Target{expr.Keep("ID")}},
		}},
	}
	for name, q := range queries {
		var want []string
		for _, workers := range []int{1, 2, 8} {
			eng := NewEngine(db, Options{Eps0: 0.05, Delta: 0.1, Seed: 42, Workers: workers})
			res, err := eng.EvalApprox(q)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			got := resultFingerprint(t, res)
			if want == nil {
				want = got
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: %d tuples, want %d", name, workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s workers=%d: tuple %d differs from workers=1:\n got %s\nwant %s",
						name, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// The engine's Workers=1 path is the sequential reference: this pins the
// task-key and chunk-seed scheme by recomputing one tuple's estimate with
// the karpluby primitives directly and requiring exact agreement.
func TestSequentialChunkReferenceMatch(t *testing.T) {
	db := clusterDB(3, 5)
	const seed = 7
	eng := NewEngine(db, Options{Eps0: 0.1, Delta: 0.1, Seed: seed, Workers: 1})
	res, err := eng.EvalApprox(algebra.Conf{In: algebra.Base{Name: "R"}})
	if err != nil {
		t.Fatal(err)
	}

	fper := newFingerprinter(db.Vars)
	for _, tc := range urel.Lineage(db.Rels["R"]) {
		f, key := fper.canonicalF(tc.F.Dedup())
		est, err := karpluby.NewEstimator(f, db.Vars, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Reproduce the engine's derivation: canonical (content-ordered)
		// clause set, task seed from the content fingerprint,
		// round-aligned chunks of the FPRAS budget.
		taskSeed := sched.TaskSeedWords(seed, key.hi, key.lo)
		total := karpluby.TrialsFor(0.1, 0.1, est.ClauseCount())
		var hits int64
		for _, c := range sched.Chunks(total, karpluby.DefaultChunk(est.ClauseCount())) {
			sh := est.Shard(rand.New(rand.NewSource(sched.ChunkSeed(taskSeed, c.Index))))
			sh.Add(int(c.N))
			hits += sh.Hits()
		}
		want := float64(hits) * est.M() / float64(total)

		found := false
		pIdx := res.Rel.Schema().Index("P")
		for _, ut := range res.Rel.Tuples() {
			if ut.Row[0].Key() == tc.Row[0].Key() {
				found = true
				if got := ut.Row[pIdx].AsFloat(); got != want {
					t.Errorf("tuple %s: engine %v, reference %v", tc.Row.Key(), got, want)
				}
			}
		}
		if !found {
			t.Errorf("tuple %s missing from result", tc.Row.Key())
		}
	}
}

// Stress for the race detector: a 1k-tuple relation estimated with a full
// worker complement, conf and σ̂ back to back. Loose (ε,δ) keeps the trial
// counts small; the point is scheduler and merge contention, not accuracy.
func TestParallelStressRace(t *testing.T) {
	db := clusterDB(1000, 2)
	eng := NewEngine(db, Options{
		Eps0: 0.3, Delta: 0.3, ConfEps: 0.3, ConfDelta: 0.3,
		Seed: 11, Workers: 8,
		InitialRounds: 4, MaxRounds: 4,
	})
	res, err := eng.EvalApprox(algebra.Conf{In: algebra.Base{Name: "R"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 1000 {
		t.Fatalf("conf produced %d tuples, want 1000", res.Rel.Len())
	}
	sel, err := eng.EvalApprox(algebra.ApproxSelect{
		In:   algebra.Base{Name: "R"},
		Args: []algebra.ConfArg{{Attrs: []string{"ID"}}},
		Pred: predapprox.Linear([]float64{1}, 0.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each tuple's confidence is 1−0.7² = 0.51; the threshold 0.5 is close
	// enough that membership may wobble, but the evaluation itself must be
	// race-free and produce some output with bounded errors.
	for _, ut := range sel.Rel.Tuples() {
		if e := sel.Errors.Get(ut.Row.Key()); e < 0 || e > 1 {
			t.Errorf("tuple %s has error bound %v outside [0,1]", ut.Row.Key(), e)
		}
	}
}
