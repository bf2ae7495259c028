package core

import (
	"math"
	"testing"

	"repro/internal/dnf"
	"repro/internal/urel"
	"repro/internal/vars"
)

// partialFixture is a 2-clause set (chunk size 4096) so small budgets end
// in a trailing partial chunk.
func partialFixture() (*urel.Database, dnf.F) {
	db := urel.NewDatabase()
	x := db.Vars.Add("x", []float64{0.4, 0.6}, nil)
	y := db.Vars.Add("y", []float64{0.5, 0.5}, nil)
	f := dnf.F{
		vars.MustAssignment(vars.Binding{Var: x, Alt: 0}),
		vars.MustAssignment(vars.Binding{Var: y, Alt: 1}),
	}
	return db, f
}

// estimateOnce spends one flat job's budget through the estimation driver and
// returns the run and the job's estimator value.
func estimateOnce(t *testing.T, eng *Engine, cache *Cache, budget int64) (*evalRun, float64, int64) {
	t.Helper()
	_, f := partialFixture()
	run := &evalRun{engine: eng, vars: eng.db.Clone().Vars, rounds: 1, cache: cache}
	cv, job, err := run.newStratJob(f, func(int) int64 { return budget }, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if job == nil {
		t.Fatal("fixture unexpectedly classified as exact")
	}
	if err := run.runStratEstimates([]*stratJob{job}, stratTarget{}); err != nil {
		t.Fatal(err)
	}
	if got := job.est.Trials(); got != budget {
		t.Fatalf("estimator covers %d trials, want %d", got, budget)
	}
	return run, cv.estimate(), job.est.Hits()
}

// TestPartialChunkReplay pins the mid-chunk resume contract: growing a
// budget that ended inside a chunk replays the trailing partial chunk from
// its snapshotted PRNG instead of re-sampling it, so a restart samples
// exactly the delta budget — while every estimate stays bit-identical to a
// from-scratch run at the full budget, for any worker count.
//
// The budgets are chosen against chunk size 4096 (2 clauses) to cover the
// three resume shapes: 1000 → partial chunk only (no full-chunk prefix —
// resumable at all only via the saved PRNG), 5000 → one full chunk plus a
// partial, 10000 → continuation across both.
func TestPartialChunkReplay(t *testing.T) {
	db, _ := partialFixture()
	budgets := []int64{1000, 5000, 10000}
	for _, workers := range []int{1, 4, 8} {
		// From-scratch reference estimates at every budget.
		scratch := make(map[int64]float64)
		for _, b := range budgets {
			eng := NewEngine(db, Options{Eps0: 0.05, Delta: 0.1, Seed: 42, Workers: workers})
			_, est, _ := estimateOnce(t, eng, nil, b)
			scratch[b] = est
		}
		// One cache across the growing budgets: each step must sample
		// exactly the delta and reuse everything before it.
		eng := NewEngine(db, Options{Eps0: 0.05, Delta: 0.1, Seed: 42, Workers: workers})
		cache := NewCache(0)
		var prev int64
		for _, b := range budgets {
			run, est, _ := estimateOnce(t, eng, cache, b)
			if math.Float64bits(est) != math.Float64bits(scratch[b]) {
				t.Errorf("workers=%d budget=%d: resumed estimate %v != scratch %v",
					workers, b, est, scratch[b])
			}
			if wantSampled := b - prev; run.trials != wantSampled {
				t.Errorf("workers=%d budget=%d: sampled %d trials, want exactly the delta %d (reused=%d)",
					workers, b, run.trials, wantSampled, run.reused)
			}
			if run.reused != prev {
				t.Errorf("workers=%d budget=%d: reused %d trials, want %d", workers, b, run.reused, prev)
			}
			prev = b
		}
	}
}

// TestPartialChunkReplayMatchesWorkers cross-checks that the mid-chunk
// continuation path yields the same hit counts no matter which worker
// complement executed the earlier budgets.
func TestPartialChunkReplayMatchesWorkers(t *testing.T) {
	db, _ := partialFixture()
	var wantHits int64 = -1
	for _, workers := range []int{1, 4, 8} {
		eng := NewEngine(db, Options{Eps0: 0.05, Delta: 0.1, Seed: 7, Workers: workers})
		cache := NewCache(0)
		estimateOnce(t, eng, cache, 3000)
		_, _, hits := estimateOnce(t, eng, cache, 9000)
		if wantHits < 0 {
			wantHits = hits
			continue
		}
		if hits != wantHits {
			t.Errorf("workers=%d: %d hits after resume, want %d", workers, hits, wantHits)
		}
	}
}
