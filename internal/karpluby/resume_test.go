package karpluby

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/dnf"
	"repro/internal/sched"
	"repro/internal/vars"
)

// The engine estimates a flat clause set as a one-stratum Stratified, so
// these tests state the resume primitives on that plan: snapshot, resume,
// cursor, and delta-chunk extension.

// resumeClauseSet builds a k-clause DNF over k independent binary
// variables (clause i asserts v_i = 0 with probability 0.3).
func resumeClauseSet(t testing.TB, k int) (dnf.F, *vars.Table) {
	t.Helper()
	table := vars.NewTable()
	f := make(dnf.F, k)
	for i := 0; i < k; i++ {
		v := table.Add("v"+strconv.Itoa(i), []float64{0.3, 0.7}, nil)
		f[i] = vars.MustAssignment(vars.Binding{Var: v, Alt: 0})
	}
	return f, table
}

// flatStratified builds the one-stratum estimator of a flat job.
func flatStratified(t testing.TB, f dnf.F, table *vars.Table) *Stratified {
	t.Helper()
	s, err := NewStratified(f, table, PlanStrata(f, table, 0))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sampleChunks samples the given plan chunks of stratum 0 from their
// (taskSeed, index) streams and merges them.
func sampleChunks(s *Stratified, taskSeed int64, chunks []sched.Chunk) {
	for _, c := range chunks {
		sh := s.Shard(0, rand.New(rand.NewSource(sched.ChunkSeed(taskSeed, c.Index))))
		sh.Add(int(c.N))
		s.MergeShard(0, sh)
	}
}

func TestStateResumeRoundTrip(t *testing.T) {
	f, table := resumeClauseSet(t, 5)
	e := flatStratified(t, f, table)
	sh := e.Shard(0, rand.New(rand.NewSource(1)))
	sh.Add(1234)
	e.MergeShard(0, sh)
	e.AdvanceStratum(0, 3)
	st := e.StratumState(0)
	if st.Trials != 1234 || st.Hits != e.Hits() || st.Chunks != 3 {
		t.Fatalf("snapshot %+v does not reflect estimator (hits=%d trials=%d)", st, e.Hits(), e.Trials())
	}

	r := flatStratified(t, f, table)
	if err := r.ResumeStratum(0, st); err != nil {
		t.Fatal(err)
	}
	if r.Hits() != e.Hits() || r.Trials() != e.Trials() || r.StratumState(0) != st {
		t.Errorf("resumed estimator state %+v, want %+v", r.StratumState(0), st)
	}
	if r.Estimate() != e.Estimate() {
		t.Errorf("resumed estimate %v, want %v", r.Estimate(), e.Estimate())
	}
	if r.Delta(0.1) != e.Delta(0.1) {
		t.Errorf("resumed delta %v, want %v", r.Delta(0.1), e.Delta(0.1))
	}
}

func TestResumeRejectsBadStates(t *testing.T) {
	f, table := resumeClauseSet(t, 3)
	for _, st := range []StratumState{
		{Hits: -1, Trials: 0, Chunks: 0},
		{Hits: 5, Trials: 4, Chunks: 0},
		{Hits: 0, Trials: 0, Chunks: -1},
	} {
		if err := flatStratified(t, f, table).ResumeStratum(0, st); err == nil {
			t.Errorf("ResumeStratum(%+v) accepted an invalid state", st)
		}
	}
	// Resume must not overwrite counts a stratum already accumulated.
	e := flatStratified(t, f, table)
	sampleChunks(e, 2, []sched.Chunk{{Index: 0, N: 10}})
	if err := e.ResumeStratum(0, StratumState{Hits: 0, Trials: 100, Chunks: 1}); err == nil {
		t.Error("ResumeStratum on a sampled stratum should fail")
	}
}

func TestAdvanceStratumIsMonotone(t *testing.T) {
	f, table := resumeClauseSet(t, 3)
	e := flatStratified(t, f, table)
	e.AdvanceStratum(0, 4)
	e.AdvanceStratum(0, 2) // must not regress
	if got := e.StratumChunks(0); got != 4 {
		t.Errorf("cursor = %d after AdvanceStratum(4) then AdvanceStratum(2), want 4", got)
	}
}

// TestResumeExtendsMatchScratch is the primitive-level statement of the
// engine's resume invariant: running the chunk plan of budget T₁, then
// resuming the snapshot and running only the delta chunks of T₂ > T₁,
// yields counts bit-identical to running T₂'s full plan from scratch —
// because plans are prefix-compatible and chunk streams depend only on
// (task seed, plan index).
func TestResumeExtendsMatchScratch(t *testing.T) {
	f, table := resumeClauseSet(t, 4)
	const (
		taskSeed = 99
		size     = 512
		t1       = int64(3 * size) // chunk-aligned first budget
		t2       = int64(7*size + 123)
	)
	first := flatStratified(t, f, table)
	sampleChunks(first, taskSeed, sched.Chunks(t1, size))
	first.AdvanceStratum(0, sched.FullChunks(t1, size))
	st := first.StratumState(0)
	if st.Chunks != 3 || st.Trials != t1 {
		t.Fatalf("first budget snapshot %+v, want 3 chunks / %d trials", st, t1)
	}

	resumed := flatStratified(t, f, table)
	if err := resumed.ResumeStratum(0, st); err != nil {
		t.Fatal(err)
	}
	sampleChunks(resumed, taskSeed, sched.ChunksFrom(t2, size, st.Chunks))

	scratch := flatStratified(t, f, table)
	sampleChunks(scratch, taskSeed, sched.Chunks(t2, size))

	if resumed.Hits() != scratch.Hits() || resumed.Trials() != scratch.Trials() {
		t.Errorf("resumed (hits=%d trials=%d) differs from scratch (hits=%d trials=%d)",
			resumed.Hits(), resumed.Trials(), scratch.Hits(), scratch.Trials())
	}
	if resumed.Estimate() != scratch.Estimate() {
		t.Errorf("resumed estimate %v differs from scratch %v", resumed.Estimate(), scratch.Estimate())
	}
}

// Shards of a resumed stratum must not inherit the resumed counts —
// merging would then double-count the snapshot.
func TestShardOfResumedEstimatorIsFresh(t *testing.T) {
	f, table := resumeClauseSet(t, 3)
	e := flatStratified(t, f, table)
	if err := e.ResumeStratum(0, StratumState{Hits: 7, Trials: 30, Chunks: 1}); err != nil {
		t.Fatal(err)
	}
	sh := e.Shard(0, rand.New(rand.NewSource(3)))
	if sh.Hits() != 0 || sh.Trials() != 0 {
		t.Fatalf("shard starts with hits=%d trials=%d, want zeros", sh.Hits(), sh.Trials())
	}
	sh.Add(10)
	e.MergeShard(0, sh)
	if e.Trials() != 40 {
		t.Errorf("merge after resume: trials=%d, want 40", e.Trials())
	}
}
