package core

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/predapprox"
	"repro/internal/rel"
	"repro/internal/urel"
	"repro/internal/vars"
)

// resumeDB builds the canonical resume workload: R(ID) has nShat tuples
// whose confidence 1−0.7⁴ ≈ 0.76 sits close to (but a non-singular margin
// away from) the σ̂ threshold 0.7, so the doubling loop needs many
// restarts to push δᵢ below δ; S(SID) has nConf tuples with 4-clause
// lineages whose conf estimation spends a full fixed (ε,δ) budget — which
// a restart re-requests identically, the exact-replay case of the cache.
func resumeDB(nShat, nConf int) *urel.Database {
	db := urel.NewDatabase()
	r := urel.NewRelation(rel.NewSchema("ID"))
	for i := 0; i < nShat; i++ {
		for j := 0; j < 4; j++ {
			v := db.Vars.Add("r"+strconv.Itoa(i)+"_"+strconv.Itoa(j), []float64{0.3, 0.7}, nil)
			r.Add(vars.MustAssignment(vars.Binding{Var: v, Alt: 0}), rel.Tuple{rel.Int(int64(i))})
		}
	}
	db.AddURelation("R", r, false)
	s := urel.NewRelation(rel.NewSchema("SID"))
	for i := 0; i < nConf; i++ {
		for j := 0; j < 4; j++ {
			v := db.Vars.Add("s"+strconv.Itoa(i)+"_"+strconv.Itoa(j), []float64{0.3, 0.7}, nil)
			s.Add(vars.MustAssignment(vars.Binding{Var: v, Alt: 0}), rel.Tuple{rel.Int(int64(i))})
		}
	}
	db.AddURelation("S", s, false)
	return db
}

// resumeQuery pairs a restart-hungry σ̂ with a fixed-budget conf in one
// plan, exercising both cache modes (prefix resume and exact replay).
func resumeQuery() algebra.Query {
	return algebra.Product{
		L: algebra.ApproxSelect{
			In:   algebra.Base{Name: "R"},
			Args: []algebra.ConfArg{{Attrs: []string{"ID"}}},
			Pred: predapprox.Linear([]float64{1}, 0.7),
		},
		R: algebra.Conf{In: algebra.Base{Name: "S"}, As: "PC"},
	}
}

func resumeOpts(seed int64, workers int, noResume bool) Options {
	return Options{
		Eps0: 0.05, Delta: 0.1, Seed: seed, Workers: workers,
		NoResume: noResume, MaxRounds: 1 << 13,
	}
}

// TestResumeBitIdentical is the tentpole's correctness contract: a
// doubling loop that resumes estimator state across restarts produces
// results bit-identical to from-scratch re-estimation at every budget —
// same data rows, same float bit patterns, same error bounds, same
// singularity flags, same doubling trajectory — for any worker count
// under one seed. The (ε,δ) guarantee is therefore untouched by reuse:
// the final estimates ARE the from-scratch estimates.
func TestResumeBitIdentical(t *testing.T) {
	db := resumeDB(3, 2)
	q := resumeQuery()
	var want []string
	var wantRounds int64
	var wantRestarts int
	for _, noResume := range []bool{false, true} {
		for _, workers := range []int{1, 4, 8} {
			eng := NewEngine(db, resumeOpts(20080609, workers, noResume))
			res, err := eng.EvalApprox(q)
			if err != nil {
				t.Fatalf("noResume=%v workers=%d: %v", noResume, workers, err)
			}
			if res.Stats.Restarts < 3 {
				t.Fatalf("noResume=%v workers=%d: only %d restarts; workload too easy to exercise resume",
					noResume, workers, res.Stats.Restarts)
			}
			got := resultFingerprint(t, res)
			if want == nil {
				want, wantRounds, wantRestarts = got, res.Stats.FinalRounds, res.Stats.Restarts
				continue
			}
			if res.Stats.FinalRounds != wantRounds || res.Stats.Restarts != wantRestarts {
				t.Errorf("noResume=%v workers=%d: trajectory (l=%d, restarts=%d) differs from reference (l=%d, restarts=%d)",
					noResume, workers, res.Stats.FinalRounds, res.Stats.Restarts, wantRounds, wantRestarts)
			}
			if len(got) != len(want) {
				t.Fatalf("noResume=%v workers=%d: %d tuples, want %d", noResume, workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("noResume=%v workers=%d: tuple %d differs from reference:\n got %s\nwant %s",
						noResume, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestResumeSavesTrials pins the tentpole's point: with resume on, the
// doubling loop samples at least 1.5× fewer trials than from-scratch
// re-estimation (in this workload the conf budget replays exactly on
// every restart and the σ̂ budgets resume their full-chunk prefixes, so
// the real ratio is far higher).
func TestResumeSavesTrials(t *testing.T) {
	db := resumeDB(3, 2)
	q := resumeQuery()
	on, err := NewEngine(db, resumeOpts(7, 1, false)).EvalApprox(q)
	if err != nil {
		t.Fatal(err)
	}
	off, err := NewEngine(db, resumeOpts(7, 1, true)).EvalApprox(q)
	if err != nil {
		t.Fatal(err)
	}
	if off.Stats.ReusedTrials != 0 {
		t.Errorf("NoResume run reports %d reused trials, want 0", off.Stats.ReusedTrials)
	}
	if on.Stats.ReusedTrials == 0 {
		t.Error("resume run reused no trials despite restarts")
	}
	if on.Stats.EstimatorTrials <= 0 || off.Stats.EstimatorTrials <= 0 {
		t.Fatalf("degenerate trial counts: on=%d off=%d", on.Stats.EstimatorTrials, off.Stats.EstimatorTrials)
	}
	ratio := float64(off.Stats.EstimatorTrials) / float64(on.Stats.EstimatorTrials)
	if ratio < 1.5 {
		t.Errorf("resume sampled %d trials vs %d from scratch (%.2f× saving), want ≥ 1.5×",
			on.Stats.EstimatorTrials, off.Stats.EstimatorTrials, ratio)
	}
	t.Logf("sampled trials: resume=%d scratch=%d (%.1f× fewer), reused=%d",
		on.Stats.EstimatorTrials, off.Stats.EstimatorTrials, ratio, on.Stats.ReusedTrials)
}

// TestEstimatorCacheRace hammers the cache with the access pattern of
// concurrent evaluations sharing one engine cache — stores from finishing
// batches interleaved with lookups — so the race detector can vet the
// locking.
func TestEstimatorCacheRace(t *testing.T) {
	c := NewCache(0)
	const goroutines, keys, rounds = 8, 16, 200
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := contentKey{hi: uint64((g + i) % keys), lo: 99}
				total := int64(4096 * (1 + i%4))
				c.store(key, 4, 4096, total, total/3, int64(i%7), int64(i%7)*3, nil, 1)
				if st, ok := c.lookup(key, 4, 4096, total*2, 1); ok && !st.Valid() {
					t.Errorf("cache returned invalid state %+v", st)
				}
				// Mismatched clause counts, chunk sizes, and seeds must
				// never resolve (key-stability guards).
				if _, ok := c.lookup(key, 5, 4096, total, 1); ok {
					t.Error("lookup matched across clause-count mismatch")
				}
				if _, ok := c.lookup(key, 4, 2048, total, 1); ok {
					t.Error("lookup matched across chunk-size mismatch")
				}
				if _, ok := c.lookup(key, 4, 4096, total, 2); ok {
					t.Error("lookup matched across seed mismatch")
				}
			}
		}(g)
	}
	wg.Wait()
	if c.len() == 0 || c.len() > keys {
		t.Errorf("cache holds %d entries, want 1..%d", c.len(), keys)
	}
	if s := c.Stats(); s.Hits == 0 || s.Misses == 0 || s.Entries != c.len() {
		t.Errorf("implausible cache stats %+v", s)
	}
}

// TestCacheLRUEviction pins the size bound: a cache of N entries never
// holds more than N, evicts in least-recently-used order, and counts
// evictions. Eviction only costs reuse — a re-store after eviction works.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	k := func(i uint64) contentKey { return contentKey{hi: i, lo: i} }
	c.store(k(1), 4, 4096, 4096, 10, 0, 0, nil, 1)
	c.store(k(2), 4, 4096, 4096, 20, 0, 0, nil, 1)
	// Touch k(1) so k(2) is the LRU victim when k(3) arrives.
	if _, ok := c.lookup(k(1), 4, 4096, 4096, 1); !ok {
		t.Fatal("warm entry k(1) missing")
	}
	c.store(k(3), 4, 4096, 4096, 30, 0, 0, nil, 1)
	if c.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.len())
	}
	if _, ok := c.lookup(k(2), 4, 4096, 4096, 1); ok {
		t.Error("LRU entry k(2) survived eviction")
	}
	for _, key := range []contentKey{k(1), k(3)} {
		if _, ok := c.lookup(key, 4, 4096, 4096, 1); !ok {
			t.Errorf("entry %v evicted out of LRU order", key)
		}
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	// Updating an existing key must not evict (no growth).
	c.store(k(1), 4, 4096, 8192, 40, 0, 0, nil, 1)
	if c.len() != 2 || c.Stats().Evictions != 1 {
		t.Errorf("in-place update changed size/evictions: len=%d stats=%+v", c.len(), c.Stats())
	}
	// A store under a new seed is a separate entry (mixed-seed clients of
	// one shared cache must not clobber each other); it competes for
	// space like any other, evicting the LRU entry k(3).
	c.store(k(1), 4, 4096, 4096, 7, 0, 0, nil, 2)
	if st, ok := c.lookup(k(1), 4, 4096, 4096, 2); !ok || st.Hits != 7 {
		t.Errorf("second-seed store not visible: %+v ok=%v", st, ok)
	}
	if st, ok := c.lookup(k(1), 4, 4096, 8192, 1); !ok || st.Hits != 40 {
		t.Errorf("first-seed counts clobbered by a second-seed store: %+v ok=%v", st, ok)
	}
	if c.len() != 2 || c.Stats().Evictions != 2 {
		t.Errorf("after mixed-seed store: len=%d stats=%+v, want 2 entries / 2 evictions", c.len(), c.Stats())
	}
}

// TestResumeStressRace runs the full engine with a worker complement and
// forced restarts so cache stores (from pool workers merging final
// chunks) and lookups (from the next restart's plan construction) overlap
// under the race detector.
func TestResumeStressRace(t *testing.T) {
	db := resumeDB(64, 32)
	eng := NewEngine(db, Options{
		Eps0: 0.05, Delta: 0.2, ConfEps: 0.2, ConfDelta: 0.2,
		Seed: 13, Workers: 8, MaxRounds: 64,
	})
	res, err := eng.EvalApprox(resumeQuery())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Restarts == 0 {
		t.Error("stress run never restarted; cache reuse not exercised")
	}
}

// TestResumeCacheMonotone checks the stale-store guard: a smaller budget
// must not clobber a cached larger one.
func TestResumeCacheMonotone(t *testing.T) {
	c := NewCache(0)
	k := contentKey{hi: 11, lo: 13}
	c.store(k, 4, 4096, 8192, 100, 0, 0, nil, 1)
	c.store(k, 4, 4096, 4096, 40, 0, 0, nil, 1) // stale: must be dropped
	st, ok := c.lookup(k, 4, 4096, 8192, 1)
	if !ok || st.Trials != 8192 || st.Hits != 100 {
		t.Fatalf("stale store clobbered cache: got %+v ok=%v", st, ok)
	}
	// Prefix lookup at a doubled budget resumes the full-chunk prefix.
	st, ok = c.lookup(k, 4, 4096, 16384, 1)
	if !ok || st.Trials != 8192 || st.Chunks != 2 {
		t.Fatalf("prefix lookup: got %+v ok=%v, want 8192 trials over 2 chunks", st, ok)
	}
}

// TestResumeCacheUnalignedBudget pins the partial-chunk bookkeeping: an
// exact replay of an unaligned budget returns the full counts with the
// cursor at the full-chunk boundary; a prefix lookup at a larger budget
// excludes the partial counts when no mid-chunk PRNG was stored, and
// carries them (with the PRNG, for mid-chunk continuation) when one was.
func TestResumeCacheUnalignedBudget(t *testing.T) {
	c := NewCache(0)
	p := contentKey{hi: 1, lo: 2}
	q := contentKey{hi: 3, lo: 4}
	// 2 full chunks + a 1808-trial partial, no saved PRNG (replay-only tail).
	c.store(p, 4, 4096, 10000, 77, 5, 1808, nil, 1)
	st, ok := c.lookup(p, 4, 4096, 10000, 1)
	if !ok || st.Trials != 10000 || st.Hits != 77 || st.Chunks != 2 {
		t.Fatalf("exact replay: got %+v ok=%v, want 10000 trials / 77 hits / cursor 2", st, ok)
	}
	st, ok = c.lookup(p, 4, 4096, 20000, 1)
	if !ok || st.Trials != 8192 || st.Hits != 72 || st.Chunks != 2 || st.PartialRNG != nil {
		t.Fatalf("prefix resume: got %+v ok=%v, want 8192 trials / 72 hits / cursor 2, no tail", st, ok)
	}
	// Same shape with the partial chunk's PRNG saved: the larger budget
	// resumes the full counts and receives the tail for continuation.
	rng := rand.New(rand.NewSource(99))
	c.store(q, 4, 4096, 10000, 77, 5, 1808, rng, 1)
	st, ok = c.lookup(q, 4, 4096, 20000, 1)
	if !ok || st.Trials != 10000 || st.Hits != 77 || st.Chunks != 2 {
		t.Fatalf("mid-chunk resume: got %+v ok=%v, want full 10000 trials / 77 hits / cursor 2", st, ok)
	}
	if st.PartialTrials != 1808 || st.PartialHits != 5 || st.PartialRNG != rng {
		t.Fatalf("mid-chunk resume tail: got %+v, want 1808 trials / 5 hits / saved rng", st)
	}
	if !st.Valid() {
		t.Fatalf("mid-chunk resume state invalid: %+v", st)
	}
	// The tail is handed out with ownership (the scheduler advances the
	// PRNG in place): a second lookup degrades to the full-chunk prefix,
	// so an aborted batch can never leave stale counts paired with an
	// advanced PRNG in the cache.
	st, ok = c.lookup(q, 4, 4096, 20000, 1)
	if !ok || st.Trials != 8192 || st.Hits != 72 || st.PartialRNG != nil {
		t.Fatalf("post-handout lookup: got %+v ok=%v, want prefix-only 8192 trials / 72 hits", st, ok)
	}
	// Ownership transfers only on an accepted lookup that carries the
	// tail: refused lookups (wrong seed, clause count, or an overlapping
	// smaller budget) and exact replays must leave the tail in place for
	// the next larger budget.
	r := contentKey{hi: 5, lo: 6}
	rng2 := rand.New(rand.NewSource(7))
	c.store(r, 4, 4096, 10000, 77, 5, 1808, rng2, 1)
	if _, ok := c.lookup(r, 4, 4096, 20000, 99); ok {
		t.Fatal("seed-mismatch lookup resolved")
	}
	if _, ok := c.lookup(r, 4, 4096, 4096, 1); ok {
		t.Fatal("overlapping smaller-budget lookup resolved")
	}
	if st, ok := c.lookup(r, 4, 4096, 10000, 1); !ok || st.Trials != 10000 {
		t.Fatalf("exact replay after refusals: got %+v ok=%v", st, ok)
	}
	st, ok = c.lookup(r, 4, 4096, 20000, 1)
	if !ok || st.PartialRNG != rng2 || st.PartialTrials != 1808 {
		t.Fatalf("tail lost to a refused or replay lookup: got %+v ok=%v", st, ok)
	}
}

// BenchmarkConfDoublingResume measures the tentpole end to end: the same
// restart-heavy plan (near-threshold σ̂ + fixed-budget conf) with
// estimator resumption on and off. The reported sampled-trials/op metric
// is the paper-relevant cost driver — resume must sample ≥1.5× fewer
// trials (see TestResumeSavesTrials for the hard assertion); wall-clock
// follows it.
func BenchmarkConfDoublingResume(b *testing.B) {
	db := resumeDB(3, 2)
	q := resumeQuery()
	for _, mode := range []struct {
		name     string
		noResume bool
	}{{"resume", false}, {"scratch", true}} {
		b.Run(mode.name, func(b *testing.B) {
			eng := NewEngine(db, resumeOpts(7, 0, mode.noResume))
			b.ReportAllocs()
			var sampled, reused int64
			for i := 0; i < b.N; i++ {
				res, err := eng.EvalApprox(q)
				if err != nil {
					b.Fatal(err)
				}
				sampled += res.Stats.EstimatorTrials
				reused += res.Stats.ReusedTrials
			}
			b.ReportMetric(float64(sampled)/float64(b.N), "sampled-trials/op")
			b.ReportMetric(float64(reused)/float64(b.N), "reused-trials/op")
		})
	}
}
