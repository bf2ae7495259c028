package karpluby

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dnf"
	"repro/internal/sched"
	"repro/internal/vars"
)

// chainF builds the clause set of a 1-of-n "at least one sensor fires"
// tuple: n binary variables, clause i asserting var i = 1.
func chainF(n int, p float64) (dnf.F, *vars.Table) {
	tab := vars.NewTable()
	f := make(dnf.F, n)
	for i := 0; i < n; i++ {
		v := tab.Add("x"+string(rune('a'+i%26))+string(rune('0'+i/26%10))+string(rune('0'+i/260)), []float64{1 - p, p}, nil)
		f[i] = vars.Assignment{{Var: v, Alt: 1}}
	}
	return f, tab
}

// The parallel engine samples a flat clause set as a one-stratum
// Stratified; these tests pin its shard/merge contract.

// TestMergePartitionInvariant: splitting a trial budget into chunks, each
// with its own deterministically seeded stream, yields bit-identical
// (hits, trials) no matter how the chunks are grouped into shards — the
// property the parallel engine relies on for worker-count independence.
func TestMergePartitionInvariant(t *testing.T) {
	f, tab := chainF(12, 0.3)
	const taskSeed, total, chunkSize = 12345, 9000, 1000

	runPlan := func(group int) (int64, int64) {
		tmpl := flatStratified(t, f, tab)
		chunks := sched.Chunks(total, chunkSize)
		// Process chunks in round-robin groups to simulate different
		// worker interleavings.
		for g := 0; g < group; g++ {
			for i := g; i < len(chunks); i += group {
				sh := tmpl.Shard(0, rand.New(rand.NewSource(sched.ChunkSeed(taskSeed, chunks[i].Index))))
				sh.Add(int(chunks[i].N))
				tmpl.MergeShard(0, sh)
			}
		}
		return tmpl.Hits(), tmpl.Trials()
	}

	h1, m1 := runPlan(1)
	for _, group := range []int{2, 3, 7} {
		h, m := runPlan(group)
		if h != h1 || m != m1 {
			t.Errorf("grouping %d: (hits,trials)=(%d,%d), want (%d,%d)", group, h, m, h1, m1)
		}
	}
	if m1 != total {
		t.Errorf("merged trials = %d, want %d", m1, total)
	}
}

// TestShardConcurrentMatchesSequential: shards running on real goroutines
// produce the same merged counts as the same chunks run sequentially, and
// the merged estimate agrees with the exact confidence.
func TestShardConcurrentMatchesSequential(t *testing.T) {
	f, tab := chainF(20, 0.15)
	const taskSeed, total, chunkSize = 99, 40000, 2500
	chunks := sched.Chunks(total, chunkSize)

	seq := flatStratified(t, f, tab)
	sampleChunks(seq, taskSeed, chunks)

	par := flatStratified(t, f, tab)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, c := range chunks {
		wg.Add(1)
		go func(c sched.Chunk) {
			defer wg.Done()
			sh := par.Shard(0, rand.New(rand.NewSource(sched.ChunkSeed(taskSeed, c.Index))))
			sh.Add(int(c.N))
			mu.Lock()
			par.MergeShard(0, sh)
			mu.Unlock()
		}(c)
	}
	wg.Wait()

	if par.Hits() != seq.Hits() || par.Trials() != seq.Trials() {
		t.Fatalf("concurrent (hits,trials)=(%d,%d), sequential (%d,%d)",
			par.Hits(), par.Trials(), seq.Hits(), seq.Trials())
	}
	exact := dnf.Confidence(f, tab)
	if got := par.Estimate(); math.Abs(got-exact) > 0.05*exact {
		t.Errorf("merged estimate %v too far from exact %v", got, exact)
	}
}

// TestMergeRejectsForeignEstimator: merging a shard of a different
// estimator is a programming error and must panic.
func TestMergeRejectsForeignEstimator(t *testing.T) {
	f1, tab1 := chainF(3, 0.5)
	f2, tab2 := chainF(5, 0.5)
	a := flatStratified(t, f1, tab1)
	b := flatStratified(t, f2, tab2)
	sh := b.Shard(0, rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Error("MergeShard across estimators did not panic")
		}
	}()
	a.MergeShard(0, sh)
}
