package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"

	"repro/internal/dnf"
	"repro/internal/karpluby"
	"repro/internal/rel"
	"repro/internal/sched"
)

// Estimation driver: every conf and σ̂ confidence runs as a job of the
// stratified Karp–Luby scheduler. The clause set is canonicalized,
// partitioned into weight strata (karpluby.PlanStrata, a deterministic
// function of the canonical clause set and the band bound), and estimated
// by sampling waves:
//
//	sweep:  on merged counts only — settle jobs whose threshold/top-k
//	        decision, (ε,δ) bound, or trial budget is reached;
//	wave:   allocate the next batch of chunks across the strata of every
//	        unsettled job, flatten all (job, stratum, chunk) triples into
//	        one pool batch (or one remote scatter), sample, merge.
//
// A job's band bound selects its kind; both kinds share this one path.
//
//   - Flat jobs (band bound 0: conf without Strata/threshold/top-k, σ̂
//     without Strata) are the paper's FPRAS. No factoring pre-pass, one
//     stratum (whose seed is the task seed, so its chunk streams are the
//     flat Figure-3 streams), the Chernoff bound karpluby.DeltaBound for
//     δᵢ(ε), and the raw, unclamped estimate. They sample a fixed budget
//     in one wave. Their cache entry sits under the content key itself and
//     covers the whole budget: exact replay returns it, and a larger
//     budget continues its trailing partial chunk mid-stream from the
//     saved PRNG (see Cache).
//   - Stratified jobs (band bound > 0) first run the dnf.Factor pre-pass:
//     independent easy subformulas are computed exactly and only the hard
//     residue is sampled, folded back in as p = E + (1−E)·p_R (the
//     relative (ε,δ) guarantee on p_R carries to p — see factor.go).
//     Conf jobs sample adaptively (karpluby.NextWave) until the
//     empirical-Bernstein Delta(ε) ≤ δ; σ̂ jobs spend a fixed budget in
//     Neyman-allocated doubling waves. Each stratum's cache entry sits
//     under stratKey and holds chunk-aligned counts only: a pass's
//     trailing partial chunk is dropped from the snapshot, costing at most
//     one chunk of re-sampling per stratum per restart.
//
// Determinism: every chunk's PRNG stream is fixed by (engine seed,
// content key, stratum index, chunk plan index); allocation and stopping
// decisions are pure functions of the merged integer counts and happen
// only at wave boundaries, after all of a wave's chunks merged. Results
// are therefore bit-identical for any worker or shard count, and a run
// resumed from cached snapshots continues exactly the trajectory the
// interrupted run would have taken.

// stratKey derives the cache key of one stratum of a stratified task. It
// mixes the residue's content key with the band bound and the stratum
// index: the stratification plan is a deterministic function of
// (canonical residue, maxStrata), so this triple uniquely identifies the
// stratum's clause subset — two plans with different band bounds can
// never alias each other's entries.
func stratKey(key contentKey, maxStrata, j int) contentKey {
	salt := rel.Mix64(uint64(maxStrata)*0x9e3779b97f4a7c15 + uint64(j) + 1)
	return contentKey{
		hi: rel.HashCombine(key.hi, salt),
		lo: rel.HashCombine(key.lo, rel.Mix64(salt)),
	}
}

// stratJob is one pending estimation: a stratified merge target, its
// per-stratum scheduling state, and the job's trial budget. The
// confValues of every tuple sharing this job's clause set (same canonical
// clause set, possibly different exact-factored parts) are attached for
// threshold/top-k decisions.
type stratJob struct {
	est       *karpluby.Stratified
	key       contentKey
	f         dnf.F // canonical clause set, shipped to shards in remote mode
	maxStrata int   // band bound; 0 marks a flat job
	strata    []jobStratum
	sizes     []int64 // per-stratum chunk sizes (karpluby.DefaultChunk of |F_j|)

	budget      int64 // trial cap (adaptive) or pass target (fixed)
	startTrials int64 // trials resumed from cache across strata
	cvs         []*confValue

	mu sync.Mutex // guards the strata's partial fields during a wave
}

// jobStratum is one stratum's scheduling state within a stratJob.
type jobStratum struct {
	seed int64      // chunk streams derive from it (karpluby.StratumSeed)
	key  contentKey // cache key

	// Wave bookkeeping, rewritten at each wave boundary by the
	// coordinator (never touched by pool workers): the stratum's chunk
	// cursor when the wave started and the wave's full-size chunks.
	waveStart int
	waveFull  int

	// tail* continue a cached budget's trailing partial chunk (flat jobs,
	// local runs only): the counts already drawn from chunk tailChunk's
	// stream — included in the resumed totals — and the PRNG positioned
	// right after them.
	tailChunk  int
	tailHits   int64
	tailTrials int64
	tailRNG    *rand.Rand

	// partial* record the counts of the stratum's undersized trailing
	// chunks; they are merged into est's totals but kept apart when the
	// snapshot is published. partialRNG is the PRNG that sampled the last
	// one, positioned after its last trial — a flat job's cache entry
	// carries it for mid-chunk continuation.
	partialHits   int64
	partialTrials int64
	partialRNG    *rand.Rand
}

// flat reports whether the job is a flat Karp–Luby job (see the driver
// comment above for what that selects).
func (j *stratJob) flat() bool { return j.maxStrata == 0 }

// newStratJob classifies one clause set as an exact confidence value
// (empty, tautological, fully factored, zero-weight, or — when
// shortcutSingleton — single-clause) or an estimation job with the trial
// budget trials(|F|) under band bound maxStrata (0: flat). The clause set
// (after factoring, for stratified jobs) is canonicalized first (content
// order — see content.go) and the job's seed is derived from Options.Seed
// and the content fingerprint, so equal seeds give bit-identical
// estimates for any worker count, and content-equal tasks sample
// identical streams wherever they appear. When the run has an estimator
// cache (Options resume, the default), the job resumes from the snapshots
// left under the same keys — by an earlier restart, an earlier Eval call
// on a shared engine cache, or a different query over the same lineage.
//
// Within one batch (one conf or σ̂ operator), content-equal clause sets
// share a single job: later sightings return a confValue bound to the
// first job (each keeping its own exact-factored part), so duplicated
// lineage is estimated once.
func (run *evalRun) newStratJob(f dnf.F, trials func(clauses int) int64, shortcutSingleton bool, maxStrata int) (*confValue, *stratJob, error) {
	f = f.Dedup()
	switch {
	case len(f) == 0:
		return &confValue{value: 0}, nil, nil
	case len(f[0]) == 0:
		return &confValue{value: 1}, nil, nil
	}
	exact := 0.0
	if maxStrata > 0 {
		fac := dnf.Factor(f, run.vars, dnf.DefaultFactorLimits)
		run.exactFactored += int64(fac.ExactComponents)
		f, exact = fac.Residue, fac.Exact
		if len(f) == 0 {
			return &confValue{value: exact}, nil, nil
		}
	}
	if len(f) == 1 && shortcutSingleton {
		return &confValue{value: exact + (1-exact)*f[0].Weight(run.vars)}, nil, nil
	}
	if run.fper == nil {
		run.fper = newFingerprinter(run.vars)
	}
	f, key := run.fper.canonicalF(f)
	if shared, ok := run.batch[key]; ok {
		cv := &confValue{job: shared, value: exact}
		shared.cvs = append(shared.cvs, cv)
		return cv, nil, nil
	}
	est, err := karpluby.NewStratified(f, run.vars, karpluby.PlanStrata(f, run.vars, maxStrata))
	if err != nil {
		if errors.Is(err, karpluby.ErrEmpty) {
			// Zero-weight clause set: its confidence is exactly 0.
			return &confValue{value: exact}, nil, nil
		}
		return nil, nil, err
	}
	k := est.StratumCount()
	job := &stratJob{
		est:       est,
		key:       key,
		f:         f,
		maxStrata: maxStrata,
		strata:    make([]jobStratum, k),
		sizes:     make([]int64, k),
		budget:    trials(est.ClauseCount()),
	}
	taskSeed := sched.TaskSeedWords(run.engine.opts.Seed, key.hi, key.lo)
	for s := range job.strata {
		js := &job.strata[s]
		js.seed = karpluby.StratumSeed(taskSeed, s)
		job.sizes[s] = karpluby.DefaultChunk(est.StratumClauses(s))
		js.key = key
		if !job.flat() {
			js.key = stratKey(key, maxStrata, s)
		}
	}
	if !job.flat() {
		run.strata += int64(k)
	}
	if run.cache != nil {
		// Flat entries are looked up at the job's budget (exact replay or
		// prefix resume); stratified ones resume whatever chunk-aligned
		// prefix is cached.
		total := int64(math.MaxInt64)
		if job.flat() {
			total = job.budget
		}
		resumed := false
		for s := range job.strata {
			js := &job.strata[s]
			if est.StratumM(s) <= 0 {
				continue
			}
			st, ok := run.cache.lookup(js.key, est.StratumClauses(s), job.sizes[s], total, run.engine.opts.Seed)
			if !ok {
				continue
			}
			if st.PartialRNG != nil && run.engine.dist != nil {
				// Remote mode cannot continue a mid-chunk PRNG tail across
				// the wire: drop the tail and let the shard re-sample that
				// chunk in full from its seed — still bit-identical, at
				// one chunk of extra sampling.
				st.Hits -= st.PartialHits
				st.Trials -= st.PartialTrials
				st.PartialHits, st.PartialTrials, st.PartialRNG = 0, 0, nil
			}
			ss := karpluby.StratumState{Hits: st.Hits, Trials: st.Trials, Chunks: st.Chunks}
			if err := est.ResumeStratum(s, ss); err != nil || st.Trials <= 0 {
				continue
			}
			job.startTrials += st.Trials
			resumed = true
			if st.PartialRNG != nil {
				js.tailChunk = st.Chunks
				js.tailHits, js.tailTrials, js.tailRNG = st.PartialHits, st.PartialTrials, st.PartialRNG
			}
		}
		if resumed {
			run.cacheHits++
		}
	}
	cv := &confValue{job: job, value: exact}
	job.cvs = append(job.cvs, cv)
	if run.batch != nil {
		run.batch[key] = job
	}
	return cv, job, nil
}

// stratTarget parameterizes one estimation batch.
type stratTarget struct {
	// adaptive selects the convergence-driven loop (stratified conf
	// operators): sample waves until the empirical Delta(eps) ≤ delta or
	// the budget cap is spent. With adaptive false (flat conf, σ̂
	// passes), exactly the remaining budget is spent.
	adaptive   bool
	eps, delta float64
	// decided, when non-nil, is the threshold/top-k early-stopping hook,
	// called on merged counts at wave boundaries only (so its verdicts
	// are deterministic for any worker count).
	decided func(*stratJob) bool
}

// stratTask is one (job, stratum, chunk) sampling unit of a wave.
type stratTask struct {
	j     *stratJob
	s     int
	chunk int
	n     int64
}

// runStratEstimates drives every job to its stopping condition with
// sampling waves across the engine's worker pool (or its distributor),
// then publishes each job's per-stratum snapshots to the run's cache.
//
// Cancelling the run's context aborts the batch between chunks and
// returns ctx.Err(); a tripped sampled-trials limit aborts it with a
// *LimitError before the over-budget chunk samples. An aborted batch
// publishes nothing, so the cache only ever holds complete, valid
// snapshots.
func (run *evalRun) runStratEstimates(jobs []*stratJob, tgt stratTarget) error {
	defer func() { run.batch = nil }()
	pending := make([]*stratJob, 0, len(jobs))
	for _, j := range jobs {
		if j != nil {
			pending = append(pending, j)
		}
	}
	ctx := run.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	for len(pending) > 0 {
		// Sweep: settle jobs on merged, deterministic state.
		var still []*stratJob
		for _, j := range pending {
			spent := j.est.Trials()
			switch {
			case tgt.decided != nil && tgt.decided(j):
			case tgt.adaptive && j.est.Delta(tgt.eps) <= tgt.delta:
			case spent >= j.budget:
			default:
				still = append(still, j)
				continue
			}
			if spent < j.budget {
				run.earlyStops++
			}
		}
		pending = still
		if len(pending) == 0 {
			break
		}
		// Allocate the next wave for every unsettled job.
		var tasks []stratTask
		for _, j := range pending {
			for s := range j.strata {
				js := &j.strata[s]
				js.waveStart, js.waveFull = j.est.StratumChunks(s), 0
			}
			tasks = j.appendWave(tasks, tgt.adaptive)
		}
		if len(tasks) == 0 {
			// Caps exhausted below chunk granularity: stop cleanly.
			break
		}
		// Run the wave. Every task's stream is fixed by (stratum seed,
		// plan index); merges are commutative integer sums.
		var err error
		if run.engine.dist != nil {
			err = run.remoteStratWave(ctx, tasks)
		} else {
			err = run.engine.pool.ForEachCtx(ctx, len(tasks), func(i int) error {
				return run.sampleTask(tasks[i])
			})
		}
		if err != nil {
			return err
		}
		// Advance cursors past the wave's full chunks: the wave barrier
		// guarantees every chunk below the new cursor has merged.
		for _, j := range pending {
			for s := range j.strata {
				if js := &j.strata[s]; js.waveFull > 0 {
					j.est.AdvanceStratum(s, js.waveStart+js.waveFull)
				}
			}
		}
	}
	for _, j := range jobs {
		if j == nil {
			continue
		}
		run.trials += j.est.Trials() - j.startTrials
		run.reused += j.startTrials
		if run.cache != nil {
			run.publish(j)
		}
	}
	return nil
}

// appendWave appends the job's next wave of chunk tasks to tasks and
// records each stratum's full-chunk count in waveFull.
func (j *stratJob) appendWave(tasks []stratTask, adaptive bool) []stratTask {
	if adaptive {
		for s, c := range j.est.NextWave(j.sizes, j.budget) {
			j.strata[s].waveFull = c
			for i := 0; i < c; i++ {
				tasks = append(tasks, stratTask{j: j, s: s, chunk: j.strata[s].waveStart + i, n: j.sizes[s]})
			}
		}
		return tasks
	}
	// Fixed-budget passes with several strata are variance-aware:
	// instead of Neyman-splitting the whole remainder on the (possibly
	// uniform-prior) θ̂ estimates in one shot, they spend it in doubling
	// waves — each intermediate wave doubles the cumulative spend and
	// re-allocates on the counts merged so far, so the split sharpens as
	// variance estimates tighten. Intermediate waves emit whole chunks
	// only (a partial chunk does not advance the stratum cursor, so
	// re-allocating at its index would re-sample a prefix of its stream);
	// the final wave spends exactly the remainder and may end on one
	// partial chunk per stratum. (A probe wave that cannot be tiled by
	// whole chunks falls back to one chunk, which can overshoot the pass
	// target by at most one chunk — the sweep then settles the job.) A
	// single stratum has nothing to re-allocate, so it spends its whole
	// remainder in one wave. All decisions read merged counts at wave
	// boundaries, so the trajectory — and the exact pass total — is
	// bit-identical for any worker count.
	spent := j.est.Trials()
	remaining := j.budget - spent
	wave := max(spent, j.minActiveChunk())
	if wave >= remaining || len(j.strata) == 1 {
		for s, a := range j.est.Allocate(remaining) {
			if a <= 0 {
				continue
			}
			// Tile the stratum's new total by its chunk plan from the
			// cursor; the first chunk may continue a cached tail.
			js := &j.strata[s]
			for _, c := range sched.ChunksFrom(j.est.StratumTrials(s)+a, j.sizes[s], js.waveStart) {
				if c.N == j.sizes[s] {
					js.waveFull++
				}
				tasks = append(tasks, stratTask{j: j, s: s, chunk: c.Index, n: c.N})
			}
		}
		return tasks
	}
	alloc := j.est.Allocate(wave)
	added := 0
	for s, a := range alloc {
		full := int(a / j.sizes[s])
		if full <= 0 {
			continue
		}
		j.strata[s].waveFull = full
		added += full
		for i := 0; i < full; i++ {
			tasks = append(tasks, stratTask{j: j, s: s, chunk: j.strata[s].waveStart + i, n: j.sizes[s]})
		}
	}
	if added == 0 {
		// Every share rounded below one chunk: probe the stratum with the
		// largest share (ties to the lowest index) so the wave always
		// makes progress.
		best, bestA := -1, int64(-1)
		for s, a := range alloc {
			if a > bestA {
				best, bestA = s, a
			}
		}
		j.strata[best].waveFull = 1
		tasks = append(tasks, stratTask{j: j, s: best, chunk: j.strata[best].waveStart, n: j.sizes[best]})
	}
	return tasks
}

// sampleTask samples one chunk on the local pool and merges it. A chunk
// that continues a cached tail draws only its remaining trials from the
// saved PRNG: the drawn sequence is bit-identical to sampling the whole
// chunk from its seed, at tailTrials fewer sampled trials (those counts
// arrived with the resumed snapshot).
func (run *evalRun) sampleTask(t stratTask) error {
	js := &t.j.strata[t.s]
	continued := js.tailRNG != nil && t.chunk == js.tailChunk
	draw, rng := t.n, js.tailRNG
	if continued {
		draw -= js.tailTrials
	} else {
		rng = rand.New(rand.NewSource(sched.ChunkSeed(js.seed, t.chunk)))
	}
	if err := run.chargeTrials(draw); err != nil {
		return err
	}
	sh := t.j.est.Shard(t.s, rng)
	sh.Add(int(draw))
	hits := sh.Hits()
	if continued {
		hits += js.tailHits
	}
	t.j.mu.Lock()
	t.j.est.MergeShard(t.s, sh)
	if t.n < t.j.sizes[t.s] {
		js.partialHits += hits
		js.partialTrials += t.n
		js.partialRNG = rng
	}
	t.j.mu.Unlock()
	return nil
}

// publish stores a finished job's per-stratum snapshots in the run's
// cache. A flat job's entry covers its whole budget with the trailing
// partial chunk and its PRNG, for exact replay and mid-chunk
// continuation; a stratified job's entries drop the partial chunk and
// hold chunk-aligned counts only.
func (run *evalRun) publish(j *stratJob) {
	for s := range j.strata {
		js := &j.strata[s]
		if j.est.StratumM(s) <= 0 {
			continue
		}
		total, hits := j.est.StratumTrials(s), j.est.StratumHits(s)
		if j.flat() {
			run.cache.store(js.key, j.est.StratumClauses(s), j.sizes[s], total, hits,
				js.partialHits, js.partialTrials, js.partialRNG, run.engine.opts.Seed)
			continue
		}
		total -= js.partialTrials
		hits -= js.partialHits
		if total > 0 {
			run.cache.store(js.key, j.est.StratumClauses(s), j.sizes[s],
				total, hits, 0, 0, nil, run.engine.opts.Seed)
		}
	}
}

// minActiveChunk returns the smallest chunk size among strata with
// positive mass — the floor of an intermediate σ̂ wave, so the doubling
// schedule always starts with at least one whole chunk of probing.
func (j *stratJob) minActiveChunk() int64 {
	min := int64(0)
	for s, size := range j.sizes {
		if j.est.StratumM(s) <= 0 {
			continue
		}
		if min == 0 || size < min {
			min = size
		}
	}
	return min
}

// confDecider builds the wave-boundary early-stopping hook for threshold
// and top-k conf queries. A job settles when every tuple sharing its
// residue is decided under every enabled criterion:
//
//   - threshold τ: the tuple's confidence interval at level delta lies
//     entirely above or entirely below τ;
//   - top-k: interval separation against the other tuples of the same
//     operator — the tuple is definitely in the top k (at most k−1 other
//     intervals reach above its lower bound) or definitely out (at least
//     k other lower bounds lie at or above its upper bound).
//
// The hook reads only merged counts and is called only at wave
// boundaries, so its verdicts are deterministic for any worker count.
func confDecider(all []*confValue, tau float64, topk int, delta float64) func(*stratJob) bool {
	decidedCV := func(cv *confValue) bool {
		lo, hi := cv.bounds(delta)
		if tau > 0 && !(lo > tau || hi < tau) {
			return false
		}
		if topk > 0 {
			above, reach := 0, 0
			for _, o := range all {
				if o == cv {
					continue
				}
				olo, ohi := o.bounds(delta)
				if ohi > lo {
					reach++ // could still outrank cv
				}
				if olo >= hi {
					above++ // definitely outranks cv
				}
			}
			in := reach <= topk-1
			out := above >= topk
			if !in && !out {
				return false
			}
		}
		return true
	}
	return func(j *stratJob) bool {
		if len(j.cvs) == 0 {
			return false
		}
		for _, cv := range j.cvs {
			if !decidedCV(cv) {
				return false
			}
		}
		return true
	}
}
