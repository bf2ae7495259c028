package karpluby

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/dnf"
	"repro/internal/sched"
	"repro/internal/vars"
)

// Clause-stratified Karp–Luby.
//
// The plain estimator draws a clause from all of F with probability p_f/M
// and needs m = 3|F|·ln(2/δ)/ε² trials regardless of how the success
// probability is distributed over clauses. Stratification partitions F
// into strata F = F₁ ⊎ … ⊎ F_K (by clause weight, deterministically given
// the canonical clause order) and runs one Karp–Luby estimator per
// stratum: stratum j draws a clause from F_j with probability p_f/M_j and
// still tests minimality against all of F, so its trials are unbiased for
// θ_j = p_j/M_j where p_j is the probability mass claimed by F_j under
// the smallest-index rule. Since the p_j partition p,
//
//	p = Σ_j M_j·θ_j,   p̂ = Σ_j M_j·θ̂_j
//
// is unbiased, and per-stratum (hits, trials) counts remain mergeable
// integer sums — any partition of a stratum's trials into shards or
// chunks yields bit-identical results. A one-stratum plan is the flat
// estimator: same clause draw, same minimality test, same PRNG stream.
//
// The payoff is adaptive: per-stratum empirical-Bernstein bounds
// (Maurer–Pontil) expose which strata still dominate the error, and
// Neyman allocation sends new trials where σ̂_j·M_j is largest. On skewed
// clause sets (few heavy clauses, many light ones) the loop converges
// with far fewer trials than the stratum-blind Chernoff budget.

// PlanStrata partitions the clauses of f into weight bands: stratum 0
// holds clauses with weight in (wmax/2, wmax], stratum 1 those in
// (wmax/4, wmax/2], and so on, with everything below wmax/2^(maxStrata−1)
// — including zero-weight clauses — clamped into the last band. Empty
// bands are dropped. The result is a partition of [0, len(f)): every
// clause index appears exactly once, indices within a stratum ascend, and
// heavier strata come first.
//
// The plan depends only on the clause weights and maxStrata — never on
// sampling state or worker count — so given the canonical clause order it
// is deterministic, and cached per-stratum snapshots remain valid across
// restarts and processes.
func PlanStrata(f dnf.F, table *vars.Table, maxStrata int) [][]int {
	n := len(f)
	if n == 0 {
		return nil
	}
	single := func() [][]int {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return [][]int{all}
	}
	if maxStrata <= 1 || n == 1 {
		return single()
	}
	w := make([]float64, n)
	wmax := 0.0
	for i, a := range f {
		w[i] = a.Weight(table)
		if w[i] > wmax {
			wmax = w[i]
		}
	}
	if wmax <= 0 {
		return single()
	}
	bands := make([][]int, maxStrata)
	for i := range f {
		b := 0
		bound := wmax / 2
		for b < maxStrata-1 && w[i] < bound {
			b++
			bound /= 2
		}
		bands[b] = append(bands[b], i)
	}
	out := make([][]int, 0, maxStrata)
	for _, b := range bands {
		if len(b) > 0 {
			out = append(out, b)
		}
	}
	return out
}

// stratum is one clause band of a Stratified estimator: its global clause
// indices, stratum-local cumulative weights, and mergeable counts.
type stratum struct {
	idx []int     // global clause indices, ascending
	cum []float64 // cumulative weights of f[idx[0..k]]
	m   float64   // M_j = Σ_{f∈F_j} p_f

	hits   int64
	trials int64
	// chunks is the stratum's round-aligned chunk-plan cursor: the counts
	// cover plan chunks [0, chunks) of the stratum's deterministic chunk
	// plan. The estimator never derives it — the scheduler advances it
	// once every chunk below the mark has merged, so a snapshot can be
	// extended with only the delta chunks of a larger budget.
	chunks int
}

// Stratified is a clause-stratified Karp–Luby estimator for a single
// clause set F. Like Estimator it is not safe for concurrent use; for
// parallel sampling derive per-goroutine StratumShards with Shard and
// fold their counts back with MergeShard.
type Stratified struct {
	f      dnf.F
	table  *vars.Table
	vars   []vars.Var // content-canonical order (sorted by name), as in Estimator
	m      float64    // M = Σ_j M_j
	strata []stratum
}

// NewStratified builds a stratified estimator for clause set f under the
// given partition plan (normally PlanStrata's output). f must already be
// deduplicated — the plan indexes into it, so NewStratified must not
// reorder or drop clauses. The plan must cover every clause index exactly
// once with no empty stratum. ErrEmpty is returned when f is empty or has
// zero total weight.
func NewStratified(f dnf.F, table *vars.Table, plan [][]int) (*Stratified, error) {
	if len(f) == 0 {
		return nil, ErrEmpty
	}
	seen := make([]bool, len(f))
	covered := 0
	for _, str := range plan {
		if len(str) == 0 {
			return nil, errors.New("karpluby: stratification plan has an empty stratum")
		}
		for _, i := range str {
			if i < 0 || i >= len(f) || seen[i] {
				return nil, fmt.Errorf("karpluby: stratification plan is not a partition of %d clauses", len(f))
			}
			seen[i] = true
			covered++
		}
	}
	if covered != len(f) {
		return nil, fmt.Errorf("karpluby: stratification plan covers %d of %d clauses", covered, len(f))
	}
	s := &Stratified{
		f:     f,
		table: table,
		vars:  f.Vars(),
	}
	// Content-canonical variable order: world extension consumes the PRNG
	// in this order, so trial streams depend only on clause-set content —
	// the same invariant Estimator maintains (see its vars field).
	sort.Slice(s.vars, func(i, j int) bool {
		return table.Info(s.vars[i]).Name < table.Info(s.vars[j]).Name
	})
	s.strata = make([]stratum, len(plan))
	for j, str := range plan {
		st := &s.strata[j]
		st.idx = str
		st.cum = make([]float64, len(str))
		total := 0.0
		for k, gi := range str {
			total += f[gi].Weight(table)
			st.cum[k] = total
		}
		st.m = total
		s.m += total
	}
	if s.m <= 0 {
		return nil, ErrEmpty
	}
	return s, nil
}

// ClauseCount returns |F|.
func (s *Stratified) ClauseCount() int { return len(s.f) }

// StratumCount returns the number of strata K.
func (s *Stratified) StratumCount() int { return len(s.strata) }

// StratumClauses returns |F_j|.
func (s *Stratified) StratumClauses(j int) int { return len(s.strata[j].idx) }

// StratumM returns M_j, stratum j's total clause weight. A stratum with
// M_j = 0 contributes exactly 0 to the estimate and is never sampled
// ("inactive").
func (s *Stratified) StratumM(j int) float64 { return s.strata[j].m }

// M returns the total clause weight Σ p_f.
func (s *Stratified) M() float64 { return s.m }

// Trials returns the total trials across all strata.
func (s *Stratified) Trials() int64 {
	var t int64
	for j := range s.strata {
		t += s.strata[j].trials
	}
	return t
}

// Hits returns the total hits across all strata.
func (s *Stratified) Hits() int64 {
	var h int64
	for j := range s.strata {
		h += s.strata[j].hits
	}
	return h
}

// StratumTrials returns stratum j's trial count.
func (s *Stratified) StratumTrials(j int) int64 { return s.strata[j].trials }

// StratumHits returns stratum j's hit count.
func (s *Stratified) StratumHits(j int) int64 { return s.strata[j].hits }

// StratumChunks returns stratum j's chunk-plan cursor.
func (s *Stratified) StratumChunks(j int) int { return s.strata[j].chunks }

// AdvanceStratum raises stratum j's chunk cursor to chunk (no-op when the
// cursor is already past it). The scheduling layer calls it after every
// plan chunk below the mark has merged, making the stratum's
// StratumState resumable at that boundary.
func (s *Stratified) AdvanceStratum(j, chunk int) {
	if chunk > s.strata[j].chunks {
		s.strata[j].chunks = chunk
	}
}

// StratumState is a resumable snapshot of one stratum's counts. The
// clause set, the partition plan, and the PRNG streams are all derived
// deterministically elsewhere, so (Hits, Trials, Chunks) suffices — the
// counting part of State; a mid-chunk tail's PRNG stays with the
// scheduler that continues it.
type StratumState struct {
	Hits   int64
	Trials int64
	Chunks int
}

// StratumState snapshots stratum j.
func (s *Stratified) StratumState(j int) StratumState {
	st := &s.strata[j]
	return StratumState{Hits: st.hits, Trials: st.trials, Chunks: st.chunks}
}

// ResumeStratum loads a snapshot into stratum j, which must not have
// sampled yet. The snapshot must come from the same canonical clause set,
// the same partition plan, and the same seed scheme — the caller's
// contract, since a snapshot carries no clause identity.
func (s *Stratified) ResumeStratum(j int, st StratumState) error {
	if st.Hits < 0 || st.Trials < st.Hits || st.Chunks < 0 {
		return errors.New("karpluby: invalid stratum resume state")
	}
	sj := &s.strata[j]
	if sj.trials != 0 || sj.hits != 0 {
		return errors.New("karpluby: ResumeStratum on a stratum that already sampled")
	}
	sj.hits, sj.trials, sj.chunks = st.Hits, st.Trials, st.Chunks
	return nil
}

// StratumShard samples trials for one stratum of a Stratified estimator
// on its own PRNG and scratch space, so shards of one estimator may run
// on separate goroutines concurrently. Fold a finished shard's counts
// back with MergeShard.
type StratumShard struct {
	par *Stratified
	s   *stratum
	rng *rand.Rand

	hits   int64
	trials int64
	world  map[vars.Var]int32
}

// Shard returns a sampling shard for stratum j drawing from rng. The
// stratum must be active (M_j > 0).
func (s *Stratified) Shard(j int, rng *rand.Rand) *StratumShard {
	st := &s.strata[j]
	if st.m <= 0 {
		panic("karpluby: Shard on an inactive stratum")
	}
	return &StratumShard{
		par:   s,
		s:     st,
		rng:   rng,
		world: make(map[vars.Var]int32, len(s.vars)),
	}
}

// Hits returns the shard's hit count.
func (sh *StratumShard) Hits() int64 { return sh.hits }

// Trials returns the shard's trial count.
func (sh *StratumShard) Trials() int64 { return sh.trials }

// Add runs n more trials on the shard.
func (sh *StratumShard) Add(n int) {
	for i := 0; i < n; i++ {
		sh.hits += int64(trial(sh.par.f, sh.par.vars, sh.par.table, sh.s.cum, sh.s.idx, sh.rng, sh.world))
	}
	sh.trials += int64(n)
}

// MergeShard folds shard sh's counts into stratum j. Merging is exact and
// order-independent (integer sums), so any partition of a stratum's
// trials into shards yields bit-identical estimates.
func (s *Stratified) MergeShard(j int, sh *StratumShard) {
	if sh.s != &s.strata[j] {
		panic("karpluby: merging a shard into the wrong stratum")
	}
	s.strata[j].hits += sh.hits
	s.strata[j].trials += sh.trials
}

// AbsorbStratum folds raw remote trial counts into stratum j — the
// cross-process form of MergeShard: a shard rebuilt the same
// stratification plan from the same canonical clause set and bit-exact
// probabilities, sampled the assigned chunks of stratum j, and shipped
// back the integer sums, which combine exactly.
func (s *Stratified) AbsorbStratum(j int, hits, trials int64) {
	if hits < 0 || trials < 0 || hits > trials {
		panic("karpluby: absorbing invalid remote stratum counts")
	}
	s.strata[j].hits += hits
	s.strata[j].trials += trials
}

// Estimate returns p̂ = Σ_j M_j·θ̂_j. A stratum with no trials yet
// contributes its mass M_j as a safe upper bound (θ_j ≤ 1), mirroring the
// flat estimator's zero-trial convention; with no trials at all the
// estimate is min(M, 1).
func (s *Stratified) Estimate() float64 {
	if s.Trials() == 0 {
		return math.Min(s.m, 1)
	}
	p := 0.0
	for j := range s.strata {
		st := &s.strata[j]
		if st.m <= 0 {
			continue
		}
		if st.trials == 0 {
			p += st.m
			continue
		}
		p += st.m * float64(st.hits) / float64(st.trials)
	}
	return p
}

// activeStrata counts strata with positive mass.
func (s *Stratified) activeStrata() int {
	n := 0
	for j := range s.strata {
		if s.strata[j].m > 0 {
			n++
		}
	}
	return n
}

// AdditiveBound returns a width W such that Pr[|p̂−p| ≥ W] ≤ delta, from
// per-stratum empirical-Bernstein bounds (Maurer & Pontil, "Empirical
// Bernstein bounds and sample variance penalization"): with probability
// 1−δ_j,
//
//	|θ̂_j−θ_j| ≤ √(2·V̂_j·L_j/n_j) + 7·L_j/(3(n_j−1)),  L_j = ln(4/δ_j),
//
// where V̂_j is the sample variance of the stratum's Bernoulli trials.
// The failure probability delta is split evenly over the active strata
// (δ_j = delta/K) and the widths combine as W = Σ_j M_j·w_j. A stratum
// with fewer than two trials contributes the vacuous width M_j·1.
//
// Unlike the Chernoff budget TrialsFor, this bound adapts to the observed
// variance: a stratum whose trials are nearly deterministic (θ̂_j near 0
// or 1) tightens much faster than 1/√n, which is what lets skewed clause
// sets converge early.
func (s *Stratified) AdditiveBound(delta float64) float64 {
	if delta <= 0 {
		return math.Inf(1)
	}
	k := s.activeStrata()
	if k == 0 {
		return 0
	}
	dj := delta / float64(k)
	l := math.Log(4 / dj)
	w := 0.0
	for j := range s.strata {
		st := &s.strata[j]
		if st.m <= 0 {
			continue
		}
		wj := 1.0
		if st.trials >= 2 {
			n := float64(st.trials)
			h := float64(st.hits)
			// Unbiased sample variance of 0/1 trials: h(n−h)/(n(n−1)).
			v := h * (n - h) / (n * (n - 1))
			wj = math.Sqrt(2*v*l/n) + 7*l/(3*(n-1))
			if wj > 1 {
				wj = 1
			}
		}
		w += st.m * wj
	}
	return w
}

// Delta returns the smallest failure probability δ for which the current
// counts certify the relative guarantee Pr[|p̂−p| ≥ ε·p] ≤ δ: it inverts
// AdditiveBound by binary search, using the sound sufficient condition
//
//	W(δ)·(1+ε) ≤ ε·p̂   ⟹   W(δ) ≤ ε·(p̂−W(δ)) ≤ ε·p  (w.p. 1−δ),
//
// since |p̂−p| ≤ W implies p ≥ p̂−W. With no trials (or p̂ = 0) it
// returns 1, like the flat estimator before its first round.
func (s *Stratified) Delta(eps float64) float64 {
	if s.Trials() == 0 {
		return 1
	}
	p := s.Estimate()
	if p <= 0 || eps <= 0 {
		return 1
	}
	ok := func(delta float64) bool {
		return s.AdditiveBound(delta)*(1+eps) <= eps*p
	}
	if !ok(1) {
		return 1
	}
	lo, hi := math.Log(1e-18), 0.0 // log-δ bracket: [1e-18, 1]
	for i := 0; i < 64; i++ {
		mid := (lo + hi) / 2
		if ok(math.Exp(mid)) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Exp(hi)
}

// Bounds returns a confidence interval [lo, hi] for p at failure
// probability delta: p̂ ± AdditiveBound(delta), clamped to [0, min(M, 1)].
// It is the hook threshold/top-k early stopping decides on.
func (s *Stratified) Bounds(delta float64) (lo, hi float64) {
	cap := math.Min(s.m, 1)
	if s.Trials() == 0 {
		return 0, cap
	}
	p := s.Estimate()
	w := s.AdditiveBound(delta)
	lo = p - w
	if lo < 0 {
		lo = 0
	}
	hi = p + w
	if hi > cap {
		hi = cap
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// neymanWeights returns the allocation weight u_j = M_j·σ̃_j per stratum,
// with σ̃_j derived from the Laplace-smoothed hit rate
// θ̃_j = (hits+1)/(trials+2). The smoothing keeps every active stratum's
// weight strictly positive, so a stratum that has only seen misses (or
// only hits) so far is never starved forever on an early zero-variance
// reading.
func (s *Stratified) neymanWeights() []float64 {
	u := make([]float64, len(s.strata))
	for j := range s.strata {
		st := &s.strata[j]
		if st.m <= 0 {
			continue
		}
		th := (float64(st.hits) + 1) / (float64(st.trials) + 2)
		u[j] = st.m * math.Sqrt(th*(1-th))
	}
	return u
}

// NextWave returns the per-stratum chunk counts of the next sampling wave
// of the adaptive loop, or nil when the cap is exhausted. It is a pure
// function of the merged counts, the chunk sizes, and the cap — never of
// worker count or scheduling order — which is what makes the adaptive
// trajectory deterministic and resumable.
//
// The first wave gives every active stratum one chunk (bounds are vacuous
// until each stratum has data). Every later wave doubles the work so far
// (budget = min(spent, cap−spent)) and splits it across strata in
// proportion to the Neyman weights M_j·σ̃_j, rounded down to whole
// chunks; when rounding leaves nothing, the highest-weight stratum gets
// one chunk so progress is always made.
func (s *Stratified) NextWave(chunkSize []int64, cap int64) []int {
	spent := s.Trials()
	if cap > 0 && spent >= cap {
		return nil
	}
	out := make([]int, len(s.strata))
	fresh := false
	for j := range s.strata {
		if s.strata[j].m > 0 && s.strata[j].trials == 0 {
			out[j] = 1
			fresh = true
		}
	}
	if fresh {
		return out
	}
	budget := spent
	if cap > 0 && cap-spent < budget {
		budget = cap - spent
	}
	u := s.neymanWeights()
	total := 0.0
	for _, w := range u {
		total += w
	}
	if total <= 0 {
		return nil
	}
	allocated := 0
	for j, w := range u {
		if w <= 0 || chunkSize[j] <= 0 {
			continue
		}
		c := int(float64(budget) * w / total / float64(chunkSize[j]))
		out[j] = c
		allocated += c
	}
	if allocated == 0 {
		best, bw := -1, 0.0
		for j, w := range u {
			if w > bw {
				best, bw = j, w
			}
		}
		if best < 0 {
			return nil
		}
		out[best] = 1
	}
	return out
}

// Allocate splits need trials across the active strata in proportion to
// the Neyman weights, by largest remainder (ties to the lower stratum
// index), so the returned counts sum to exactly need. Like NextWave it is
// a pure function of the merged counts, hence deterministic. It is the
// fixed-budget allocation used inside the σ̂ doubling loop, where the
// pass's budget is set by the round count rather than by convergence.
func (s *Stratified) Allocate(need int64) []int64 {
	out := make([]int64, len(s.strata))
	if need <= 0 {
		return out
	}
	u := s.neymanWeights()
	total := 0.0
	for _, w := range u {
		total += w
	}
	if total <= 0 {
		return out
	}
	type frac struct {
		j int
		f float64
	}
	var rem []frac
	var given int64
	for j, w := range u {
		if w <= 0 {
			continue
		}
		raw := float64(need) * w / total
		fl := math.Floor(raw)
		out[j] = int64(fl)
		given += int64(fl)
		rem = append(rem, frac{j: j, f: raw - fl})
	}
	sort.SliceStable(rem, func(a, b int) bool { return rem[a].f > rem[b].f })
	for i := 0; given < need && len(rem) > 0; i = (i + 1) % len(rem) {
		out[rem[i].j]++
		given++
	}
	return out
}

// StratumSeed derives the per-stratum task seed the stratum's chunk
// streams hang off (sched.ChunkSeed(StratumSeed(task, j), chunkIndex)).
// Stratum 0 keeps the task seed unchanged so a one-stratum plan samples
// the flat estimator's chunk streams (TestSingleStratumBitParity); higher
// strata get decorrelated seeds.
func StratumSeed(taskSeed int64, j int) int64 {
	if j == 0 {
		return taskSeed
	}
	return sched.TaskSeedWords(taskSeed, 0x9e3779b97f4a7c15*uint64(j+1), 0xc2b2ae3d27d4eb4f)
}

// DefaultChunk is the scheduler's chunk sizing for a (stratum) clause set
// of k clauses: a whole number of Figure-3 rounds (k trials each)
// totalling at least 4096 trials. Round-aligned chunks keep the paper's
// per-round error bookkeeping intact, and the size depends only on k —
// never on the worker count — so the chunk plan, and therefore every
// chunk's PRNG stream, is the same for any number of workers. The
// engine, the sequential reference loop and the benchmarks all plan with
// it.
func DefaultChunk(clauses int) int64 {
	const minChunkTrials = 4096
	rounds := (minChunkTrials + clauses - 1) / clauses
	return int64(rounds) * int64(clauses)
}

// AdaptiveOptions parameterizes EstimateAdaptive.
type AdaptiveOptions struct {
	// MaxStrata bounds the number of weight bands (PlanStrata); values
	// ≤ 1 select a single stratum.
	MaxStrata int
	// Eps, Delta are the target relative (ε,δ) guarantee.
	Eps, Delta float64
	// Seed is the task-level seed; per-stratum chunk streams derive from
	// it via StratumSeed and sched.ChunkSeed.
	Seed int64
	// ChunkFor overrides the chunk sizing (nil selects DefaultChunk).
	ChunkFor func(clauses int) int64
	// Cap bounds total trials; 0 selects TrialsFor(Eps, Delta, |F|) — the
	// stratum-blind Chernoff budget, so adaptive estimation never costs
	// more than the flat FPRAS (modulo one chunk of rounding).
	Cap int64
}

// AdaptiveResult reports an EstimateAdaptive run.
type AdaptiveResult struct {
	P       float64 // the estimate p̂
	Sampled int64   // trials actually drawn
	Budget  int64   // the stratum-blind cap the loop ran under
	Waves   int     // sampling waves executed
	Strata  int     // strata in the plan
}

// EstimateAdaptive runs the full stratified adaptive loop sequentially:
// plan strata, then alternate convergence checks (Delta(eps) ≤ delta)
// with NextWave sampling until the bound holds or the cap is spent. It is
// the single-threaded reference implementation of the loop the core
// engine runs across its worker pool — same plan, same chunk streams,
// same wave schedule — used by benchmarks and parity tests.
func EstimateAdaptive(f dnf.F, table *vars.Table, o AdaptiveOptions) (AdaptiveResult, error) {
	f = f.Dedup()
	if len(f) == 0 {
		return AdaptiveResult{}, nil
	}
	if len(f[0]) == 0 {
		return AdaptiveResult{P: 1}, nil
	}
	plan := PlanStrata(f, table, o.MaxStrata)
	s, err := NewStratified(f, table, plan)
	if err != nil {
		return AdaptiveResult{}, err
	}
	chunkFor := o.ChunkFor
	if chunkFor == nil {
		chunkFor = DefaultChunk
	}
	sizes := make([]int64, s.StratumCount())
	for j := range sizes {
		sizes[j] = chunkFor(s.StratumClauses(j))
	}
	cap := o.Cap
	if cap <= 0 {
		cap = TrialsFor(o.Eps, o.Delta, len(f))
	}
	res := AdaptiveResult{Budget: cap, Strata: s.StratumCount()}
	for {
		if s.Delta(o.Eps) <= o.Delta {
			break
		}
		wave := s.NextWave(sizes, cap)
		if wave == nil {
			break
		}
		for j, c := range wave {
			if c == 0 {
				continue
			}
			seed := StratumSeed(o.Seed, j)
			start := s.StratumChunks(j)
			for i := 0; i < c; i++ {
				rng := rand.New(rand.NewSource(sched.ChunkSeed(seed, start+i)))
				sh := s.Shard(j, rng)
				sh.Add(int(sizes[j]))
				s.MergeShard(j, sh)
			}
			s.AdvanceStratum(j, start+c)
		}
		res.Waves++
	}
	res.P = s.Estimate()
	res.Sampled = s.Trials()
	return res, nil
}
