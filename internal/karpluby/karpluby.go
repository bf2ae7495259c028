// Package karpluby implements the Karp–Luby Monte Carlo algorithm in the
// version for approximating tuple confidence given in Section 4 of the
// paper (Definition 4.1), together with the Chernoff-bound bookkeeping
// that turns it into an (ε,δ) FPRAS (Proposition 4.2).
//
// The estimator draws a clause f ∈ F with probability p_f/M (where
// M = Σ p_f), extends it to a total assignment f* over the variables of F,
// and returns 1 iff f is the smallest-index clause consistent with f*. The
// estimator is unbiased for p/M, so p̂ = X·M/m after m trials.
//
// The Estimator is incremental: Figure 3's adaptive algorithm adds batches
// of |F| trials per round and re-derives the current error bound
// δ(ε) = 2·exp(−m·ε²/(3·|F|)) after each round.
package karpluby

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"repro/internal/dnf"
	"repro/internal/vars"
)

// Estimator is an incremental Karp–Luby confidence estimator for a single
// clause set F. It is not safe for concurrent use; for parallel sampling,
// derive per-goroutine shards with Shard and sum their counts. (The
// engine samples through Stratified, whose one-stratum plan draws the
// identical streams.)
type Estimator struct {
	f     dnf.F
	table *vars.Table
	// vars holds the variables mentioned by F in content-canonical order
	// (sorted by registered name, not by id): world extension consumes the
	// PRNG in this order, so the trial stream — and hence the estimate —
	// depends only on the clause-set content and the table's
	// distributions, never on the order variables happened to be
	// registered in. This is what lets content-keyed caches share state
	// across databases built in different orders.
	vars   []vars.Var
	m      float64   // M = Σ p_f
	cum    []float64 // cumulative clause weights for sampling
	rng    *rand.Rand
	hits   int64 // Σ X_i
	trials int64 // m

	// scratch buffers reused across trials to avoid allocation
	world map[vars.Var]int32
}

// ErrEmpty is returned when the clause set has zero total weight (no
// clauses): the confidence is exactly 0 and needs no estimation.
var ErrEmpty = errors.New("karpluby: empty clause set")

// NewEstimator builds an estimator for clause set f. Duplicate clauses are
// removed first (they would bias M but not p). A clause set containing the
// empty assignment has confidence exactly 1; the estimator handles it by
// construction (single clause, always minimal).
//
// rng may be nil for an estimator used only to derive shards; calling
// Step, Add, or Confidence-style sampling on a nil-rng estimator panics.
func NewEstimator(f dnf.F, table *vars.Table, rng *rand.Rand) (*Estimator, error) {
	f = f.Dedup()
	if len(f) == 0 {
		return nil, ErrEmpty
	}
	e := &Estimator{
		f:     f,
		table: table,
		vars:  f.Vars(),
		rng:   rng,
		world: make(map[vars.Var]int32),
	}
	// Content-canonical variable order; see the field comment.
	sort.Slice(e.vars, func(i, j int) bool {
		return table.Info(e.vars[i]).Name < table.Info(e.vars[j]).Name
	})
	e.cum = make([]float64, len(f))
	total := 0.0
	for i, a := range f {
		total += a.Weight(table)
		e.cum[i] = total
	}
	e.m = total
	if total <= 0 {
		return nil, ErrEmpty
	}
	return e, nil
}

// ClauseCount returns |F| after deduplication.
func (e *Estimator) ClauseCount() int { return len(e.f) }

// M returns the total clause weight Σ p_f.
func (e *Estimator) M() float64 { return e.m }

// Trials returns the number of estimator invocations so far.
func (e *Estimator) Trials() int64 { return e.trials }

// Hits returns the number of successful trials Σ X_i so far.
func (e *Estimator) Hits() int64 { return e.hits }

// Shard returns a fresh estimator over the same clause set that samples
// from rng. The shard shares the parent's immutable clause data (clauses,
// cumulative weights, variable list) but has its own trial counters and
// scratch space, so shards of one estimator may run on separate goroutines
// concurrently. Because the estimate and its bound depend only on the
// integer sums of hits and trials, any partition of m trials into shards
// yields bit-identical results.
func (e *Estimator) Shard(rng *rand.Rand) *Estimator {
	return &Estimator{
		f:     e.f,
		table: e.table,
		vars:  e.vars,
		m:     e.m,
		cum:   e.cum,
		rng:   rng,
		world: make(map[vars.Var]int32, len(e.vars)),
	}
}

// State is a resumable snapshot of one clause set's trial counts, as the
// engine's estimator cache hands it out. The clause set, weights, and
// PRNG streams are all derived deterministically elsewhere (from the
// clause set and the scheduler's seed scheme), so (Hits, Trials, Chunks)
// suffices to continue an estimation exactly where a previous — possibly
// smaller — budget left off.
//
// Chunks is the scheduler's round-aligned chunk-plan cursor: the counts
// cover at least plan chunks [0, Chunks) of the deterministic chunk plan
// for the budget that produced the snapshot. Because chunk plans for
// nested budgets share their full-size prefix, a chunk-aligned snapshot
// (Trials == Chunks·chunkSize) can seed a run at any larger budget: only
// chunks ≥ Chunks need sampling, and the merged counts are bit-identical
// to a from-scratch run.
//
// A budget that is not chunk-aligned ends in a trailing partial chunk,
// which sampled a strict prefix of the chunk stream at plan index Chunks.
// The Partial fields snapshot that chunk mid-stream: its counts
// (PartialHits over PartialTrials, both already included in Hits/Trials)
// and the live PRNG positioned exactly after trial PartialTrials of the
// chunk's stream. A resumed run completes the chunk by drawing its
// remaining trials from PartialRNG — continuing the identical stream the
// from-scratch run would sample — instead of re-sampling the chunk, so
// restart-heavy plans replay trailing partial chunks rather than re-spend
// them. A snapshot with PartialRNG nil and Trials beyond the cursor's
// coverage remains valid only for exact replay at the producing budget.
type State struct {
	Hits   int64
	Trials int64
	Chunks int

	PartialHits   int64
	PartialTrials int64
	PartialRNG    *rand.Rand
}

// Valid reports whether the snapshot is internally consistent.
func (s State) Valid() bool {
	if s.Hits < 0 || s.Trials < s.Hits || s.Chunks < 0 {
		return false
	}
	if s.PartialTrials < 0 || s.PartialHits < 0 || s.PartialHits > s.PartialTrials {
		return false
	}
	if s.PartialTrials > 0 && s.PartialRNG == nil {
		return false
	}
	return true
}

// trial runs one Karp–Luby trial (Definition 4.1) and returns 0 or 1: it
// draws a clause with probability proportional to its weight from the
// candidates whose cumulative weights are cum, extends the clause to a
// total assignment over vs (the content-canonical variables of f) in
// world, and returns 1 iff the drawn clause is the smallest-index clause
// of all of f consistent with that assignment. idx maps a candidate's
// position to its index in f — a stratum's clause subset — and nil means
// the candidates are f itself. The draw order is fixed: one Float64 for
// the clause, then one per unbound variable in vs order, so a
// single-stratum plan consumes the flat estimator's exact PRNG stream.
func trial(f dnf.F, vs []vars.Var, table *vars.Table, cum []float64, idx []int, rng *rand.Rand, world map[vars.Var]int32) int {
	// Step 1: choose f with probability p_f/M.
	u := rng.Float64() * cum[len(cum)-1]
	k := sort.SearchFloat64s(cum, u)
	if k == len(cum) {
		k = len(cum) - 1
	}
	gi := k
	if idx != nil {
		gi = idx[k]
	}
	chosen := f[gi]

	// Step 2: extend to a total assignment f* over vars(F): keep the
	// chosen clause's bindings, sample every other variable per W.
	clear(world)
	for _, b := range chosen {
		world[b.Var] = b.Alt
	}
	for _, v := range vs {
		if _, ok := world[v]; ok {
			continue
		}
		world[v] = sampleAlt(table.Info(v).Probs, rng)
	}

	// Step 3: return 1 iff chosen is the smallest-index clause of F
	// consistent with f*. Minimality is tested against all of F even when
	// drawing from a stratum: that is what makes the stratum masses
	// partition p.
	for i := 0; i < gi; i++ {
		if consistent(f[i], world) {
			return 0
		}
	}
	return 1
}

// sampleAlt draws an alternative according to its probabilities.
func sampleAlt(probs []float64, rng *rand.Rand) int32 {
	u := rng.Float64()
	acc := 0.0
	for alt, p := range probs {
		acc += p
		if u < acc {
			return int32(alt)
		}
	}
	return int32(len(probs) - 1)
}

// consistent reports whether the sampled world extends clause a.
func consistent(a vars.Assignment, world map[vars.Var]int32) bool {
	for _, b := range a {
		if got, ok := world[b.Var]; !ok || got != b.Alt {
			return false
		}
	}
	return true
}

// Step runs |F| more trials — one round of the inner loop of the paper's
// Figure 3 algorithm. It makes Estimator satisfy the Approximable
// interface of the predapprox package.
func (e *Estimator) Step() { e.Add(len(e.f)) }

// Add runs n more trials.
func (e *Estimator) Add(n int) {
	for i := 0; i < n; i++ {
		e.hits += int64(trial(e.f, e.vars, e.table, e.cum, nil, e.rng, e.world))
	}
	e.trials += int64(n)
}

// Estimate returns the current estimate p̂ = X·M/m. With zero trials it
// returns M as a safe upper bound (p ≤ M always).
func (e *Estimator) Estimate() float64 {
	if e.trials == 0 {
		return math.Min(e.m, 1)
	}
	return float64(e.hits) * e.m / float64(e.trials)
}

// Delta returns the paper's error bound for the current trial count:
// δ(ε) = 2·exp(−m·ε²/(3·|F|)), i.e. Pr[|p̂−p| ≥ ε·p] ≤ Delta(ε).
func (e *Estimator) Delta(eps float64) float64 {
	return DeltaBound(eps, e.trials, len(e.f))
}

// Bounds returns a confidence interval [lo, hi] for p at failure
// probability delta, by inverting DeltaBound: at the current trial count
// the relative half-width ε(δ) = √(3·|F|·ln(2/δ)/m) satisfies
// Pr[|p̂−p| ≥ ε·p] ≤ δ, so p ∈ [p̂/(1+ε), p̂/(1−ε)] with probability
// 1−δ (the upper end is min(M, 1) when ε ≥ 1). It makes Estimator
// satisfy the predapprox.Bounded interface for threshold decisions.
func (e *Estimator) Bounds(delta float64) (lo, hi float64) {
	max := math.Min(e.m, 1)
	if e.trials == 0 || delta <= 0 || delta >= 1 {
		return 0, max
	}
	eps := math.Sqrt(3 * float64(len(e.f)) * math.Log(2/delta) / float64(e.trials))
	p := e.Estimate()
	lo = p / (1 + eps)
	if eps >= 1 {
		return lo, max
	}
	hi = p / (1 - eps)
	if hi > max {
		hi = max
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// DeltaBound is the Chernoff-derived bound δ(ε) = 2·exp(−m·ε²/(3·|F|)).
func DeltaBound(eps float64, trials int64, clauses int) float64 {
	if trials == 0 {
		return 1
	}
	d := 2 * math.Exp(-float64(trials)*eps*eps/(3*float64(clauses)))
	return math.Min(d, 1)
}

// TrialsFor returns the paper's sample count m = ⌈3·|F|·log(2/δ)/ε²⌉
// that guarantees an (ε,δ) approximation.
func TrialsFor(eps, delta float64, clauses int) int64 {
	return int64(math.Ceil(3 * float64(clauses) * math.Log(2/delta) / (eps * eps)))
}

// Confidence runs the full FPRAS: it draws TrialsFor(eps, delta, |F|)
// samples and returns p̂ with Pr[|p̂−p| ≥ ε·p] ≤ δ.
func Confidence(f dnf.F, table *vars.Table, eps, delta float64, rng *rand.Rand) (float64, error) {
	f = f.Dedup()
	if len(f) == 0 {
		return 0, nil
	}
	if len(f[0]) == 0 {
		return 1, nil
	}
	e, err := NewEstimator(f, table, rng)
	if err != nil {
		return 0, err
	}
	e.Add(int(TrialsFor(eps, delta, e.ClauseCount())))
	return e.Estimate(), nil
}
