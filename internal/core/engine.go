// Package core is the paper's primary contribution assembled into a usable
// engine: approximate evaluation of UA[conf, repair-key, σ̂] queries on
// U-relational databases with per-tuple error bounds.
//
// The engine evaluates positive relational algebra and repair-key exactly
// on the U-relational representation (they are cheap — Proposition 3.3),
// approximates confidence with the Karp–Luby FPRAS (Section 4), decides σ̂
// predicates with the margin machinery of Section 5, and accounts
// membership-error bounds through provenance per Lemma 6.4. The top-level
// EvalApprox implements Theorem 6.7's strategy: evaluate with a round
// budget l, record per-tuple error bounds, and double l until every
// non-singular output tuple's bound is below the target δ.
package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/algebra"
	"repro/internal/provenance"
	"repro/internal/rel"
	"repro/internal/sched"
	"repro/internal/urel"
	"repro/internal/vars"
)

// Options configures approximate evaluation.
type Options struct {
	// Eps0 is ε₀, the smallest relative half-width the predicate
	// approximation goes for; points closer than ε₀ to a decision
	// boundary are singularities (Definition 5.6). Required > 0.
	Eps0 float64
	// Delta is the target per-tuple error probability δ.
	Delta float64
	// InitialRounds is the starting l of the doubling loop (default 1).
	InitialRounds int64
	// MaxRounds caps l; 0 means the Theorem 6.7 bound l₀ derived from the
	// query and database (so termination is guaranteed in polynomial
	// time).
	MaxRounds int64
	// ConfEps/ConfDelta parameterize standalone conf_{ε,δ} operators
	// (Corollary 4.3). Zero values default to Eps0 and Delta.
	ConfEps   float64
	ConfDelta float64
	// Seed seeds the engine's deterministic random source. Every
	// estimation task derives its own PRNG streams from Seed plus a
	// stable task key, so equal seeds give bit-identical results for any
	// Workers value.
	Seed int64
	// Workers is the number of goroutines the engine fans Karp–Luby
	// estimation out across; 0 (the default) selects GOMAXPROCS. Results
	// are independent of the value — it only changes wall-clock time.
	Workers int
	// NoResume disables cross-restart estimator reuse. By default the
	// doubling loop of EvalApprox snapshots every Karp–Luby task's
	// (hits, trials, chunk-cursor) state and resumes it on the next
	// restart, sampling only the delta chunks of the enlarged budget:
	// the per-task seed scheme guarantees the first chunks of a doubled
	// budget reproduce the previous restart's trials exactly, so resumed
	// results are bit-identical to a from-scratch run at the final budget
	// (for any Workers value) while total sampled trials roughly halve.
	// Set NoResume to force every restart to sample from scratch
	// (ablation / paper-literal mode).
	NoResume bool
	// MaxTrials caps the number of Karp–Luby trials one evaluation may
	// sample, cumulatively across every pass of the doubling loop. The
	// check is cooperative (pool workers charge each chunk before
	// sampling it), so an evaluation overshoots by at most the in-flight
	// chunks. 0 disables the limit. Exceeding it aborts the evaluation
	// with a *LimitError; trials replayed from estimator snapshots are
	// free — they were paid for when first sampled.
	MaxTrials int64
	// MaxMemory caps the evaluation's estimated bytes materialized by the
	// exact-algebra operators (the same running estimate Stats.Ops
	// reports), cumulatively across passes. Enforcement is cooperative:
	// the partitioned blow-up operators stop producing mid-range once the
	// budget trips, and the evaluation aborts with a *LimitError at the
	// next operator boundary. 0 disables the limit.
	MaxMemory int64
	// SpillDir, when non-empty alongside MaxMemory, switches the memory
	// limit from a hard abort to out-of-core execution: intermediate
	// relations whose footprint pushes the running estimate over MaxMemory
	// are shed to temp files under SpillDir (a fresh pdb-spill-*
	// subdirectory, removed when the evaluation finishes) and transparently
	// reloaded when a later operator needs them. MaxMemory then acts as a
	// high-water mark for the live set — any single operator's working set
	// still peaks in memory — and the evaluation completes instead of
	// returning a memory *LimitError. Results are bit-identical to an
	// unspilled run. Ignored when MaxMemory is 0.
	SpillDir string
	// NoSingletonShortcut disables the optimization that treats
	// single-clause lineages as exact values (δᵢ = 0) in σ̂ decisions:
	// with it set, every σ̂ confidence goes through the Karp–Luby
	// estimator. Standalone conf operators always shortcut singletons
	// (the estimator would return the clause weight deterministically
	// anyway). Ablation knob for the benchmark suite.
	NoSingletonShortcut bool
	// Strata enables clause-stratified Karp–Luby estimation with at most
	// Strata weight bands per clause set (see karpluby.PlanStrata): conf
	// operators switch to the adaptive loop — Neyman allocation of
	// sampling waves across strata, empirical-Bernstein stopping, and a
	// factoring pre-pass that computes independent easy subformulas
	// exactly — and σ̂ operators Neyman-allocate each pass's round budget
	// across strata. 0 (the default) keeps the flat estimator. Results
	// remain bit-identical for any Workers value under one seed;
	// stratified estimates differ numerically from flat ones (different
	// trial streams) while carrying the same (ε,δ) target.
	Strata int
	// ConfThreshold, when in (0,1), lets conf operators stop sampling a
	// tuple as soon as its confidence interval clears the threshold from
	// either side (the tuple's P column then carries the cruder estimate
	// at that stopping point). It implies the stratified conf path even
	// when Strata is 0 (using a default band count). 0 disables.
	ConfThreshold float64
	// ConfTopK, when > 0, lets conf operators stop sampling a tuple as
	// soon as its membership in the top-K confidences is decided either
	// way (interval separation against the other tuples of the same
	// operator). Like ConfThreshold it implies the stratified conf path.
	// 0 disables.
	ConfTopK int
	// IndependentBounds combines per-decision error bounds with the
	// independence form 1 − Π(1−δᵢ) of Lemma 5.1 instead of the union
	// bound Σδᵢ. Valid because the estimators of one decision are
	// independently seeded runs; kept off by default to match the
	// algorithm as printed in Figure 3.
	IndependentBounds bool
	// Progress, when non-nil, is called synchronously after every pass of
	// the doubling loop with a snapshot of the evaluation's progress. The
	// hook must be fast and must not call back into the engine.
	Progress func(Progress)
}

// Progress is one observation of EvalApprox's doubling loop, delivered to
// Options.Progress after each pass (including the final one, flagged Done).
type Progress struct {
	// Restart is the number of restarts before this pass (0 = first pass).
	Restart int
	// Rounds is the round budget l the pass ran with.
	Rounds int64
	// MaxRounds is the cap on l (the Theorem 6.7 bound when Options left
	// it 0).
	MaxRounds int64
	// WorstBound is the largest non-singular per-tuple/per-decision error
	// bound after the pass — the value the loop compares against δ.
	WorstBound float64
	// SampledTrials and ReusedTrials are cumulative Karp–Luby trial counts
	// across all passes so far (see Stats).
	SampledTrials int64
	ReusedTrials  int64
	// Decisions is the number of σ̂ decisions taken in this pass.
	Decisions int
	// Done reports whether the loop terminates with this pass.
	Done bool
}

// Validate checks the option values an evaluation relies on, returning a
// descriptive error for out-of-range settings: ε₀ and δ must lie in (0,1),
// and round budgets/worker counts must not be negative.
func (o Options) Validate() error {
	if o.Eps0 <= 0 || o.Eps0 >= 1 {
		return fmt.Errorf("core: ε₀ must be in (0,1), got %v", o.Eps0)
	}
	if o.Delta <= 0 || o.Delta >= 1 {
		return fmt.Errorf("core: δ must be in (0,1), got %v", o.Delta)
	}
	if o.ConfEps < 0 || o.ConfEps >= 1 {
		return fmt.Errorf("core: conf ε must be in (0,1) (or 0 to inherit ε₀), got %v", o.ConfEps)
	}
	if o.ConfDelta < 0 || o.ConfDelta >= 1 {
		return fmt.Errorf("core: conf δ must be in (0,1) (or 0 to inherit δ), got %v", o.ConfDelta)
	}
	if o.InitialRounds < 0 {
		return fmt.Errorf("core: InitialRounds must not be negative, got %d", o.InitialRounds)
	}
	if o.MaxRounds < 0 {
		return fmt.Errorf("core: MaxRounds must not be negative, got %d", o.MaxRounds)
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: Workers must not be negative, got %d", o.Workers)
	}
	if o.MaxTrials < 0 {
		return fmt.Errorf("core: MaxTrials must not be negative, got %d", o.MaxTrials)
	}
	if o.MaxMemory < 0 {
		return fmt.Errorf("core: MaxMemory must not be negative, got %d", o.MaxMemory)
	}
	if o.Strata < 0 || o.Strata > 4096 {
		return fmt.Errorf("core: Strata must be in [0, 4096], got %d", o.Strata)
	}
	if o.ConfThreshold < 0 || o.ConfThreshold >= 1 {
		return fmt.Errorf("core: ConfThreshold must be in [0,1), got %v", o.ConfThreshold)
	}
	if o.ConfTopK < 0 {
		return fmt.Errorf("core: ConfTopK must not be negative, got %d", o.ConfTopK)
	}
	return nil
}

// defaultStrata is the band count used when a threshold/top-k option
// forces the stratified conf path but Options.Strata was left 0.
const defaultStrata = 4

// confStrata returns the band bound of conf operators' estimation jobs:
// Strata when set, defaultStrata when a threshold/top-k option asks for
// stratified early stopping, and 0 (flat Karp–Luby) otherwise.
func (o Options) confStrata() int {
	switch {
	case o.Strata > 0:
		return o.Strata
	case o.ConfThreshold > 0 || o.ConfTopK > 0:
		return defaultStrata
	}
	return 0
}

func (o Options) confEps() float64 {
	if o.ConfEps > 0 {
		return o.ConfEps
	}
	return o.Eps0
}

func (o Options) confDelta() float64 {
	if o.ConfDelta > 0 {
		return o.ConfDelta
	}
	return o.Delta
}

// Stats reports work done by an approximate evaluation.
type Stats struct {
	// FinalRounds is the l at which the doubling loop stopped.
	FinalRounds int64
	// Restarts is the number of times evaluation was restarted with a
	// doubled l.
	Restarts int
	// EstimatorTrials is the total number of Karp–Luby trials actually
	// sampled across all restarts. With resume enabled (Options.NoResume
	// false) this excludes trials replayed from estimator snapshots.
	EstimatorTrials int64
	// ReusedTrials is the total number of trials whose counts were
	// carried over from estimator snapshots instead of being re-sampled —
	// snapshots of a previous restart of this evaluation, or, on an
	// engine with a shared cache, of any earlier evaluation that
	// estimated the same lineage content. Zero when Options.NoResume is
	// set (or when nothing was reusable).
	ReusedTrials int64
	// CacheHits is the number of estimation tasks that resumed from a
	// cached snapshot (each hit contributes its snapshot's trials to
	// ReusedTrials). With a shared engine cache this counts cross-query
	// reuse as well as cross-restart reuse.
	CacheHits int64
	// Decisions is the number of σ̂ predicate decisions taken in the
	// final evaluation.
	Decisions int
	// SingularDrops counts σ̂ decisions that came out negative while
	// flagged as potential ε₀-singularities: the dropped tuple's absence
	// is not covered by the δ guarantee.
	SingularDrops int
	// Strata is the total number of clause strata across the stratified
	// estimation tasks of the final pass (0 on the unstratified path).
	Strata int64
	// EarlyStops counts stratified estimation tasks of the final pass
	// that stopped before spending their trial cap — a threshold/top-k
	// decision settled, or the empirical-Bernstein bound converged below
	// δ ahead of the Chernoff budget.
	EarlyStops int64
	// ExactFactored counts independent lineage subformulas the factoring
	// pre-pass of the final pass computed exactly instead of sampling
	// (the distinction between sampled and exact-factored confidence
	// mass).
	ExactFactored int64
	// Ops aggregates per-operator work (tuple counts, estimated bytes
	// materialized) across every pass of the evaluation, including
	// restarted passes.
	Ops urel.StatsMap
	// SpilledBytes and SpillFiles report out-of-core activity
	// (Options.SpillDir): total bytes written to spill files and the number
	// of spill files created, across every pass. Zero without spilling.
	SpilledBytes int64
	SpillFiles   int
}

// Result is the outcome of an (approximate) query evaluation.
type Result struct {
	// Rel is the result as a U-relation (complete results have empty D
	// columns).
	Rel *urel.Relation
	// Complete reports c(result).
	Complete bool
	// Errors maps a data tuple's key (rel.Tuple.Key) to its
	// membership-error bound µ; missing keys mean 0. Bounds are clamped
	// to [0,1] for reporting.
	Errors provenance.ErrMap
	// Singular holds the keys of tuples whose σ̂ decisions hit the ε₀
	// floor: the point may be an ε₀-singularity and Theorem 6.7's
	// guarantee does not cover it.
	Singular map[string]bool
	// Stats reports evaluation effort.
	Stats Stats
}

// TupleError returns the clamped error bound of tuple t.
func (r *Result) TupleError(t rel.Tuple) float64 {
	return math.Min(1, r.Errors.Get(t.Key()))
}

// IsSingular reports whether t depends on a (potential) singularity.
func (r *Result) IsSingular(t rel.Tuple) bool { return r.Singular[t.Key()] }

// MaxNonSingularError returns the worst clamped bound over non-singular
// tuples.
func (r *Result) MaxNonSingularError() float64 {
	worst := 0.0
	for k, v := range r.Errors {
		if r.Singular[k] {
			continue
		}
		if v > worst {
			worst = v
		}
	}
	return math.Min(1, worst)
}

// Engine evaluates UA queries against a U-relational database.
type Engine struct {
	db   *urel.Database
	opts Options
	pool *sched.Pool
	// shared, when non-nil, is an estimator cache that outlives this
	// engine's evaluations (see SetCache).
	shared *Cache
	// dist, when non-nil, scatters estimation batches to remote shards
	// (see SetDistributor).
	dist Distributor
}

// NewEngine builds an engine over db. The database is cloned per
// evaluation, never mutated.
func NewEngine(db *urel.Database, opts Options) *Engine {
	return &Engine{db: db, opts: opts, pool: sched.New(opts.Workers)}
}

// SetCache attaches a long-lived estimator cache: EvalApprox resumes
// Karp–Luby state from it and publishes new state to it, so estimation
// work survives across Eval calls — and across engines sharing the cache —
// for any tasks with equal lineage content under one seed. The cache may
// be shared by concurrent evaluations. A nil cache (the default) restores
// the per-call cache that lives only for one doubling loop.
func (e *Engine) SetCache(c *Cache) { e.shared = c }

// DB returns the engine's database.
func (e *Engine) DB() *urel.Database { return e.db }

// EvalExact evaluates the query with exact confidence computation
// (delegating to the algebra package's U-relational evaluator). The
// evaluator runs its partitioned operators — and independent plan
// branches — across the engine's worker pool (Options.Workers); results
// are bit-identical for any worker count.
func (e *Engine) EvalExact(q algebra.Query) (algebra.URelResult, error) {
	return e.EvalExactContext(context.Background(), q)
}

// EvalExactContext is EvalExact with cooperative cancellation between plan
// operators. Options.MaxMemory bounds the evaluation's materialized bytes
// exactly like the approximate path (a trip aborts with a *LimitError —
// unless Options.SpillDir enables out-of-core execution, in which case
// over-budget intermediates spill to disk and the evaluation completes);
// Options.MaxTrials does not apply — exact evaluation samples nothing.
func (e *Engine) EvalExactContext(ctx context.Context, q algebra.Query) (algebra.URelResult, error) {
	ev := algebra.NewParallelURelEvaluator(e.db, e.pool).WithBudget(urel.NewMemBudget(e.opts.MaxMemory))
	spill, err := e.newSpill()
	if err != nil {
		return algebra.URelResult{}, err
	}
	if spill != nil {
		defer spill.Close()
		ev.WithSpill(spill)
	}
	res, err := ev.EvalContext(ctx, q)
	return res, limitError(err)
}

// newSpill creates the evaluation's spill manager when out-of-core
// execution is configured (Options.SpillDir set alongside a MaxMemory
// budget), nil otherwise.
func (e *Engine) newSpill() (*urel.Spill, error) {
	if e.opts.SpillDir == "" || e.opts.MaxMemory <= 0 {
		return nil, nil
	}
	return urel.NewSpill(e.opts.SpillDir)
}

// EvalApprox evaluates the query approximately per Theorem 6.7: it runs
// the plan with round budget l, doubling l until every non-singular output
// tuple's error bound is ≤ δ (or the round cap is reached).
func (e *Engine) EvalApprox(q algebra.Query) (*Result, error) {
	return e.EvalApproxContext(context.Background(), q)
}

// EvalApproxContext is EvalApprox with cooperative cancellation: the
// context is checked between operators of each pass and between estimation
// chunks inside the worker pool, so cancelling ctx aborts the evaluation
// within one chunk boundary and returns ctx.Err(). Cancellation never
// corrupts the cross-restart estimator cache — a task's snapshot is only
// published once every chunk of its budget has merged — so the engine (and
// its resume machinery) remains fully usable after an aborted call.
func (e *Engine) EvalApproxContext(ctx context.Context, q algebra.Query) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := algebra.Validate(q); err != nil {
		return nil, err
	}
	if err := e.opts.Validate(); err != nil {
		return nil, err
	}
	l := e.opts.InitialRounds
	if l <= 0 {
		l = 1
	}
	maxL := e.opts.MaxRounds
	if maxL <= 0 {
		maxL = e.theorem67Cap(q)
	}
	var trials, reused, cacheHits int64
	restarts := 0
	// The estimator cache persists across the loop's restarts: each
	// restart resumes the previous restart's per-task snapshots and
	// samples only the delta chunks of its enlarged budgets. With a
	// shared cache attached (SetCache), snapshots additionally persist
	// across Eval calls and across queries — task keys are
	// lineage-content fingerprints, meaningful wherever the same clause
	// set is estimated under the same seed.
	var cache *Cache
	if !e.opts.NoResume {
		if e.shared != nil {
			cache = e.shared
		} else {
			cache = NewCache(0)
		}
	}
	// Resource limits span all restarts too: trials and bytes accumulate
	// over the whole evaluation, not per pass.
	limits := newEvalLimits(e.opts)
	// So does the spill manager (Options.SpillDir): one directory serves
	// every pass, removed when the evaluation returns.
	spill, err := e.newSpill()
	if err != nil {
		return nil, err
	}
	if spill != nil {
		defer spill.Close()
	}
	// Stats.Ops reports the evaluation's total exact-algebra work: the sum
	// of every pass's operator statistics.
	ops := urel.StatsMap{}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Each pass is one walk of the plan interpreter over a fresh clone
		// of the database, with Karp–Luby confidences at round budget l.
		run := &evalRun{engine: e, ctx: ctx, rounds: l, cache: cache, limits: limits}
		ev := algebra.NewParallelURelEvaluator(e.db, e.pool).
			WithBudget(limits.mem).WithSpill(spill).WithConfBackend(run)
		run.vars = ev.DB().Vars
		res, err := ev.EvalContext(ctx, q)
		if err != nil {
			return nil, limitError(err)
		}
		ops.Add(res.Ops)
		trials += run.trials
		reused += run.reused
		cacheHits += run.cacheHits
		// Termination criterion of Theorem 6.7: every non-singular
		// decision (positive or negative) and every non-singular result
		// tuple's accumulated bound must be ≤ δ. Singular tuples never
		// converge and are excluded (the theorem only covers tuples
		// without singularities in their provenance).
		worst := run.worstDecision
		for k, v := range res.Errs {
			if res.Singular[k] {
				continue
			}
			if v > worst {
				worst = v
			}
		}
		done := worst <= e.opts.Delta || l >= maxL
		if e.opts.Progress != nil {
			e.opts.Progress(Progress{
				Restart:       restarts,
				Rounds:        l,
				MaxRounds:     maxL,
				WorstBound:    worst,
				SampledTrials: trials,
				ReusedTrials:  reused,
				Decisions:     run.decisions,
				Done:          done,
			})
		}
		if done {
			return finishResult(res, Stats{
				FinalRounds:     l,
				Restarts:        restarts,
				EstimatorTrials: trials,
				ReusedTrials:    reused,
				CacheHits:       cacheHits,
				Decisions:       run.decisions,
				SingularDrops:   run.singularDrops,
				Strata:          run.strata,
				EarlyStops:      run.earlyStops,
				ExactFactored:   run.exactFactored,
				Ops:             ops,
				SpilledBytes:    res.SpilledBytes,
				SpillFiles:      res.SpillFiles,
			}), nil
		}
		l *= 2
		if l > maxL {
			l = maxL
		}
		restarts++
	}
}

// theorem67Cap computes the l₀ of Theorem 6.7's proof from the query's
// σ̂ structure and the database size: l₀ ≥ 3·log(2·k·d·n^{k·d}/δ)/ε₀².
func (e *Engine) theorem67Cap(q algebra.Query) int64 {
	k, d := 1, 0
	algebra.Walk(q, func(n algebra.Query) {
		if as, ok := n.(algebra.ApproxSelect); ok {
			d++
			if len(as.Args) > k {
				k = len(as.Args)
			}
		}
	})
	if d == 0 {
		return 1
	}
	n := 1
	for _, r := range e.db.Rels {
		n += r.Len() * len(r.Schema())
	}
	cap66 := provenance.RoundsForProposition66(k, d, n, e.opts.Eps0, e.opts.Delta)
	if cap66 < 1 {
		return 1
	}
	return cap66
}

func finishResult(r algebra.URelResult, stats Stats) *Result {
	clamped := provenance.ErrMap{}
	for k, v := range r.Errs {
		clamped[k] = math.Min(1, v)
	}
	singular := r.Singular
	if singular == nil {
		singular = map[string]bool{}
	}
	return &Result{
		Rel:      r.Rel,
		Complete: r.Complete,
		Errors:   clamped,
		Singular: singular,
		Stats:    stats,
	}
}

// evalRun is the approximate algebra.ConfBackend of one pass at a fixed
// round budget: conf by the Karp–Luby FPRAS and σ̂ by the Figure 3
// decision procedure, with the per-pass estimation state and accounting.
// The plan interpreter never calls it from concurrent branches, so the
// state needs no locking outside the estimation batches themselves.
type evalRun struct {
	engine *Engine
	// ctx is checked between estimation chunks (sched.Pool.ForEachCtx),
	// bounding cancellation latency inside a conf or σ̂ operator.
	ctx context.Context
	// vars is the pass evaluator's variable table (its database clone's),
	// which repair-key grows as the plan runs.
	vars   *vars.Table
	rounds int64
	// cache, when non-nil, resumes estimation tasks from snapshots stored
	// under the same lineage-content keys — by a previous restart of this
	// EvalApprox, or by any earlier evaluation when the engine carries a
	// shared cache (Options.NoResume disables it).
	cache *Cache
	// limits carries the evaluation's resource accounting; see limits.go.
	limits *evalLimits
	// fper fingerprints lineage content against this pass's variable
	// table (lazily built).
	fper *fingerprinter
	// batch dedups content-equal estimation tasks within one operator's
	// job batch; see newStratJob.
	batch map[contentKey]*stratJob
	// trials counts trials sampled this pass; reused counts trials whose
	// integer sums were carried over from cache snapshots instead;
	// cacheHits counts tasks that resumed from a snapshot.
	trials    int64
	reused    int64
	cacheHits int64
	decisions int
	// strata / earlyStops / exactFactored feed the Stats fields of the
	// same names (final-pass values, like decisions); see stratified.go.
	strata        int64
	earlyStops    int64
	exactFactored int64
	// worstDecision is the largest non-singular per-decision error bound
	// seen, including negative decisions (whose tuples do not appear in
	// the result and so carry no entry in the error map). The doubling
	// loop must not terminate while any decision — positive or negative —
	// is still unreliable.
	worstDecision float64
	singularDrops int
}
