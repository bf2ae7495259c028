package algebra

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/expr"
	"repro/internal/provenance"
	"repro/internal/rel"
	"repro/internal/sched"
	"repro/internal/urel"
)

// URelResult is the outcome of evaluation on a U-relational database: the
// result U-relation (complete relations are U-relations with empty D
// columns) and the completeness flag c(result). Ops carries the
// evaluation's per-operator statistics; it is set only on the result of a
// top-level Eval/EvalContext call, never on intermediate results.
type URelResult struct {
	Rel      *urel.Relation
	Complete bool
	// Errs and Singular annotate results of approximate evaluation
	// (Section 6), keyed by a data tuple's rel.Tuple.Key: Errs holds the
	// tuple's membership-error bound µ (propagated by Lemma 6.4), Singular
	// marks tuples whose σ̂ decisions hit the ε₀ floor. Nil or empty means
	// reliable; only a non-exact ConfBackend creates entries, so exact
	// evaluation never pays for them.
	Errs     provenance.ErrMap
	Singular map[string]bool
	Ops      urel.StatsMap
	// SpilledBytes and SpillFiles report out-of-core activity (WithSpill):
	// total bytes written to spill files and the number of spill files
	// created. Zero without spilling. Like Ops, set only on top-level
	// results.
	SpilledBytes int64
	SpillFiles   int
}

// URelEvaluator is the plan interpreter for UA queries on a U-relational
// database: positive relational algebra by the parsimonious translation,
// conf and σ̂ through its ConfBackend — by default exact #P computation
// (dnf) and σ̂'s defining composition with exact confidences. The
// evaluator works on a clone of the database, so repair-key never mutates
// the caller's variable table.
//
// A pool-backed evaluator (NewParallelURelEvaluator) runs the partitioned
// operator implementations across its workers and evaluates independent
// plan branches concurrently; results are bit-identical to the sequential
// evaluator for any worker count (the urel.Exec determinism invariant).
type URelEvaluator struct {
	db     *urel.Database
	nextRK int
	pool   *sched.Pool
	ctrs   *urel.Counters
	exec   *urel.Exec
	// branchSem bounds concurrent branch pairs: sched.Pool is a per-call
	// fan-out width, not a shared semaphore, so without a gate a bushy
	// plan of d safe binary operators could run up to 2^d branches, each
	// fanning its operators out pool-wide. Tokens are acquired
	// non-blockingly — a pair that finds none runs sequentially.
	branchSem chan struct{}
	// ctx, when non-nil, is checked at every operator so a cancelled
	// evaluation aborts between nodes with ctx.Err().
	ctx context.Context
	// mem, when non-nil, bounds the evaluation's materialized bytes (see
	// WithBudget); checked next to ctx at every operator.
	mem *urel.MemBudget
	// spill, when non-nil alongside mem, turns the budget into a
	// high-water mark: over-budget intermediates move to spill files
	// instead of aborting the evaluation (see WithSpill).
	spill *urel.Spill
	// conf computes the conf and σ̂ nodes (see WithConfBackend).
	conf ConfBackend
}

// ConfBackend computes the two plan nodes whose meaning depends on how
// confidence is computed: conf (pcol names the confidence column) and σ̂.
// x is the evaluation's operator executor and db its working database,
// whose variable table repair-key grows as the plan runs. The evaluator
// never calls a backend from concurrent plan branches (see branchSafe),
// so implementations may keep single-threaded per-evaluation state.
//
// The exact backend is the default. An approximate backend returns
// estimated confidences and annotates its results with error bounds and
// singularity marks (URelResult.Errs/Singular), which the evaluator then
// propagates through the rest of the plan.
type ConfBackend interface {
	Conf(x *urel.Exec, db *urel.Database, in URelResult, pcol string) (URelResult, error)
	ApproxSelect(x *urel.Exec, db *urel.Database, in URelResult, n ApproxSelect) (URelResult, error)
}

// NewURelEvaluator clones db and returns a sequential evaluator over the
// clone.
func NewURelEvaluator(db *urel.Database) *URelEvaluator {
	return NewParallelURelEvaluator(db, nil)
}

// NewParallelURelEvaluator clones db and returns an evaluator whose
// operators (and independent plan branches) run across pool's workers.
// A nil pool selects one worker — the sequential reference path.
func NewParallelURelEvaluator(db *urel.Database, pool *sched.Pool) *URelEvaluator {
	if pool == nil {
		pool = sched.New(1)
	}
	ctrs := urel.NewCounters()
	return &URelEvaluator{
		db:        db.Clone(),
		pool:      pool,
		ctrs:      ctrs,
		exec:      urel.NewExec(pool, ctrs),
		branchSem: make(chan struct{}, pool.Workers()),
		conf:      exactConf{},
	}
}

// DB exposes the evaluator's (cloned) database; repair-key applications
// grow its variable table.
func (e *URelEvaluator) DB() *urel.Database { return e.db }

// WithBudget bounds the evaluation's materialized bytes: every operator
// charges its output's estimated footprint, the partitioned blow-up
// operators stop producing mid-range once the budget trips, and the
// evaluation aborts with a *urel.MemLimitError at the next operator
// boundary. Returns e for chaining; a nil budget disables the checks.
func (e *URelEvaluator) WithBudget(b *urel.MemBudget) *URelEvaluator {
	e.mem = b
	return e
}

// WithSpill attaches a spill manager for out-of-core execution: combined
// with WithBudget, intermediate relations whose footprint pushes the
// budget over its limit are shed to spill files and transparently reloaded
// when a later operator needs them, so the evaluation completes instead of
// aborting with a memory-limit error. Results are bit-identical to an
// unspilled run. Spilled evaluation disables concurrent branch evaluation
// (the residency bookkeeping is single-threaded); operators themselves
// still run across the pool's workers. The caller owns s's lifecycle
// (Close removes the directory). A nil s disables spilling.
func (e *URelEvaluator) WithSpill(s *urel.Spill) *URelEvaluator {
	e.spill = s
	return e
}

// WithConfBackend replaces the exact confidence computation of conf and
// σ̂ nodes with b. Returns e for chaining; a nil b restores the exact
// backend.
func (e *URelEvaluator) WithConfBackend(b ConfBackend) *URelEvaluator {
	if b == nil {
		b = exactConf{}
	}
	e.conf = b
	return e
}

// Eval evaluates the query and returns the result relation.
func (e *URelEvaluator) Eval(q Query) (URelResult, error) {
	return e.EvalContext(context.Background(), q)
}

// EvalContext evaluates the query with cooperative cancellation: ctx is
// checked before every operator, so a cancelled or expired context aborts
// the evaluation between nodes and returns ctx.Err(). Exact confidence
// computation on one operator's lineage is not interruptible — the check
// granularity is the plan node.
func (e *URelEvaluator) EvalContext(ctx context.Context, q Query) (URelResult, error) {
	if err := Validate(q); err != nil {
		return URelResult{}, err
	}
	// Fresh statistics per evaluation, so URelResult.Ops reports this
	// call's work even when the evaluator is reused for several queries.
	e.ctrs = urel.NewCounters()
	e.exec = urel.NewExec(e.pool, e.ctrs).WithBudget(e.mem).WithSpill(e.spill)
	e.ctx = ctx
	res, err := e.eval(q)
	if err != nil {
		return res, err
	}
	// The final result may itself have been shed while later operators ran;
	// callers read it directly, so bring it home and surface any I/O
	// failure from doing so.
	e.exec.Ensure(res.Rel)
	if err := e.exec.Err(); err != nil {
		return URelResult{}, err
	}
	res.Ops = e.ctrs.Snapshot()
	if e.spill != nil {
		res.SpilledBytes = e.spill.Bytes()
		res.SpillFiles = e.spill.Files()
	}
	return res, nil
}

// eval evaluates one plan node, bracketing it with the cooperative
// checks: cancellation before the node runs, and the memory limit after —
// a budget tripped mid-operator must surface before the parent operator
// (an exact conf's #P computation, say) consumes the partial output.
func (e *URelEvaluator) eval(q Query) (URelResult, error) {
	if e.ctx != nil {
		if err := e.ctx.Err(); err != nil {
			return URelResult{}, err
		}
	}
	res, err := e.evalNode(q)
	if err != nil {
		return URelResult{}, err
	}
	if err := e.exec.Err(); err != nil {
		// A spill I/O failure means some operator saw incomplete inputs;
		// the whole evaluation is abandoned, never silently wrong.
		return URelResult{}, err
	}
	// Under out-of-core execution the budget is a residency high-water
	// mark, not an abort condition — only spill I/O failures end the run.
	if e.spill == nil {
		if err := e.mem.Err(); err != nil {
			return URelResult{}, err
		}
	}
	return res, nil
}

func (e *URelEvaluator) evalNode(q Query) (URelResult, error) {
	switch n := q.(type) {
	case Base:
		r, ok := e.db.Rels[n.Name]
		if !ok {
			return URelResult{}, fmt.Errorf("algebra: unknown relation %q", n.Name)
		}
		return URelResult{Rel: r, Complete: e.db.Complete[n.Name]}, nil

	case Select:
		in, err := e.eval(n.In)
		if err != nil {
			return URelResult{}, err
		}
		out := URelResult{Rel: e.exec.Select(in.Rel, n.Pred), Complete: in.Complete}
		if in.Annotated() {
			// (t, σ_φ(R)) ≺ (t, R): bounds carry over for surviving tuples.
			out.Errs, out.Singular = perTuple(out.Rel, in.Errs.Get,
				func(k string) bool { return in.Singular[k] })
		}
		return out, nil

	case Project:
		in, err := e.eval(n.In)
		if err != nil {
			return URelResult{}, err
		}
		out := URelResult{Rel: e.exec.Project(in.Rel, n.Targets), Complete: in.Complete}
		if in.Annotated() {
			out.Errs, out.Singular = ProjectAnnotations(in, n.Targets)
		}
		return out, nil

	case Product:
		l, r, err := e.evalPair(n.L, n.R)
		if err != nil {
			return URelResult{}, err
		}
		p, err := e.exec.Product(l.Rel, r.Rel)
		if err != nil {
			return URelResult{}, err
		}
		out := URelResult{Rel: p, Complete: l.Complete && r.Complete}
		if l.Annotated() || r.Annotated() {
			nl := len(l.Rel.Schema())
			out.Errs, out.Singular = pairAnnotations(p, l, r, func(row rel.Tuple) (rel.Tuple, rel.Tuple) {
				return row[:nl], row[nl:]
			})
		}
		return out, nil

	case Join:
		l, r, err := e.evalPair(n.L, n.R)
		if err != nil {
			return URelResult{}, err
		}
		out := URelResult{Rel: e.exec.Join(l.Rel, r.Rel), Complete: l.Complete && r.Complete}
		if l.Annotated() || r.Annotated() {
			nl, rSchema := len(l.Rel.Schema()), r.Rel.Schema()
			rIdx := make([]int, len(rSchema))
			for i, a := range rSchema {
				rIdx[i] = out.Rel.Schema().Index(a)
			}
			out.Errs, out.Singular = pairAnnotations(out.Rel, l, r, func(row rel.Tuple) (rel.Tuple, rel.Tuple) {
				rrow := make(rel.Tuple, len(rIdx))
				for i, j := range rIdx {
					rrow[i] = row[j]
				}
				return row[:nl], rrow
			})
		}
		return out, nil

	case Union:
		l, r, err := e.evalPair(n.L, n.R)
		if err != nil {
			return URelResult{}, err
		}
		u, err := e.exec.Union(l.Rel, r.Rel)
		if err != nil {
			return URelResult{}, err
		}
		out := URelResult{Rel: u, Complete: l.Complete && r.Complete}
		if l.Annotated() || r.Annotated() {
			// (t, R ∪ S) ≺ both: the two sides' bounds add.
			out.Errs, out.Singular = perTuple(u,
				func(k string) float64 { return l.Errs.Get(k) + r.Errs.Get(k) },
				func(k string) bool { return l.Singular[k] || r.Singular[k] })
		}
		return out, nil

	case DiffC:
		l, r, err := e.evalPair(n.L, n.R)
		if err != nil {
			return URelResult{}, err
		}
		if !l.Complete || !r.Complete {
			return URelResult{}, fmt.Errorf("algebra: −c requires inputs complete by c")
		}
		d, err := e.exec.DiffComplete(l.Rel, r.Rel)
		if err != nil {
			return URelResult{}, err
		}
		out := URelResult{Rel: d, Complete: true}
		if l.Annotated() || r.Annotated() {
			// −c is outside the positive fragment of Lemma 6.4: a right
			// tuple wrongly present or absent can flip any left tuple's
			// membership, so each result tuple adds the right side's worst
			// bound, and any singular right tuple makes every result
			// tuple singular.
			rWorst, rSingular := r.Errs.Max(), len(r.Singular) > 0
			out.Errs, out.Singular = perTuple(d,
				func(k string) float64 { return l.Errs.Get(k) + rWorst },
				func(k string) bool { return l.Singular[k] || rSingular })
		}
		return out, nil

	case RepairKey:
		in, err := e.eval(n.In)
		if err != nil {
			return URelResult{}, err
		}
		if !in.Errs.IsReliable() {
			return URelResult{}, fmt.Errorf("algebra: repair-key over unreliable input is not supported (paper footnote 3)")
		}
		e.nextRK++
		prefix := "rk" + strconv.Itoa(e.nextRK)
		rk, err := e.exec.RepairKey(in.Rel, n.Key, n.Weight, e.db.Vars, prefix)
		if err != nil {
			return URelResult{}, err
		}
		return URelResult{Rel: rk, Complete: false}, nil

	case Conf:
		in, err := e.eval(n.In)
		if err != nil {
			return URelResult{}, err
		}
		return e.conf.Conf(e.exec, e.db, in, n.PCol())

	case Poss:
		in, err := e.eval(n.In)
		if err != nil {
			return URelResult{}, err
		}
		return URelResult{Rel: urel.FromComplete(e.exec.Poss(in.Rel)), Complete: true,
			Errs: in.Errs, Singular: in.Singular}, nil

	case Cert:
		in, err := e.eval(n.In)
		if err != nil {
			return URelResult{}, err
		}
		// cert is a conf = 1 test — a singularity for approximation
		// (Example 5.7) — so every backend computes it exactly.
		return URelResult{Rel: urel.FromComplete(e.exec.CertExact(in.Rel, e.db.Vars)), Complete: true,
			Errs: in.Errs, Singular: in.Singular}, nil

	case Let:
		def, err := e.eval(n.Def)
		if err != nil {
			return URelResult{}, err
		}
		// Base references carry no annotations, so an unreliable binding's
		// bounds would be lost in the body.
		if def.Annotated() {
			return URelResult{}, fmt.Errorf("algebra: let-binding %q of an unreliable relation is not supported; apply σ̂ in the body", n.Name)
		}
		oldRel, hadRel := e.db.Rels[n.Name]
		oldC := e.db.Complete[n.Name]
		e.db.Rels[n.Name] = def.Rel
		e.db.Complete[n.Name] = def.Complete
		res, err := e.eval(n.In)
		if hadRel {
			e.db.Rels[n.Name] = oldRel
			e.db.Complete[n.Name] = oldC
		} else {
			delete(e.db.Rels, n.Name)
			delete(e.db.Complete, n.Name)
		}
		return res, err

	case ApproxSelect:
		in, err := e.eval(n.In)
		if err != nil {
			return URelResult{}, err
		}
		return e.conf.ApproxSelect(e.exec, e.db, in, n)

	default:
		return URelResult{}, fmt.Errorf("algebra: unknown query node %T", q)
	}
}

// evalPair evaluates the two inputs of a binary operator. When the pool
// has more than one worker, a branch token is available, and both
// branches are pure algebra (see branchSafe), the branches evaluate
// concurrently; otherwise strictly left-then-right. Concurrent branches change only wall-clock time: each
// branch's own operators are deterministic, the branches share no mutable
// state, and error priority (left first) matches the sequential path.
// Cancellation stays at node granularity — every eval call checks the
// evaluator's context.
func (e *URelEvaluator) evalPair(l, r Query) (URelResult, URelResult, error) {
	// Out-of-core execution forces sequential branches: the Exec's
	// spill-residency bookkeeping assumes one operator at a time.
	if e.spill == nil && e.pool.Workers() > 1 && branchSafe(l) && branchSafe(r) {
		select {
		case e.branchSem <- struct{}{}:
			defer func() { <-e.branchSem }()
			ctx := e.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			var res [2]URelResult
			qs := [2]Query{l, r}
			err := e.pool.ForEachCtx(ctx, 2, func(i int) error {
				out, err := e.eval(qs[i])
				res[i] = out
				return err
			})
			if err != nil {
				return URelResult{}, URelResult{}, err
			}
			return res[0], res[1], nil
		default:
			// No token free: enough branch pairs are already in flight to
			// keep the pool busy — fall through to sequential evaluation.
		}
	}
	lr, err := e.eval(l)
	if err != nil {
		return URelResult{}, URelResult{}, err
	}
	rr, err := e.eval(r)
	if err != nil {
		return URelResult{}, URelResult{}, err
	}
	return lr, rr, nil
}

// branchSafe reports whether a plan branch can run concurrently with a
// sibling. It must not contain RepairKey (which registers variables in
// the shared table and consumes the evaluator's deterministic rk counter)
// or Let (which temporarily rebinds a relation name in the shared
// database). Nor may it contain Conf or ApproxSelect: each already
// spreads its work across the whole pool (exact per-tuple confidences,
// or one estimation batch), and a backend's per-evaluation state is
// single-threaded.
func branchSafe(q Query) bool {
	safe := true
	Walk(q, func(n Query) {
		switch n.(type) {
		case RepairKey, Let, Conf, ApproxSelect:
			safe = false
		}
	})
	return safe
}

// exactConf is the default ConfBackend: exact #P confidence computation.
type exactConf struct{}

func (exactConf) Conf(x *urel.Exec, db *urel.Database, in URelResult, pcol string) (URelResult, error) {
	c, err := x.ConfExact(in.Rel, db.Vars, pcol)
	if err != nil {
		return URelResult{}, err
	}
	return URelResult{Rel: urel.FromComplete(c), Complete: true}, nil
}

// ApproxSelect evaluates σ̂ by its defining composition with exact
// confidence computation: this is the Q (as opposed to Q∼) semantics of
// Section 6. Each conf[Āᵢ] argument becomes ρ_{P→Pi}(conf(π_{Āᵢ}(in))).
func (exactConf) ApproxSelect(x *urel.Exec, db *urel.Database, in URelResult, n ApproxSelect) (URelResult, error) {
	confRels := make([]*rel.Relation, len(n.Args))
	for i, a := range n.Args {
		targets := make([]expr.Target, len(a.Attrs))
		for j, attr := range a.Attrs {
			if !in.Rel.Schema().Has(attr) {
				return URelResult{}, fmt.Errorf("algebra: σ̂ conf attribute %q not in schema %v", attr, in.Rel.Schema())
			}
			targets[j] = expr.Keep(attr)
		}
		c, err := x.ConfExact(x.Project(in.Rel, targets), db.Vars, PColName(i))
		if err != nil {
			return URelResult{}, err
		}
		confRels[i] = c
	}
	out, err := JoinAndFilter(confRels, n)
	if err != nil {
		return URelResult{}, err
	}
	return URelResult{Rel: urel.FromComplete(out), Complete: true}, nil
}

// PColName returns the confidence column name for σ̂ argument i: P1, P2, …
func PColName(i int) string { return "P" + strconv.Itoa(i+1) }

// JoinAndFilter joins the per-argument confidence relations naturally and
// keeps the rows satisfying the σ̂ predicate over (P1,…,Pk).
func JoinAndFilter(confRels []*rel.Relation, n ApproxSelect) (*rel.Relation, error) {
	joined := urel.FromComplete(confRels[0])
	for _, c := range confRels[1:] {
		joined = urel.Join(joined, urel.FromComplete(c))
	}
	schema := joined.Schema()
	pIdx := make([]int, len(n.Args))
	for i := range n.Args {
		pIdx[i] = schema.Index(PColName(i))
		if pIdx[i] < 0 {
			return nil, fmt.Errorf("algebra: internal: missing conf column %s", PColName(i))
		}
	}
	out := rel.NewRelation(schema)
	x := make([]float64, len(n.Args))
	for _, ut := range joined.Tuples() {
		for i, j := range pIdx {
			x[i] = ut.Row[j].AsFloat()
		}
		if n.Pred.Eval(x) {
			out.Add(ut.Row)
		}
	}
	return out, nil
}
