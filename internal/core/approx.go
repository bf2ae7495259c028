package core

import (
	"fmt"
	"math"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/karpluby"
	"repro/internal/provenance"
	"repro/internal/rel"
	"repro/internal/urel"
)

// Conf implements conf_{ε,δ} (Section 4 / Corollary 4.3): the output is
// a complete relation with an estimated P column; per-tuple membership
// bounds are inherited from the input (the P value itself carries the
// (ε,δ) relative-error guarantee). Every distinct tuple becomes an
// estimation job keyed by its lineage content, so its PRNG streams — and
// hence its estimate — depend only on Options.Seed, not on the worker
// count or on other tuples; tuples sharing a clause set (within this
// operator, elsewhere in the plan, or in an earlier query against a
// shared engine cache) share one estimation. Without Strata, threshold or
// top-k the jobs are flat and spend the FPRAS budget; otherwise they are
// stratified and sample adaptively until the (ε,δ) bound holds, and
// threshold/top-k stop a tuple early once its decision is settled. Those
// two options never filter the output: every tuple still appears with
// its estimate; they only govern how much sampling effort it receives.
func (run *evalRun) Conf(x *urel.Exec, _ *urel.Database, in algebra.URelResult, pcol string) (algebra.URelResult, error) {
	if in.Rel.Schema().Has(pcol) {
		return algebra.URelResult{}, fmt.Errorf("core: conf column %q already in schema %v", pcol, in.Rel.Schema())
	}
	opts := run.engine.opts
	eps, delta := opts.confEps(), opts.confDelta()
	maxStrata := opts.confStrata()
	var tuples []rowConf
	var jobs []*stratJob
	run.batch = make(map[contentKey]*stratJob)
	budget := func(clauses int) int64 { return karpluby.TrialsFor(eps, delta, clauses) }
	// One pass streams the lineage groups into jobs and keeps only
	// (row, value) per tuple. The singleton shortcut is always on here: a
	// single clause's weight is its exact probability.
	for tc := range x.LineageSeq(in.Rel) {
		cv, job, err := run.newStratJob(tc.F, budget, true, maxStrata)
		if err != nil {
			return algebra.URelResult{}, err
		}
		if job != nil {
			jobs = append(jobs, job)
		}
		tuples = append(tuples, rowConf{row: tc.Row, cv: cv})
	}
	tgt := stratTarget{adaptive: maxStrata > 0, eps: eps, delta: delta}
	if opts.ConfThreshold > 0 || opts.ConfTopK > 0 {
		all := make([]*confValue, len(tuples))
		for i, t := range tuples {
			all[i] = t.cv
		}
		tgt.decided = confDecider(all, opts.ConfThreshold, opts.ConfTopK, delta)
	}
	if err := run.runStratEstimates(jobs, tgt); err != nil {
		return algebra.URelResult{}, err
	}
	return confOutput(in, pcol, tuples), nil
}

// rowConf is one distinct data tuple of a conf input with its confidence
// value.
type rowConf struct {
	row rel.Tuple
	cv  *confValue
}

// confOutput builds a conf operator's result from its estimated tuples:
// each row extended by its P value, with the input's bounds and marks
// carried over to the extended rows when the input is annotated.
func confOutput(in algebra.URelResult, pcol string, tuples []rowConf) algebra.URelResult {
	out := urel.NewRelation(rel.NewSchema(append(in.Rel.Schema().Clone(), pcol)...))
	res := algebra.URelResult{Rel: out, Complete: true}
	annotated := in.Annotated()
	if annotated {
		res.Errs, res.Singular = provenance.Reliable(), map[string]bool{}
	}
	for _, t := range tuples {
		outRow := make(rel.Tuple, len(t.row)+1)
		copy(outRow, t.row)
		outRow[len(t.row)] = rel.Float(t.cv.estimate())
		out.AddOwned(nil, outRow)
		if !annotated {
			continue
		}
		inKey, outKey := t.row.Key(), outRow.Key()
		if v := in.Errs.Get(inKey); v > 0 {
			res.Errs.Set(outKey, v)
		}
		if in.Singular[inKey] {
			res.Singular[outKey] = true
		}
	}
	return res
}

// confValue is one approximable conf[Āᵢ] term of a conf or σ̂ operator:
// an exact probability (job nil), or the estimate of the job's clause set
// combined with the exactly-factored part of the lineage as
// p = value + (1−value)·p_R (see dnf.Factor; flat jobs factor nothing).
type confValue struct {
	job      *stratJob
	value    float64 // the exact probability, or the exactly-factored part
	provErr  float64 // Σ µ over the input tuples in this term's provenance
	singular bool
}

func (cv *confValue) estimate() float64 {
	if cv.job == nil {
		return cv.value
	}
	p := cv.job.est.Estimate()
	if cv.job.flat() {
		// The flat FPRAS estimate X·M/m, unclamped as the paper states it.
		return p
	}
	r := math.Min(1, math.Max(0, p))
	return cv.value + (1-cv.value)*r
}

// delta returns the per-value error bound δᵢ(ε) after the run's trials:
// the Chernoff bound for flat jobs, the empirical-Bernstein one for
// stratified jobs. The residue's relative-error bound carries to the
// combined value unchanged (factor.go), so no adjustment is needed.
func (cv *confValue) delta(eps float64) float64 {
	if cv.job == nil {
		return 0
	}
	est := cv.job.est
	if cv.job.flat() {
		return karpluby.DeltaBound(eps, est.Trials(), est.ClauseCount())
	}
	return est.Delta(eps)
}

// bounds returns a 1−delta confidence interval for the combined value,
// used by threshold/top-k early stopping (which implies stratified jobs).
func (cv *confValue) bounds(delta float64) (lo, hi float64) {
	if cv.job == nil {
		return cv.value, cv.value
	}
	lo, hi = cv.job.est.Bounds(delta)
	e := cv.value
	return e + (1-e)*lo, e + (1-e)*hi
}

// ApproxSelect implements σ̂ under approximation (Definition 6.2): for
// every joined combination of the conf arguments' possible tuples, the
// clause sets are estimated for `rounds` Karp–Luby rounds, the predicate
// is decided on the estimates with ε = max(ε₀, ε_ψ(p̂)), and the
// membership error of an emitted tuple is bounded per Lemma 6.4(2) by
// Σᵢ δᵢ(ε) plus the provenance error of the conf inputs.
func (run *evalRun) ApproxSelect(x *urel.Exec, _ *urel.Database, in algebra.URelResult, n algebra.ApproxSelect) (algebra.URelResult, error) {
	roundBudget := func(clauses int) int64 { return run.rounds * int64(clauses) }
	var jobs []*stratJob
	// One batch spans every argument: content-equal lineages across (and
	// within) arguments share a single estimation job. With Strata set,
	// the jobs are stratified (factoring pre-pass + Neyman allocation of
	// the same per-pass trial budget); otherwise they are flat.
	run.batch = make(map[contentKey]*stratJob)
	// Build each argument's projected lineage with provenance errors.
	argTuples := make([][]argTuple, len(n.Args))
	argSchemas := make([]rel.Schema, len(n.Args))
	for i, a := range n.Args {
		for _, attr := range a.Attrs {
			if !in.Rel.Schema().Has(attr) {
				return algebra.URelResult{}, fmt.Errorf("core: σ̂ conf attribute %q not in schema %v", attr, in.Rel.Schema())
			}
		}
		targets := keepTargets(a.Attrs)
		proj := x.Project(in.Rel, targets)
		// Provenance error of each projected tuple: the projection's
		// fan-in sum over distinct input data tuples.
		var provErr provenance.ErrMap
		var provSing map[string]bool
		if in.Annotated() {
			provErr, provSing = algebra.ProjectAnnotations(in, targets)
		}
		var tuples []argTuple
		for tc := range x.LineageSeq(proj) {
			// The balanced refinement scheme of the end of Section 5:
			// run.rounds rounds of |F| trials each. NoSingletonShortcut
			// forces even single-clause lineages through the estimator
			// (ablation knob).
			cv, job, err := run.newStratJob(tc.F, roundBudget,
				!run.engine.opts.NoSingletonShortcut, run.engine.opts.Strata)
			if err != nil {
				return algebra.URelResult{}, err
			}
			if job != nil {
				jobs = append(jobs, job)
			}
			if provErr != nil {
				k := tc.Row.Key()
				cv.provErr = provErr.Get(k)
				cv.singular = provSing[k]
			}
			tuples = append(tuples, argTuple{row: tc.Row, cv: cv, attr: proj.Schema()})
		}
		argTuples[i] = tuples
		argSchemas[i] = proj.Schema()
	}
	// Spend every argument tuple's trial budget in one batch: the
	// scheduler sees all (tuple, chunk) tasks at once and keeps every
	// worker busy across argument boundaries.
	if err := run.runStratEstimates(jobs, stratTarget{}); err != nil {
		return algebra.URelResult{}, err
	}

	// Output schema: union of argument attributes in order of first
	// appearance, then P1..Pk.
	var outAttrs []string
	seenAttr := map[string]bool{}
	for _, s := range argSchemas {
		for _, a := range s {
			if !seenAttr[a] {
				seenAttr[a] = true
				outAttrs = append(outAttrs, a)
			}
		}
	}
	outSchema := make(rel.Schema, 0, len(outAttrs)+len(n.Args))
	outSchema = append(outSchema, outAttrs...)
	for i := range n.Args {
		outSchema = append(outSchema, algebra.PColName(i))
	}
	out := urel.NewRelation(rel.NewSchema(outSchema...))
	errs := provenance.Reliable()
	sing := map[string]bool{}

	// Enumerate natural-join combinations of the argument tuples.
	combo := make([]argTuple, len(n.Args))
	var emit func(i int, bound map[string]rel.Value)
	emit = func(i int, bound map[string]rel.Value) {
		if i == len(n.Args) {
			run.decideCombo(n, combo, outAttrs, bound, out, errs, sing)
			return
		}
		for _, at := range argTuples[i] {
			merged, ok := mergeBindings(bound, at.attr, at.row)
			if !ok {
				continue
			}
			combo[i] = at
			emit(i+1, merged)
		}
	}
	emit(0, map[string]rel.Value{})
	return algebra.URelResult{Rel: out, Complete: true, Errs: errs, Singular: sing}, nil
}

// argTuple is one possible tuple of a σ̂ conf argument together with its
// (approximable) confidence value.
type argTuple struct {
	row  rel.Tuple
	cv   *confValue
	attr rel.Schema
}

// keepTargets builds identity projection targets for the named attributes.
func keepTargets(attrs []string) []expr.Target {
	out := make([]expr.Target, len(attrs))
	for i, a := range attrs {
		out[i] = expr.Keep(a)
	}
	return out
}

// mergeBindings extends the attribute bindings with a tuple's values,
// failing when a shared attribute disagrees (natural-join semantics).
func mergeBindings(bound map[string]rel.Value, schema rel.Schema, row rel.Tuple) (map[string]rel.Value, bool) {
	merged := make(map[string]rel.Value, len(bound)+len(schema))
	for k, v := range bound {
		merged[k] = v
	}
	for i, a := range schema {
		if prev, ok := merged[a]; ok {
			if !rel.Equal(prev, row[i]) {
				return nil, false
			}
			continue
		}
		merged[a] = row[i]
	}
	return merged, true
}

// decideCombo decides the σ̂ predicate for one joined combination and
// emits the tuple when the decision is positive, recording its error
// bound: Σᵢ δᵢ(max(ε_φ, ε₀)) + Σᵢ provenance errors (Lemma 6.4(2)).
func (run *evalRun) decideCombo(n algebra.ApproxSelect, combo []argTuple, outAttrs []string, bound map[string]rel.Value, out *urel.Relation, errs provenance.ErrMap, sing map[string]bool) {
	run.decisions++
	k := len(combo)
	est := make([]float64, k)
	for i, at := range combo {
		est[i] = at.cv.estimate()
	}
	margin := n.Pred.Margin(est)
	eps := math.Max(run.engine.opts.Eps0, margin)
	decisionErr, provErr := 0.0, 0.0
	indep := 1.0
	singular := margin < run.engine.opts.Eps0
	for _, at := range combo {
		d := at.cv.delta(eps)
		decisionErr += d
		indep *= 1 - math.Min(1, d)
		provErr += at.cv.provErr
		if at.cv.singular {
			singular = true
		}
	}
	if run.engine.opts.IndependentBounds {
		// Lemma 5.1's sharper combination for independent estimators.
		decisionErr = 1 - indep
	}
	tupleBound := decisionErr + provErr
	if !singular && tupleBound > run.worstDecision {
		run.worstDecision = tupleBound
	}
	if !n.Pred.Eval(est) {
		if singular {
			run.singularDrops++
		}
		return
	}
	row := make(rel.Tuple, 0, len(outAttrs)+k)
	for _, a := range outAttrs {
		row = append(row, bound[a])
	}
	for i := range combo {
		row = append(row, rel.Float(est[i]))
	}
	out.Add(nil, row)
	if tupleBound > 0 || singular {
		key := row.Key()
		if tupleBound > 0 {
			errs.Set(key, tupleBound)
		}
		if singular {
			sing[key] = true
		}
	}
}
