package algebra

import (
	"repro/internal/expr"
	"repro/internal/provenance"
	"repro/internal/rel"
	"repro/internal/urel"
)

// Membership-error propagation (Lemma 6.4) for annotated results. The
// rules follow the provenance relation ≺ case by case; each runs only when
// an input carries annotations, so exact evaluation never builds tuple
// keys for them.

// Annotated reports whether r carries any error bound or singularity mark.
func (r URelResult) Annotated() bool { return len(r.Errs) > 0 || len(r.Singular) > 0 }

// perTuple annotates each tuple of out by its data key: bound(k) is its
// error bound and singular(k) its singularity mark.
func perTuple(out *urel.Relation, bound func(k string) float64, singular func(k string) bool) (provenance.ErrMap, map[string]bool) {
	errs, sing := provenance.Reliable(), map[string]bool{}
	for _, ut := range out.Tuples() {
		k := ut.Row.Key()
		if v := bound(k); v > 0 {
			errs.Set(k, v)
		}
		if singular(k) {
			sing[k] = true
		}
	}
	return errs, sing
}

// ProjectAnnotations implements (t.Ā, π_Ā(R)) ≺ (t, R): each output tuple
// accumulates the bounds of every input tuple projecting onto it
// (Example 6.5's fan-in sum), and is singular when any of them is. Several
// (D, row) pairs of the input can share one data tuple; the sum runs over
// distinct input data tuples.
func ProjectAnnotations(in URelResult, targets []expr.Target) (provenance.ErrMap, map[string]bool) {
	errs, sing := provenance.Reliable(), map[string]bool{}
	seen := map[string]map[string]bool{}
	schema := in.Rel.Schema()
	for _, ut := range in.Rel.Tuples() {
		inKey := ut.Row.Key()
		env := expr.Env{Schema: schema, Tuple: ut.Row}
		outRow := make(rel.Tuple, len(targets))
		for i, tg := range targets {
			outRow[i] = tg.Expr.Eval(env)
		}
		outKey := outRow.Key()
		if seen[outKey] == nil {
			seen[outKey] = map[string]bool{}
		}
		if seen[outKey][inKey] {
			continue
		}
		seen[outKey][inKey] = true
		if v := in.Errs.Get(inKey); v > 0 {
			errs.Add(outKey, v)
		}
		if in.Singular[inKey] {
			sing[outKey] = true
		}
	}
	return errs, sing
}

// pairAnnotations implements the × cases, µ(⟨r,s⟩) = µ(r) + µ(s), for a
// product or join result; split recovers an output row's two factors.
func pairAnnotations(out *urel.Relation, l, r URelResult, split func(rel.Tuple) (rel.Tuple, rel.Tuple)) (provenance.ErrMap, map[string]bool) {
	errs, sing := provenance.Reliable(), map[string]bool{}
	for _, ut := range out.Tuples() {
		lrow, rrow := split(ut.Row)
		lk, rk := lrow.Key(), rrow.Key()
		k := ut.Row.Key()
		if v := l.Errs.Get(lk) + r.Errs.Get(rk); v > 0 {
			errs.Set(k, v)
		}
		if l.Singular[lk] || r.Singular[rk] {
			sing[k] = true
		}
	}
	return errs, sing
}
