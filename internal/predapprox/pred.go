// Package predapprox implements Section 5 of the paper: deciding
// predicates over approximable values with bounded error probability.
//
// A predicate φ(x₁,…,x_k) is a Boolean combination of atomic conditions
// over k approximable slots. Two atom families are supported, matching the
// paper's two main results:
//
//   - linear inequalities Σ aᵢ·xᵢ ≥ b, whose maximal homogeneous orthotope
//     radius ε has a closed form (Theorem 5.2);
//   - general algebraic inequalities f(x₁,…,x_k) ≥ 0 built from +,−,·,/
//     with every slot occurring at most once, for which corner-point
//     agreement implies orthotope homogeneity (Theorem 5.5) and ε is
//     maximized by binary search.
//
// The central quantity is the margin ε of a point p̂: the largest ε such
// that all points of the orthotope
//
//	[p̂₁/(1+ε), p̂₁/(1−ε)] × … × [p̂_k/(1+ε), p̂_k/(1−ε)]
//
// agree with p̂ on φ. Lemma 5.1 then bounds the probability of deciding φ
// incorrectly by Σᵢ δᵢ(ε) (or 1−Π(1−δᵢ(ε)) under independence).
//
// A note on Theorem 5.2's closed form: the paper prescribes the larger
// root of the quadratic b·ε² − β·ε + (α−b) = 0. The worst corner value
// W(ε) = Σ aᵢp̂ᵢ/(1+sgn(aᵢp̂ᵢ)ε) is strictly decreasing on [0,1), so the
// genuine touching point is the unique root of W(ε) = b in [0,1): for
// b < 0 that is indeed the larger root, but for b > 0 it is the smaller
// one (the larger root is an artifact of multiplying by (1−ε), which
// vanishes at ε = 1). We select the root lying in [0,1) and validate the
// choice against brute-force orthotope scans (experiment E6).
package predapprox

import (
	"fmt"
	"math"
	"strings"
)

// EpsMax is the supremum of admissible ε values: Lemma 5.1 requires
// −1 < ε < 1, and Remark 5.3 instructs choosing a value close to but
// smaller than 1 when the formulas yield ε ≥ 1.
const EpsMax = 1 - 1e-9

// Pred is a predicate over k approximable slots.
type Pred interface {
	// Eval decides the predicate at point x.
	Eval(x []float64) bool
	// Margin returns the largest ε ∈ [0, EpsMax] such that the closed
	// orthotope [xᵢ/(1+ε), xᵢ/(1−ε)] is homogeneous with respect to the
	// predicate's value at x. A zero margin means x is (numerically) on a
	// decision boundary.
	Margin(x []float64) float64
	// Arity returns the number of slots the predicate is defined over.
	Arity() int
	String() string
}

// LinAtom is the linear inequality Σ Coef[i]·x_i ≥ B (or > B when Strict).
type LinAtom struct {
	Coef   []float64
	B      float64
	Strict bool
}

// Linear builds Σ coef·x ≥ b.
func Linear(coef []float64, b float64) LinAtom { return LinAtom{Coef: coef, B: b} }

// Eval decides the inequality.
func (a LinAtom) Eval(x []float64) bool {
	s := 0.0
	for i, c := range a.Coef {
		s += c * x[i]
	}
	if a.Strict {
		return s > a.B
	}
	return s >= a.B
}

// Arity returns the number of slots.
func (a LinAtom) Arity() int { return len(a.Coef) }

func (a LinAtom) String() string {
	parts := make([]string, 0, len(a.Coef))
	for i, c := range a.Coef {
		if c == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%g*x%d", c, i))
	}
	if len(parts) == 0 {
		parts = append(parts, "0")
	}
	op := ">="
	if a.Strict {
		op = ">"
	}
	return fmt.Sprintf("%s %s %g", strings.Join(parts, " + "), op, a.B)
}

// negated returns the complementary atom: ¬(Σa·x ≥ b) = Σ(−a)·x > −b.
func (a LinAtom) negated() LinAtom {
	neg := make([]float64, len(a.Coef))
	for i, c := range a.Coef {
		neg[i] = -c
	}
	return LinAtom{Coef: neg, B: -a.B, Strict: !a.Strict}
}

// Margin implements the closed form of Theorem 5.2 (with the root
// selection discussed in the package comment). For a point where the atom
// is false, the margin of the complementary atom is computed instead, as
// the algorithm of Figure 3 does via its φ/¬φ switch.
func (a LinAtom) Margin(x []float64) float64 {
	atom := a
	if !a.Eval(x) {
		atom = a.negated()
	}
	return atom.satisfiedMargin(x)
}

// satisfiedMargin computes the Theorem 5.2 ε for a point satisfying the
// atom (in the ≥ reading; strictness does not change the geometry).
func (a LinAtom) satisfiedMargin(x []float64) float64 {
	// A = Σ positive aᵢxᵢ terms, C = Σ negative terms; α = A+C, β = A−C.
	A, C := 0.0, 0.0
	for i, c := range a.Coef {
		t := c * x[i]
		if t > 0 {
			A += t
		} else {
			C += t
		}
	}
	alpha, beta := A+C, A-C
	b := a.B
	if alpha < b {
		// Boundary case with Strict: x satisfies > B only when alpha > b,
		// so alpha < b cannot happen for a satisfied atom; alpha == b is
		// handled below. Defensive zero.
		return 0
	}
	if alpha == b {
		return 0 // on the hyperplane (Remark 5.3)
	}
	if beta == 0 {
		// Σ aᵢxᵢ is identically zero over the orthotope: constant truth.
		return EpsMax
	}
	if b == 0 {
		return clampEps(alpha / beta)
	}
	// The discriminant β² − 4b(α−b) equals −4·A·C + (α−2b)² (paper:
	// β² − α² + (α−2b)²), a sum of two non-negative terms; evaluating it
	// in that form avoids the cancellation of the textbook expression.
	disc := -4*A*C + (alpha-2*b)*(alpha-2*b)
	// Roots of b·ε² − β·ε + (α−b) = 0. The worst-corner value W(ε) is
	// strictly decreasing on [0,1) with W(0) = α ≥ b, so the genuine
	// touching point is the smallest root inside (0,1); roots outside
	// mean the orthotope never reaches the hyperplane (margin EpsMax).
	// β > 0 here, so q = (β+√disc)/2 > 0 and the stable root pair
	// (α−b)/q, q/b avoids subtracting nearly equal β and √disc — the
	// cancellation that turned points on the hyperplane into EpsMax.
	q := (beta + math.Sqrt(disc)) / 2
	r1 := (alpha - b) / q
	r2 := q / b
	eps := math.Inf(1)
	for _, r := range []float64{r1, r2} {
		if r > 0 && r < 1 && r < eps {
			eps = r
		}
	}
	if math.IsInf(eps, 1) {
		return EpsMax
	}
	return clampEps(eps)
}

func clampEps(e float64) float64 {
	if e < 0 {
		return 0
	}
	if e > EpsMax {
		return EpsMax
	}
	return e
}

// And is a conjunction.
type And struct{ Kids []Pred }

// Or is a disjunction.
type Or struct{ Kids []Pred }

// Not is a negation.
type Not struct{ Kid Pred }

// Eval decides the conjunction.
func (a And) Eval(x []float64) bool {
	for _, k := range a.Kids {
		if !k.Eval(x) {
			return false
		}
	}
	return true
}

// Eval decides the disjunction.
func (o Or) Eval(x []float64) bool {
	for _, k := range o.Kids {
		if k.Eval(x) {
			return true
		}
	}
	return false
}

// Eval decides the negation.
func (n Not) Eval(x []float64) bool { return !n.Kid.Eval(x) }

// Arity returns the max arity of the children.
func (a And) Arity() int { return maxArity(a.Kids) }

// Arity returns the max arity of the children.
func (o Or) Arity() int { return maxArity(o.Kids) }

// Arity returns the child's arity.
func (n Not) Arity() int { return n.Kid.Arity() }

func maxArity(kids []Pred) int {
	m := 0
	for _, k := range kids {
		if a := k.Arity(); a > m {
			m = a
		}
	}
	return m
}

func (a And) String() string { return joinKids(a.Kids, " ∧ ") }
func (o Or) String() string  { return joinKids(o.Kids, " ∨ ") }
func (n Not) String() string { return "¬(" + n.Kid.String() + ")" }

func joinKids(kids []Pred, sep string) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		parts[i] = "(" + k.String() + ")"
	}
	return strings.Join(parts, sep)
}

// Margin of a conjunction: if all children are true, the orthotope must
// keep every child true (min over children, the paper's ε_{φ∧ψ} rule); if
// some child is false, keeping any single false child false keeps the
// conjunction false (max over false children).
func (a And) Margin(x []float64) float64 {
	allTrue := true
	for _, k := range a.Kids {
		if !k.Eval(x) {
			allTrue = false
			break
		}
	}
	if allTrue {
		m := EpsMax
		for _, k := range a.Kids {
			if km := k.Margin(x); km < m {
				m = km
			}
		}
		return m
	}
	m := 0.0
	for _, k := range a.Kids {
		if !k.Eval(x) {
			if km := k.Margin(x); km > m {
				m = km
			}
		}
	}
	return m
}

// Margin of a disjunction: dual to And (the paper's ε_{φ∨ψ} = max rule
// applies when some disjunct is true; when all are false every disjunct
// must stay false, hence min).
func (o Or) Margin(x []float64) float64 {
	anyTrue := false
	for _, k := range o.Kids {
		if k.Eval(x) {
			anyTrue = true
			break
		}
	}
	if anyTrue {
		m := 0.0
		for _, k := range o.Kids {
			if k.Eval(x) {
				if km := k.Margin(x); km > m {
					m = km
				}
			}
		}
		return m
	}
	m := EpsMax
	for _, k := range o.Kids {
		if km := k.Margin(x); km < m {
			m = km
		}
	}
	return m
}

// Margin of a negation equals the child's margin: the homogeneous
// orthotope is the same set.
func (n Not) Margin(x []float64) float64 { return n.Kid.Margin(x) }

// AndOf builds a conjunction.
func AndOf(kids ...Pred) Pred { return And{Kids: kids} }

// OrOf builds a disjunction.
func OrOf(kids ...Pred) Pred { return Or{Kids: kids} }

// NotOf builds a negation.
func NotOf(kid Pred) Pred { return Not{Kid: kid} }

// BruteForceMargin estimates the true homogeneity radius by scanning a
// dense grid of orthotope boundary points for disagreement with the
// center; it is the test oracle for Margin implementations (experiments
// E6/E7). It returns a value within `step` of the true margin for
// predicates whose decision boundary is not pathologically thin.
func BruteForceMargin(p Pred, x []float64, step float64, grid int) float64 {
	want := p.Eval(x)
	lo, hi := 0.0, 0.0
	for e := step; e < EpsMax; e += step {
		if orthotopeHomogeneous(p, x, e, grid, want) {
			hi = e
		} else {
			break
		}
		lo = hi
	}
	return lo
}

// OrthotopeHomogeneous samples a grid over the orthotope of radius eps
// around x and reports whether every sampled point agrees with the
// predicate's value at x. It is the validation oracle used by experiments
// E6/E7 to check that computed margins certify genuinely homogeneous
// orthotopes.
func OrthotopeHomogeneous(p Pred, x []float64, eps float64, grid int) bool {
	return orthotopeHomogeneous(p, x, eps, grid, p.Eval(x))
}

// orthotopeHomogeneous samples a grid over the orthotope of radius eps and
// reports whether all sampled points agree with want.
func orthotopeHomogeneous(p Pred, x []float64, eps float64, grid int, want bool) bool {
	k := len(x)
	pt := make([]float64, k)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == k {
			return p.Eval(pt) == want
		}
		lo := x[i] / (1 + eps)
		hi := x[i] / (1 - eps)
		if lo > hi {
			lo, hi = hi, lo
		}
		for g := 0; g <= grid; g++ {
			pt[i] = lo + (hi-lo)*float64(g)/float64(grid)
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	return rec(0)
}
