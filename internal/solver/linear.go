package solver

import "sort"

// Linear-constraint recognition and bounds propagation. Grounded Colog
// programs are dominated by linear constraints — assignment counts
// (SUM<V> == 1), capacity caps (SUM<R> <= cap), migration bounds — and the
// generic interval check only detects violation after the fact. For
// constraints of the form sum(c_i * x_i) op K the solver extracts the
// coefficients once and, during search, tightens each free variable's
// domain from the residual slack, the same propagation a dedicated linear
// propagator performs in Gecode.

// linTerm is one c*x monomial.
type linTerm struct {
	coef float64
	v    *Var
}

// extractLinear recognizes e as a linear comparison and returns its
// normalized form (sum(c_i x_i) op K). ok is false when e is not linear.
func extractLinear(e *Expr) (terms []linTerm, op Op, K float64, ok bool) {
	switch e.Op {
	case OpLe, OpLt, OpGe, OpGt, OpEq:
	default:
		return nil, 0, 0, false
	}
	lhs, lok := linearize(e.Args[0])
	rhs, rok := linearize(e.Args[1])
	if !lok || !rok {
		return nil, 0, 0, false
	}
	// Move everything left: lhs - rhs op 0.
	sum := map[int]*linTerm{}
	k := lhs.k - rhs.k
	add := func(ts []linTerm, sign float64) {
		for _, t := range ts {
			if cur, in := sum[t.v.ID]; in {
				cur.coef += sign * t.coef
			} else {
				cp := t
				cp.coef *= sign
				sum[t.v.ID] = &cp
			}
		}
	}
	add(lhs.terms, 1)
	add(rhs.terms, -1)
	for _, t := range sum {
		if t.coef != 0 {
			terms = append(terms, *t)
		}
	}
	// Deterministic term order (the accumulator map above is unordered):
	// propagation, and with fractional coefficients the accumulated sums,
	// then follow the same sequence on every run.
	sort.Slice(terms, func(i, j int) bool { return terms[i].v.ID < terms[j].v.ID })
	// Normalize strict ops on integers: x < y  <=>  x <= y-1.
	op = e.Op
	K = -k
	switch e.Op {
	case OpLt:
		op, K = OpLe, K-1
	case OpGt:
		op, K = OpGe, K+1
	}
	return terms, op, K, true
}

type linForm struct {
	terms []linTerm
	k     float64
}

// linearize flattens a numeric expression into sum(c_i x_i) + k, failing on
// any non-linear structure.
func linearize(e *Expr) (linForm, bool) {
	switch e.Op {
	case OpConst:
		return linForm{k: e.K}, true
	case OpVar:
		return linForm{terms: []linTerm{{coef: 1, v: e.Var}}}, true
	case OpNeg:
		f, ok := linearize(e.Args[0])
		if !ok {
			return linForm{}, false
		}
		for i := range f.terms {
			f.terms[i].coef = -f.terms[i].coef
		}
		f.k = -f.k
		return f, true
	case OpAdd, OpSub:
		a, ok := linearize(e.Args[0])
		if !ok {
			return linForm{}, false
		}
		b, ok := linearize(e.Args[1])
		if !ok {
			return linForm{}, false
		}
		sign := 1.0
		if e.Op == OpSub {
			sign = -1
		}
		for _, t := range b.terms {
			t.coef *= sign
			a.terms = append(a.terms, t)
		}
		a.k += sign * b.k
		return a, true
	case OpSum:
		out := linForm{}
		for _, arg := range e.Args {
			f, ok := linearize(arg)
			if !ok {
				return linForm{}, false
			}
			out.terms = append(out.terms, f.terms...)
			out.k += f.k
		}
		return out, true
	case OpMul:
		a, aok := linearize(e.Args[0])
		b, bok := linearize(e.Args[1])
		if !aok || !bok {
			return linForm{}, false
		}
		switch {
		case len(a.terms) == 0: // const * linear
			for i := range b.terms {
				b.terms[i].coef *= a.k
			}
			b.k *= a.k
			return b, true
		case len(b.terms) == 0: // linear * const
			for i := range a.terms {
				a.terms[i].coef *= b.k
			}
			a.k *= b.k
			return a, true
		}
		return linForm{}, false
	}
	return linForm{}, false
}
