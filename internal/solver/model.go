package solver

import "fmt"

// Var is an integer decision variable with a finite domain. The constraint
// solver assigns it a value from its domain; in Cologne these are the solver
// attributes declared through the Colog var keyword (e.g. the V indicator in
// assign(Vid,Hid,V)).
type Var struct {
	ID   int
	Name string
	Dom  Domain
	expr *Expr // the OpVar node for this variable
}

func (v *Var) String() string { return fmt.Sprintf("%s%s", v.Name, v.Dom) }

// Model holds decision variables, posted constraints, and an optional
// objective. A Model is built once per COP invocation and solved by Solve.
// It is not safe for concurrent use.
type Model struct {
	vars        []*Var
	constraints []*Expr
	objective   *Expr
	sense       Sense
	nodes       int // next expression ID

	// rev counts structural mutations (constraint posts or replacements,
	// variable and objective changes); prepared metadata built at an older
	// rev is stale.
	rev int64
	// patched lists constant nodes whose value was changed in place by
	// PatchConst since the last prepare; the cached linear shapes covering
	// them are refreshed lazily.
	patched []int32

	// prep caches the propagation engine's search metadata (expression DAG
	// indexes, propagator shapes); it is rebuilt lazily when constraints or
	// nodes were added since it was built. See Model.Prepare.
	prep *prepared
}

// NewModel creates an empty model in satisfy mode.
func NewModel() *Model { return &Model{sense: Satisfy} }

// NumVars returns the number of decision variables.
func (m *Model) NumVars() int { return len(m.vars) }

// NumConstraints returns the number of posted constraints.
func (m *Model) NumConstraints() int { return len(m.constraints) }

// NumExprNodes returns the number of expression DAG nodes created so far.
func (m *Model) NumExprNodes() int { return m.nodes }

// Vars returns the model's variables in creation order. The slice must not
// be mutated.
func (m *Model) Vars() []*Var { return m.vars }

// Constraints returns the posted constraints. The slice must not be mutated.
func (m *Model) Constraints() []*Expr { return m.constraints }

// Objective returns the objective expression and sense (nil for satisfy).
func (m *Model) Objective() (*Expr, Sense) { return m.objective, m.sense }

// IntVar creates a decision variable with the contiguous domain [lo,hi].
func (m *Model) IntVar(name string, lo, hi int64) *Var {
	return m.VarWithDomain(name, NewRangeDomain(lo, hi))
}

// BoolVar creates a 0/1 decision variable.
func (m *Model) BoolVar(name string) *Var {
	return m.VarWithDomain(name, BinaryDomain())
}

// VarWithDomain creates a decision variable with an explicit domain.
func (m *Model) VarWithDomain(name string, dom Domain) *Var {
	if dom.Empty() {
		panic(fmt.Sprintf("solver: variable %q created with empty domain", name))
	}
	v := &Var{ID: len(m.vars), Name: name, Dom: dom}
	v.expr = m.newExpr(OpVar, 0, v)
	m.vars = append(m.vars, v)
	m.rev++
	return v
}

func (m *Model) newExpr(op Op, k float64, v *Var, args ...*Expr) *Expr {
	id := m.nodes
	m.nodes++
	return &Expr{ID: id, Op: op, K: k, Var: v, Args: args, model: m}
}

// Const creates a numeric literal node.
func (m *Model) Const(v float64) *Expr { return m.newExpr(OpConst, v, nil) }

// ConstInt creates a numeric literal node from an integer.
func (m *Model) ConstInt(v int64) *Expr { return m.Const(float64(v)) }

// Bool creates a boolean literal (encoded as the comparison 1==1 or 1==0 so
// the node keeps boolean static type).
func (m *Model) Bool(b bool) *Expr {
	one := m.Const(1)
	if b {
		return m.newExpr(OpEq, 0, nil, one, one)
	}
	return m.newExpr(OpEq, 0, nil, one, m.Const(0))
}

// VarExpr returns the expression node referencing v.
func (m *Model) VarExpr(v *Var) *Expr { return v.expr }

func (m *Model) checkNumeric(ctx string, args ...*Expr) {
	for _, a := range args {
		if a.IsBool() {
			panic(&ErrTypeMismatch{Want: "numeric", Got: "bool", Context: ctx})
		}
	}
}

func (m *Model) checkBool(ctx string, args ...*Expr) {
	for _, a := range args {
		if !a.IsBool() {
			panic(&ErrTypeMismatch{Want: "bool", Got: "numeric", Context: ctx})
		}
	}
}

// Add returns a+b, folding constants.
func (m *Model) Add(a, b *Expr) *Expr {
	m.checkNumeric("+", a, b)
	if a.IsConst() && b.IsConst() {
		return m.Const(a.K + b.K)
	}
	return m.newExpr(OpAdd, 0, nil, a, b)
}

// Sub returns a-b, folding constants.
func (m *Model) Sub(a, b *Expr) *Expr {
	m.checkNumeric("-", a, b)
	if a.IsConst() && b.IsConst() {
		return m.Const(a.K - b.K)
	}
	return m.newExpr(OpSub, 0, nil, a, b)
}

// Mul returns a*b, folding constants and the multiplicative identities.
func (m *Model) Mul(a, b *Expr) *Expr {
	m.checkNumeric("*", a, b)
	switch {
	case a.IsConst() && b.IsConst():
		return m.Const(a.K * b.K)
	case a.IsConst() && a.K == 1:
		return b
	case b.IsConst() && b.K == 1:
		return a
	case a.IsConst() && a.K == 0, b.IsConst() && b.K == 0:
		return m.Const(0)
	}
	return m.newExpr(OpMul, 0, nil, a, b)
}

// MulKeep returns a*b without any folding. The grounder uses it so that a
// constant grounded from a table cell stays a node in the DAG even when its
// current value is a multiplicative identity: a later PatchConst must be
// able to rewrite it in place, and a fold would silently detach it (the
// propagation engines price Mul-by-constant identically either way).
func (m *Model) MulKeep(a, b *Expr) *Expr {
	m.checkNumeric("*", a, b)
	return m.newExpr(OpMul, 0, nil, a, b)
}

// Div returns a/b (real division), folding constants.
func (m *Model) Div(a, b *Expr) *Expr {
	m.checkNumeric("/", a, b)
	if a.IsConst() && b.IsConst() && b.K != 0 {
		return m.Const(a.K / b.K)
	}
	return m.newExpr(OpDiv, 0, nil, a, b)
}

// Neg returns -a.
func (m *Model) Neg(a *Expr) *Expr {
	m.checkNumeric("neg", a)
	if a.IsConst() {
		return m.Const(-a.K)
	}
	return m.newExpr(OpNeg, 0, nil, a)
}

// Abs returns |a|.
func (m *Model) Abs(a *Expr) *Expr {
	m.checkNumeric("abs", a)
	if a.IsConst() {
		if a.K < 0 {
			return m.Const(-a.K)
		}
		return a
	}
	return m.newExpr(OpAbs, 0, nil, a)
}

// Sum returns the n-ary sum of args (0 for an empty list).
func (m *Model) Sum(args ...*Expr) *Expr {
	m.checkNumeric("sum", args...)
	if len(args) == 0 {
		return m.Const(0)
	}
	if len(args) == 1 {
		return args[0]
	}
	return m.newExpr(OpSum, 0, nil, args...)
}

// SumAbs returns the sum of absolute values of args (the SUMABS aggregate
// used by the Follow-the-Sun migration cost rule d7).
func (m *Model) SumAbs(args ...*Expr) *Expr {
	m.checkNumeric("sumabs", args...)
	if len(args) == 0 {
		return m.Const(0)
	}
	return m.newExpr(OpSumAbs, 0, nil, args...)
}

// Avg returns the arithmetic mean of args.
func (m *Model) Avg(args ...*Expr) *Expr {
	m.checkNumeric("avg", args...)
	if len(args) == 0 {
		return m.Const(0)
	}
	return m.newExpr(OpAvg, 0, nil, args...)
}

// Min returns the n-ary minimum.
func (m *Model) Min(args ...*Expr) *Expr {
	m.checkNumeric("min", args...)
	if len(args) == 1 {
		return args[0]
	}
	return m.newExpr(OpMin, 0, nil, args...)
}

// Max returns the n-ary maximum.
func (m *Model) Max(args ...*Expr) *Expr {
	m.checkNumeric("max", args...)
	if len(args) == 1 {
		return args[0]
	}
	return m.newExpr(OpMax, 0, nil, args...)
}

// StdDev returns the population standard deviation of args (the STDEV
// aggregate driving the ACloud load-balancing objective).
func (m *Model) StdDev(args ...*Expr) *Expr {
	m.checkNumeric("stdev", args...)
	if len(args) == 0 {
		return m.Const(0)
	}
	return m.newExpr(OpStdDev, 0, nil, args...)
}

// CountDistinct returns the number of distinct values among args (the UNIQUE
// aggregate bounding assigned channels per radio interface).
func (m *Model) CountDistinct(args ...*Expr) *Expr {
	m.checkNumeric("unique", args...)
	if len(args) == 0 {
		return m.Const(0)
	}
	return m.newExpr(OpCountDistinct, 0, nil, args...)
}

func (m *Model) cmp(op Op, a, b *Expr) *Expr {
	// Comparing two booleans is equivalence/xor; route to the reified ops so
	// the Colog idiom (V==1)==(C==1) type-checks naturally.
	if a.IsBool() && b.IsBool() {
		switch op {
		case OpEq:
			return m.newExpr(OpBoolEq, 0, nil, a, b)
		case OpNe:
			return m.newExpr(OpXor, 0, nil, a, b)
		}
	}
	m.checkNumeric(op.String(), a, b)
	return m.newExpr(op, 0, nil, a, b)
}

// Eq returns a==b. On two booleans it builds logical equivalence.
func (m *Model) Eq(a, b *Expr) *Expr { return m.cmp(OpEq, a, b) }

// Ne returns a!=b. On two booleans it builds exclusive-or.
func (m *Model) Ne(a, b *Expr) *Expr { return m.cmp(OpNe, a, b) }

// Lt returns a<b.
func (m *Model) Lt(a, b *Expr) *Expr { return m.cmp(OpLt, a, b) }

// Le returns a<=b.
func (m *Model) Le(a, b *Expr) *Expr { return m.cmp(OpLe, a, b) }

// Gt returns a>b.
func (m *Model) Gt(a, b *Expr) *Expr { return m.cmp(OpGt, a, b) }

// Ge returns a>=b.
func (m *Model) Ge(a, b *Expr) *Expr { return m.cmp(OpGe, a, b) }

// And returns a&&b.
func (m *Model) And(a, b *Expr) *Expr {
	m.checkBool("&&", a, b)
	return m.newExpr(OpAnd, 0, nil, a, b)
}

// Or returns a||b.
func (m *Model) Or(a, b *Expr) *Expr {
	m.checkBool("||", a, b)
	return m.newExpr(OpOr, 0, nil, a, b)
}

// Not returns !a.
func (m *Model) Not(a *Expr) *Expr {
	m.checkBool("!", a)
	return m.newExpr(OpNot, 0, nil, a)
}

// ITE returns if cond then a else b.
func (m *Model) ITE(cond, a, b *Expr) *Expr {
	m.checkBool("ite", cond)
	m.checkNumeric("ite", a, b)
	return m.newExpr(OpITE, 0, nil, cond, a, b)
}

// Require posts a constraint: e must be true in every solution.
func (m *Model) Require(e *Expr) {
	m.checkBool("require", e)
	m.constraints = append(m.constraints, e)
	m.rev++
}

// SetConstraints replaces the posted constraint list wholesale. The
// incremental grounder reassembles the list in canonical rule order after
// patching the grounding cache; when the new list is element-wise identical
// to the current one the call is a no-op, preserving the cached search
// metadata.
func (m *Model) SetConstraints(cs []*Expr) {
	if len(cs) == len(m.constraints) {
		same := true
		for i, c := range cs {
			if m.constraints[i] != c {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	for _, c := range cs {
		m.checkBool("require", c)
	}
	m.constraints = cs
	m.rev++
}

// PatchConst changes the value of a constant node in place. This is the
// solver half of incremental re-grounding: when only a ground table cell
// changed between solves, the grounder rewrites the one constant it grounded
// into instead of rebuilding the expression DAG. The cached linear-propagator
// shapes covering the constant are refreshed on the next Prepare/Solve.
func (m *Model) PatchConst(e *Expr, v float64) {
	if e.Op != OpConst {
		panic("solver: PatchConst on a non-constant node")
	}
	if e.K == v {
		return
	}
	e.K = v
	m.patched = append(m.patched, int32(e.ID))
}

// Minimize sets the objective to minimize e.
func (m *Model) Minimize(e *Expr) {
	m.checkNumeric("minimize", e)
	if m.objective != e || m.sense != Minimize {
		m.objective, m.sense = e, Minimize
		m.rev++
	}
}

// Maximize sets the objective to maximize e.
func (m *Model) Maximize(e *Expr) {
	m.checkNumeric("maximize", e)
	if m.objective != e || m.sense != Maximize {
		m.objective, m.sense = e, Maximize
		m.rev++
	}
}

// SetObjective installs an objective wholesale (nil e with Satisfy clears
// it); a no-op when nothing changes, preserving cached search metadata —
// the incremental grounder re-derives the objective every solve the goal
// predicate churns, and it usually resolves to the same cached expression.
func (m *Model) SetObjective(e *Expr, s Sense) {
	if e != nil {
		m.checkNumeric(s.String(), e)
	}
	if m.objective == e && m.sense == s {
		return
	}
	m.objective, m.sense = e, s
	m.rev++
}

// SetSatisfy clears the objective (pure constraint satisfaction).
func (m *Model) SetSatisfy() {
	if m.objective != nil || m.sense != Satisfy {
		m.objective, m.sense = nil, Satisfy
		m.rev++
	}
}
