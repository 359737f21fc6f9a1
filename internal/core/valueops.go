package core

import (
	"fmt"
	"math"

	"repro/internal/colog"
)

// EvalError reports a runtime expression-evaluation failure.
type EvalError struct {
	Context string
	Msg     string
}

func (e *EvalError) Error() string {
	return fmt.Sprintf("core: eval %s: %s", e.Context, e.Msg)
}

func everrf(ctx, format string, args ...interface{}) *EvalError {
	return &EvalError{Context: ctx, Msg: fmt.Sprintf(format, args...)}
}

// applyBin applies a Colog binary operator to two ground values.
// Arithmetic requires numerics (int op int stays int except division);
// comparisons work on numerics, strings (ordering), and booleans (==/!=);
// logical operators require booleans.
func applyBin(op colog.BinOp, a, b colog.Value) (colog.Value, error) {
	if op.IsLogical() {
		if a.Kind != colog.KindBool || b.Kind != colog.KindBool {
			return colog.Value{}, everrf(op.String(), "logical operator on non-boolean %s, %s", a, b)
		}
		if op == colog.OpAnd {
			return colog.BoolVal(a.B && b.B), nil
		}
		return colog.BoolVal(a.B || b.B), nil
	}
	if op.IsComparison() {
		return compareVals(op, a, b)
	}
	// Arithmetic.
	if !a.IsNumeric() || !b.IsNumeric() {
		return colog.Value{}, everrf(op.String(), "arithmetic on non-numeric %s, %s", a, b)
	}
	if a.Kind == colog.KindInt && b.Kind == colog.KindInt {
		switch op {
		case colog.OpAdd:
			return colog.IntVal(a.I + b.I), nil
		case colog.OpSub:
			return colog.IntVal(a.I - b.I), nil
		case colog.OpMul:
			return colog.IntVal(a.I * b.I), nil
		case colog.OpDiv:
			if b.I == 0 {
				return colog.Value{}, everrf(op.String(), "division by zero")
			}
			if a.I%b.I == 0 {
				return colog.IntVal(a.I / b.I), nil
			}
			return colog.FloatVal(float64(a.I) / float64(b.I)), nil
		}
	}
	x, y := a.Num(), b.Num()
	switch op {
	case colog.OpAdd:
		return colog.FloatVal(x + y), nil
	case colog.OpSub:
		return colog.FloatVal(x - y), nil
	case colog.OpMul:
		return colog.FloatVal(x * y), nil
	case colog.OpDiv:
		if y == 0 {
			return colog.Value{}, everrf(op.String(), "division by zero")
		}
		return colog.FloatVal(x / y), nil
	}
	return colog.Value{}, everrf(op.String(), "unsupported operator")
}

func compareVals(op colog.BinOp, a, b colog.Value) (colog.Value, error) {
	switch {
	case a.IsNumeric() && b.IsNumeric():
		x, y := a.Num(), b.Num()
		switch op {
		case colog.OpEq:
			return colog.BoolVal(x == y), nil
		case colog.OpNe:
			return colog.BoolVal(x != y), nil
		case colog.OpLt:
			return colog.BoolVal(x < y), nil
		case colog.OpLe:
			return colog.BoolVal(x <= y), nil
		case colog.OpGt:
			return colog.BoolVal(x > y), nil
		case colog.OpGe:
			return colog.BoolVal(x >= y), nil
		}
	case a.Kind == colog.KindString && b.Kind == colog.KindString:
		switch op {
		case colog.OpEq:
			return colog.BoolVal(a.S == b.S), nil
		case colog.OpNe:
			return colog.BoolVal(a.S != b.S), nil
		case colog.OpLt:
			return colog.BoolVal(a.S < b.S), nil
		case colog.OpLe:
			return colog.BoolVal(a.S <= b.S), nil
		case colog.OpGt:
			return colog.BoolVal(a.S > b.S), nil
		case colog.OpGe:
			return colog.BoolVal(a.S >= b.S), nil
		}
	case a.Kind == colog.KindBool && b.Kind == colog.KindBool:
		switch op {
		case colog.OpEq:
			return colog.BoolVal(a.B == b.B), nil
		case colog.OpNe:
			return colog.BoolVal(a.B != b.B), nil
		}
	}
	return colog.Value{}, everrf(op.String(), "incomparable values %s, %s", a, b)
}

// applyNeg negates a numeric value.
func applyNeg(a colog.Value) (colog.Value, error) {
	switch a.Kind {
	case colog.KindInt:
		return colog.IntVal(-a.I), nil
	case colog.KindFloat:
		return colog.FloatVal(-a.F), nil
	}
	return colog.Value{}, everrf("-", "negation of non-numeric %s", a)
}

// applyAbs takes the absolute value of a numeric.
func applyAbs(a colog.Value) (colog.Value, error) {
	switch a.Kind {
	case colog.KindInt:
		if a.I < 0 {
			return colog.IntVal(-a.I), nil
		}
		return a, nil
	case colog.KindFloat:
		return colog.FloatVal(math.Abs(a.F)), nil
	}
	return colog.Value{}, everrf("abs", "absolute value of non-numeric %s", a)
}

// applyNot negates a boolean.
func applyNot(a colog.Value) (colog.Value, error) {
	if a.Kind != colog.KindBool {
		return colog.Value{}, everrf("!", "negation of non-boolean %s", a)
	}
	return colog.BoolVal(!a.B), nil
}

// applyFunc evaluates a built-in function call (names conventionally
// prefixed f_ in Colog).
func applyFunc(name string, args []colog.Value) (colog.Value, error) {
	switch name {
	case "f_max", "f_min":
		if len(args) == 0 {
			return colog.Value{}, everrf(name, "no arguments")
		}
		best := args[0]
		for _, a := range args[1:] {
			if !a.IsNumeric() || !best.IsNumeric() {
				return colog.Value{}, everrf(name, "non-numeric argument")
			}
			if (name == "f_max" && a.Num() > best.Num()) || (name == "f_min" && a.Num() < best.Num()) {
				best = a
			}
		}
		return best, nil
	case "f_abs":
		if len(args) != 1 {
			return colog.Value{}, everrf(name, "want 1 argument, got %d", len(args))
		}
		return applyAbs(args[0])
	case "f_sqrt":
		if len(args) != 1 || !args[0].IsNumeric() {
			return colog.Value{}, everrf(name, "want 1 numeric argument")
		}
		return colog.FloatVal(math.Sqrt(args[0].Num())), nil
	case "f_concat":
		s := ""
		for _, a := range args {
			if a.Kind != colog.KindString {
				return colog.Value{}, everrf(name, "non-string argument %s", a)
			}
			s += a.S
		}
		return colog.StringVal(s), nil
	}
	return colog.Value{}, everrf(name, "unknown function")
}

// evalGround evaluates a term under a ground binding (a map environment or
// a slot frame). All variables must be bound.
func evalGround(t colog.Term, env valueEnv) (colog.Value, error) {
	switch x := t.(type) {
	case *colog.ConstTerm:
		return x.Val, nil
	case *colog.VarTerm:
		v, ok := env.lookupVar(x.Name)
		if !ok {
			return colog.Value{}, everrf(x.Name, "unbound variable")
		}
		return v, nil
	case *colog.ParamTerm:
		return colog.Value{}, everrf(x.Name, "unbound parameter (bind it via Config.Params)")
	case *colog.BinTerm:
		l, err := evalGround(x.L, env)
		if err != nil {
			return colog.Value{}, err
		}
		r, err := evalGround(x.R, env)
		if err != nil {
			return colog.Value{}, err
		}
		return applyBin(x.Op, l, r)
	case *colog.NegTerm:
		v, err := evalGround(x.X, env)
		if err != nil {
			return colog.Value{}, err
		}
		return applyNeg(v)
	case *colog.NotTerm:
		v, err := evalGround(x.X, env)
		if err != nil {
			return colog.Value{}, err
		}
		return applyNot(v)
	case *colog.AbsTerm:
		v, err := evalGround(x.X, env)
		if err != nil {
			return colog.Value{}, err
		}
		return applyAbs(v)
	case *colog.FuncTerm:
		args := make([]colog.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := evalGround(a, env)
			if err != nil {
				return colog.Value{}, err
			}
			args[i] = v
		}
		return applyFunc(x.Name, args)
	}
	return colog.Value{}, everrf(fmt.Sprintf("%T", t), "unsupported term in ground evaluation")
}

// termBound reports whether all variables in t are bound in env.
func termBound(t colog.Term, env valueEnv) bool {
	return termVars(t, func(v string) bool { _, ok := env.lookupVar(v); return ok })
}
