package dsl

import (
	"fmt"
	"math"
	"sort"
)

// NonlinearFuncs is the set of nonlinear functions a PE's lookup-table unit
// implements. The paper names sigmoid, gaussian, divide and logarithm as the
// expensive operations backed by LUTs; the remainder round out the common ML
// activation set.
var NonlinearFuncs = map[string]bool{
	"sigmoid":  true,
	"gaussian": true,
	"log":      true,
	"exp":      true,
	"sqrt":     true,
	"tanh":     true,
	"relu":     true,
	"abs":      true,
	"sign":     true,
}

// MaxElements bounds every symbol's element count and every iterator's trip
// count: 1<<25 words, cosmicnet.MaxFrameBytes/8, the largest vector one
// frame can carry. The largest Table 1 symbol at full scale (mnist's first
// weight layer) has 614,656 elements. Analyze refuses anything larger, so
// Size and Count never overflow and nothing downstream is asked to allocate
// more than a frame could ever move.
const MaxElements = 1 << 25

// Symbol is a resolved DSL variable with concrete extents.
type Symbol struct {
	Name string
	Kind VarKind
	Dims []int // concrete dimension extents; empty for scalars
	// Lo and Hi give the half-open iteration range for iterators.
	Lo, Hi int
	// DeclPos is the declaration site (zero for interim symbols).
	DeclPos Pos
}

// Size returns the number of scalar elements of the symbol; Analyze bounds
// it by MaxElements.
func (s *Symbol) Size() int {
	n := 1
	for _, d := range s.Dims {
		n *= d
	}
	return n
}

// Count returns the iterator trip count (iterators only).
func (s *Symbol) Count() int { return s.Hi - s.Lo }

// Unit is a semantically analyzed program: the AST plus a symbol table with
// all dimension parameters substituted.
type Unit struct {
	Program *Program
	Params  map[string]int
	Symbols map[string]*Symbol
	// Order lists symbol names in declaration order (interims last, in first
	// assignment order).
	Order []string
}

// Analyze checks prog against params (values for symbolic dimension names)
// and produces the resolved unit.
func Analyze(prog *Program, params map[string]int) (*Unit, error) {
	u := &Unit{Program: prog, Params: params, Symbols: map[string]*Symbol{}}
	for _, d := range prog.Decls {
		if _, dup := u.Symbols[d.Name]; dup {
			return nil, errorf(d.Pos, "duplicate declaration of %q", d.Name)
		}
		if _, isParam := params[d.Name]; isParam {
			return nil, errorf(d.Pos, "%q is declared but also given as a dimension parameter", d.Name)
		}
		sym := &Symbol{Name: d.Name, Kind: d.Kind, DeclPos: d.Pos}
		if d.Kind == KindIterator {
			lo, err := evalConst(d.Lo, params)
			if err != nil {
				return nil, err
			}
			hi, err := evalConst(d.Hi, params)
			if err != nil {
				return nil, err
			}
			if hi <= lo {
				return nil, errorf(d.Pos, "iterator %q has empty range [%d:%d)", d.Name, lo, hi)
			}
			// hi > lo, so the unsigned difference is the exact trip count.
			if uint64(hi)-uint64(lo) > MaxElements {
				return nil, errorf(d.Pos, "iterator %q range [%d:%d) exceeds %d trips", d.Name, lo, hi, MaxElements)
			}
			sym.Lo, sym.Hi = lo, hi
		} else {
			for _, dim := range d.Dims {
				n, err := evalConst(dim, params)
				if err != nil {
					return nil, err
				}
				if n <= 0 {
					return nil, errorf(d.Pos, "dimension of %q must be positive, got %d", d.Name, n)
				}
				sym.Dims = append(sym.Dims, n)
			}
			if err := checkSize(d.Pos, d.Name, sym.Dims); err != nil {
				return nil, err
			}
		}
		u.Symbols[d.Name] = sym
		u.Order = append(u.Order, d.Name)
	}

	// Walk statements: implicit interim declarations and reference checking.
	assigned := map[string]bool{}
	for _, st := range prog.Stmts {
		sym, ok := u.Symbols[st.Name]
		if !ok {
			if _, isParam := params[st.Name]; isParam {
				return nil, errorf(st.Pos, "cannot assign to dimension parameter %q", st.Name)
			}
			// Implicitly declare an interim. Its rank is the number of LHS
			// subscripts; extents are derived from the subscript iterators.
			dims, err := u.lhsDims(st)
			if err != nil {
				return nil, err
			}
			sym = &Symbol{Name: st.Name, Kind: KindInterim, Dims: dims, DeclPos: st.Pos}
			u.Symbols[st.Name] = sym
			u.Order = append(u.Order, st.Name)
		} else {
			switch sym.Kind {
			case KindModelInput, KindModelOutput:
				return nil, errorf(st.Pos, "cannot assign to %s %q", sym.Kind, st.Name)
			case KindIterator:
				return nil, errorf(st.Pos, "cannot assign to iterator %q", st.Name)
			}
			if len(st.Indices) != len(sym.Dims) {
				return nil, errorf(st.Pos, "%q has rank %d but is assigned with %d subscripts",
					st.Name, len(sym.Dims), len(st.Indices))
			}
		}
		bound := map[string]bool{}
		for _, ix := range st.Indices {
			collectIterators(ix, u, bound)
		}
		if err := u.checkExpr(st.RHS, bound, assigned); err != nil {
			return nil, err
		}
		assigned[st.Name] = true
	}

	// Every gradient output must be assigned.
	for _, name := range u.Order {
		sym := u.Symbols[name]
		if sym.Kind == KindGradient && !assigned[name] {
			return nil, errorf(sym.DeclPos, "gradient %q is never assigned", name)
		}
	}
	if !prog.HasAggregator {
		return nil, errorf(Pos{1, 1}, "program does not declare an aggregator (average or sum)")
	}
	return u, nil
}

// lhsDims derives the extents of an implicitly declared interim from the
// iterators used in the LHS subscripts.
func (u *Unit) lhsDims(st *Assign) ([]int, error) {
	dims := make([]int, 0, len(st.Indices))
	for _, ix := range st.Indices {
		ref, ok := ix.(*VarRef)
		if !ok || len(ref.Indices) != 0 {
			return nil, errorf(st.Pos, "subscripts of implicitly declared %q must be plain iterators", st.Name)
		}
		it, ok := u.Symbols[ref.Name]
		if !ok || it.Kind != KindIterator {
			return nil, errorf(ref.Pos, "subscript %q of implicitly declared %q is not an iterator", ref.Name, st.Name)
		}
		dims = append(dims, it.Count())
	}
	if err := checkSize(st.Pos, st.Name, dims); err != nil {
		return nil, err
	}
	return dims, nil
}

// checkSize refuses a symbol of more than MaxElements elements. Each extent
// is positive, and the running product is checked before every multiply, so
// it cannot overflow.
func checkSize(pos Pos, name string, dims []int) error {
	size := 1
	for _, d := range dims {
		if d > MaxElements/size {
			return errorf(pos, "%q has more than %d elements", name, MaxElements)
		}
		size *= d
	}
	return nil
}

func collectIterators(e Expr, u *Unit, out map[string]bool) {
	switch e := e.(type) {
	case *VarRef:
		if sym, ok := u.Symbols[e.Name]; ok && sym.Kind == KindIterator {
			out[e.Name] = true
		}
		for _, ix := range e.Indices {
			collectIterators(ix, u, out)
		}
	case *BinaryExpr:
		collectIterators(e.X, u, out)
		collectIterators(e.Y, u, out)
	case *UnaryExpr:
		collectIterators(e.X, u, out)
	case *CondExpr:
		collectIterators(e.Cond, u, out)
		collectIterators(e.Then, u, out)
		collectIterators(e.Else, u, out)
	case *Reduce:
		collectIterators(e.Body, u, out)
	case *CallExpr:
		for _, a := range e.Args {
			collectIterators(a, u, out)
		}
	}
}

func (u *Unit) checkExpr(e Expr, bound map[string]bool, assigned map[string]bool) error {
	switch e := e.(type) {
	case *NumberLit:
		return nil
	case *VarRef:
		sym, ok := u.Symbols[e.Name]
		if !ok {
			if _, isParam := u.Params[e.Name]; isParam {
				if len(e.Indices) != 0 {
					return errorf(e.Pos, "parameter %q cannot be subscripted", e.Name)
				}
				return nil
			}
			return errorf(e.Pos, "undefined variable %q", e.Name)
		}
		if sym.Kind == KindIterator {
			if len(e.Indices) != 0 {
				return errorf(e.Pos, "iterator %q cannot be subscripted", e.Name)
			}
			if !bound[e.Name] {
				return errorf(e.Pos, "iterator %q used outside of a binding context", e.Name)
			}
			return nil
		}
		if sym.Kind == KindInterim && !assigned[e.Name] {
			return errorf(e.Pos, "interim %q used before assignment", e.Name)
		}
		if len(e.Indices) != len(sym.Dims) {
			return errorf(e.Pos, "%q has rank %d but is referenced with %d subscripts",
				e.Name, len(sym.Dims), len(e.Indices))
		}
		for _, ix := range e.Indices {
			if err := u.checkExpr(ix, bound, assigned); err != nil {
				return err
			}
		}
		return nil
	case *BinaryExpr:
		if err := u.checkExpr(e.X, bound, assigned); err != nil {
			return err
		}
		return u.checkExpr(e.Y, bound, assigned)
	case *UnaryExpr:
		return u.checkExpr(e.X, bound, assigned)
	case *CondExpr:
		if err := u.checkExpr(e.Cond, bound, assigned); err != nil {
			return err
		}
		if err := u.checkExpr(e.Then, bound, assigned); err != nil {
			return err
		}
		return u.checkExpr(e.Else, bound, assigned)
	case *Reduce:
		it, ok := u.Symbols[e.Iter]
		if !ok || it.Kind != KindIterator {
			return errorf(e.Pos, "reduction variable %q is not a declared iterator", e.Iter)
		}
		if bound[e.Iter] {
			return errorf(e.Pos, "iterator %q is already bound in an enclosing context", e.Iter)
		}
		bound[e.Iter] = true
		err := u.checkExpr(e.Body, bound, assigned)
		delete(bound, e.Iter)
		return err
	case *CallExpr:
		if !NonlinearFuncs[e.Fn] {
			return errorf(e.Pos, "unknown function %q", e.Fn)
		}
		if len(e.Args) != 1 {
			return errorf(e.Pos, "%s takes exactly 1 argument, got %d", e.Fn, len(e.Args))
		}
		return u.checkExpr(e.Args[0], bound, assigned)
	}
	return fmt.Errorf("dsl: unknown expression type %T", e)
}

// evalConst evaluates a constant integer expression (literals, parameters,
// and + - * / over them).
func evalConst(e Expr, params map[string]int) (int, error) {
	v, err := evalConstF(e, params)
	if err != nil {
		return 0, err
	}
	if v != math.Trunc(v) {
		return 0, errorf(e.Position(), "dimension expression %s is not an integer", e)
	}
	// Beyond 2^53 a float64 no longer holds every integer, and int(v) of a
	// value past the int range is undefined.
	if math.Abs(v) > 1<<53 {
		return 0, errorf(e.Position(), "dimension expression %s is out of range", e)
	}
	return int(v), nil
}

func evalConstF(e Expr, params map[string]int) (float64, error) {
	switch e := e.(type) {
	case *NumberLit:
		return e.Value, nil
	case *VarRef:
		if len(e.Indices) != 0 {
			return 0, errorf(e.Pos, "subscripted reference %s is not constant", e)
		}
		if v, ok := params[e.Name]; ok {
			return float64(v), nil
		}
		return 0, errorf(e.Pos, "unknown dimension parameter %q", e.Name)
	case *UnaryExpr:
		v, err := evalConstF(e.X, params)
		return -v, err
	case *BinaryExpr:
		x, err := evalConstF(e.X, params)
		if err != nil {
			return 0, err
		}
		y, err := evalConstF(e.Y, params)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case OpAdd:
			return x + y, nil
		case OpSub:
			return x - y, nil
		case OpMul:
			return x * y, nil
		case OpDiv:
			if y == 0 {
				return 0, errorf(e.Pos, "division by zero in dimension expression")
			}
			return x / y, nil
		}
	}
	return 0, errorf(e.Position(), "expression %s is not constant", e)
}

// ModelGradientPairs matches model symbols to gradient symbols by
// declaration order: the i-th declared model is updated by the i-th declared
// gradient. This is the stack's convention for applying the fixed update
// rule θ ← θ − μ·∂f/∂θ. It fails if the program's models and gradients do
// not pair up; layers that never apply updates (e.g. pure compilation) need
// not call it.
func (u *Unit) ModelGradientPairs() ([][2]*Symbol, error) {
	models := u.SymbolsOfKind(KindModel)
	grads := u.SymbolsOfKind(KindGradient)
	if len(models) != len(grads) {
		return nil, errorf(Pos{1, 1}, "%d model symbols but %d gradient symbols", len(models), len(grads))
	}
	pairs := make([][2]*Symbol, len(models))
	for i := range models {
		if models[i].Size() != grads[i].Size() {
			return nil, errorf(grads[i].DeclPos,
				"gradient %q has %d elements but its paired model %q has %d",
				grads[i].Name, grads[i].Size(), models[i].Name, models[i].Size())
		}
		pairs[i] = [2]*Symbol{models[i], grads[i]}
	}
	return pairs, nil
}

// SymbolsOfKind returns the unit's symbols of the given kind in declaration
// order.
func (u *Unit) SymbolsOfKind(kind VarKind) []*Symbol {
	var out []*Symbol
	for _, name := range u.Order {
		if s := u.Symbols[name]; s.Kind == kind {
			out = append(out, s)
		}
	}
	return out
}

// TotalSize sums the element counts of all symbols of the given kind.
func (u *Unit) TotalSize(kind VarKind) int {
	n := 0
	for _, s := range u.SymbolsOfKind(kind) {
		n += s.Size()
	}
	return n
}

// ModelSize returns the number of model parameters.
func (u *Unit) ModelSize() int { return u.TotalSize(KindModel) }

// InputSize returns the number of scalar elements in one training vector
// (model inputs plus model outputs).
func (u *Unit) InputSize() int {
	return u.TotalSize(KindModelInput) + u.TotalSize(KindModelOutput)
}

// GradientSize returns the number of gradient outputs.
func (u *Unit) GradientSize() int { return u.TotalSize(KindGradient) }

// SortedParamNames returns the parameter names in sorted order (for
// deterministic output).
func (u *Unit) SortedParamNames() []string {
	names := make([]string, 0, len(u.Params))
	for n := range u.Params {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
