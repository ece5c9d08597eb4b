package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// UnitCheckAnalyzer protects the internal/units quantity discipline (the
// link-budget math of PAPER.md §3: dBm powers, dB gains, frequencies,
// distances). Go's named types already stop DBm+DB from compiling, but
// three real footguns remain legal:
//
//   - a direct cast between two unit types (DB(powerDBm)) silently
//     reinterprets a power as a gain — conversions must go through the
//     units API (Milliwatts, DBm, Sub, Linear, ...);
//   - adding two absolute dBm powers is meaningless (log-domain values
//     don't add; combine in milliwatts or apply a dB gain with Add);
//   - a bare numeric literal passed where a unit type is expected
//     typechecks via implicit constant conversion, hiding which unit the
//     number is in (RawCSITrace(1, ...) — one what?).
var UnitCheckAnalyzer = &Analyzer{
	Name: "unitcheck",
	Doc:  "unit quantities move through the internal/units API, not raw casts or bare literals",
	Codes: []CodeDoc{
		{"UC001", "direct conversion between two distinct unit types"},
		{"UC002", "+/- between two absolute dBm powers"},
		{"UC003", "bare numeric literal where a unit type is expected"},
	},
	Run: runUnitCheck,
}

func runUnitCheck(p *Pass) {
	unitsPath := p.Config.ModulePath + "/internal/units"
	for _, pkg := range p.Module.Pkgs {
		if pkg.Path == unitsPath {
			// The units package itself implements the conversions.
			continue
		}
		u := &unitCheck{pass: p, info: pkg.Info, unitsPath: unitsPath}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					u.checkCall(n)
				case *ast.BinaryExpr:
					u.checkBinary(n)
				case *ast.CompositeLit:
					u.checkCompositeLit(n)
				case *ast.ValueSpec:
					u.checkValueSpec(n)
				case *ast.AssignStmt:
					u.checkAssign(n)
				}
				return true
			})
		}
	}
}

type unitCheck struct {
	pass      *Pass
	info      *types.Info
	unitsPath string
}

// unitType returns the named unit type of t, or nil when t is not one.
func (u *unitCheck) unitType(t types.Type) *types.Named {
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != u.unitsPath {
		return nil
	}
	if basic, ok := named.Underlying().(*types.Basic); !ok || basic.Info()&types.IsNumeric == 0 {
		return nil
	}
	return named
}

func (u *unitCheck) typeOf(e ast.Expr) types.Type {
	if tv, ok := u.info.Types[e]; ok {
		return tv.Type
	}
	// Assignment targets are recorded in Uses/Defs, not always in Types.
	if id, ok := e.(*ast.Ident); ok {
		if obj := objOf(u.info, id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// checkCall handles both conversions (UC001) and calls with unit-typed
// parameters receiving bare literals (UC003).
func (u *unitCheck) checkCall(call *ast.CallExpr) {
	if tv, ok := u.info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion T(x): flag when x itself has a different unit type.
		dst := u.unitType(tv.Type)
		if dst == nil || len(call.Args) != 1 {
			return
		}
		src := u.unitType(u.typeOf(call.Args[0]))
		if src != nil && src.Obj() != dst.Obj() {
			u.pass.Reportf(call.Pos(), "UC001",
				"direct cast from %s to %s reinterprets the quantity; convert through the units API",
				src.Obj().Name(), dst.Obj().Name())
		}
		return
	}
	sig, ok := u.typeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var paramType types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			slice, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			paramType = slice.Elem()
		case i < sig.Params().Len():
			paramType = sig.Params().At(i).Type()
		default:
			continue
		}
		if named := u.unitType(paramType); named != nil && isBareNumericLiteral(arg) {
			u.pass.Reportf(arg.Pos(), "UC003",
				"bare literal where %s is expected; write units.%s(...) (or a named constant) so the unit is visible",
				named.Obj().Name(), named.Obj().Name())
		}
	}
}

// checkBinary flags adding or subtracting two absolute dBm powers.
func (u *unitCheck) checkBinary(bin *ast.BinaryExpr) {
	if bin.Op != token.ADD && bin.Op != token.SUB {
		return
	}
	x, y := u.unitType(u.typeOf(bin.X)), u.unitType(u.typeOf(bin.Y))
	if x == nil || y == nil || x.Obj() != y.Obj() {
		return
	}
	if x.Obj().Name() == "DBm" {
		u.pass.Reportf(bin.Pos(), "UC002",
			"dBm is an absolute log power; %s of two DBm values is meaningless — use Add(DB)/Sub or combine in Milliwatts",
			bin.Op)
	}
}

// checkCompositeLit flags bare literals assigned to unit-typed fields or
// elements.
func (u *unitCheck) checkCompositeLit(lit *ast.CompositeLit) {
	t := u.typeOf(lit)
	if t == nil {
		return
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	fieldByName := map[string]*types.Var{}
	for i := 0; i < st.NumFields(); i++ {
		fieldByName[st.Field(i).Name()] = st.Field(i)
	}
	for i, elt := range lit.Elts {
		var value ast.Expr
		var fieldType types.Type
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			field := fieldByName[key.Name]
			if field == nil {
				continue
			}
			value, fieldType = kv.Value, field.Type()
		} else if i < st.NumFields() {
			value, fieldType = elt, st.Field(i).Type()
		} else {
			continue
		}
		if named := u.unitType(fieldType); named != nil && isBareNumericLiteral(value) {
			u.pass.Reportf(value.Pos(), "UC003",
				"bare literal where %s is expected; write units.%s(...) so the unit is visible",
				named.Obj().Name(), named.Obj().Name())
		}
	}
}

// checkValueSpec flags `var x units.T = 5`.
func (u *unitCheck) checkValueSpec(spec *ast.ValueSpec) {
	if spec.Type == nil {
		return
	}
	named := u.unitType(u.typeOf(spec.Type))
	if named == nil {
		return
	}
	for _, v := range spec.Values {
		if isBareNumericLiteral(v) {
			u.pass.Reportf(v.Pos(), "UC003",
				"bare literal where %s is expected; write units.%s(...) so the unit is visible",
				named.Obj().Name(), named.Obj().Name())
		}
	}
}

// checkAssign flags `x = 5` where x already has a unit type.
func (u *unitCheck) checkAssign(assign *ast.AssignStmt) {
	if len(assign.Lhs) != len(assign.Rhs) {
		return
	}
	for i, rhs := range assign.Rhs {
		if !isBareNumericLiteral(rhs) {
			continue
		}
		if named := u.unitType(u.typeOf(assign.Lhs[i])); named != nil {
			u.pass.Reportf(rhs.Pos(), "UC003",
				"bare literal where %s is expected; write units.%s(...) so the unit is visible",
				named.Obj().Name(), named.Obj().Name())
		}
	}
}

// isBareNumericLiteral matches 5, 2.5, -3, +1e6 — an untyped numeric
// literal, optionally signed. Named constants (units.KHz, a local const
// with a meaningful name) do not match.
func isBareNumericLiteral(e ast.Expr) bool {
	e = ast.Unparen(e)
	if un, ok := e.(*ast.UnaryExpr); ok && (un.Op == token.SUB || un.Op == token.ADD) {
		e = ast.Unparen(un.X)
	}
	lit, ok := e.(*ast.BasicLit)
	if !ok {
		return false
	}
	switch lit.Kind {
	case token.INT, token.FLOAT:
		return true
	}
	return false
}
