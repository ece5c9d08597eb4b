package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// FloatSafeAnalyzer flags exact equality on floating-point values in the
// DSP/decoder/eval code. The decode pipeline's decisions ride on
// conditioned CSI/RSSI series, MRC weights, and hysteresis thresholds — all
// accumulated float arithmetic where == between two computed values is
// almost always a latent bug. The one sanctioned exact comparison is
// against literal zero: MeanAbs and friends return exactly 0 for degenerate
// input, and the `scale == 0` division guard is the idiom for it.
//
// Use the tolerance helper dsp.ApproxEqual instead.
var FloatSafeAnalyzer = &Analyzer{
	Name: "floatsafe",
	Doc:  "no exact ==/!= on computed floating-point values; use the dsp tolerance helpers",
	Codes: []CodeDoc{
		{"FS001", "exact ==/!= between two computed float values"},
		{"FS002", "exact ==/!= against a nonzero float constant"},
	},
	Run: runFloatSafe,
}

func runFloatSafe(p *Pass) {
	for _, pkg := range p.Module.Pkgs {
		if !inScope(pkg.Path, p.Config.FloatScope) {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				bin, ok := n.(*ast.BinaryExpr)
				if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
					return true
				}
				if !isFloat(pkg.Info, bin.X) || !isFloat(pkg.Info, bin.Y) {
					return true
				}
				xc, yc := constKind(pkg.Info, bin.X), constKind(pkg.Info, bin.Y)
				switch {
				case xc == constZero || yc == constZero:
					// Exact-zero guard (division guards, degenerate-input
					// checks): allowed.
				case xc == constNonZero || yc == constNonZero:
					p.Reportf(bin.Pos(), "FS002",
						"exact %s against a float constant; compare with dsp.ApproxEqual and a stated tolerance", bin.Op)
				default:
					p.Reportf(bin.Pos(), "FS001",
						"exact %s between computed float values; use dsp.ApproxEqual (or compare a quantized representation)", bin.Op)
				}
				return true
			})
		}
	}
}

// isFloat reports whether the expression has floating-point (or complex)
// type.
func isFloat(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&(types.IsFloat|types.IsComplex) != 0
}

type constClass int

const (
	constNone constClass = iota
	constZero
	constNonZero
)

// constKind classifies an operand as the constant zero, another constant,
// or a computed value.
func constKind(info *types.Info, e ast.Expr) constClass {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return constNone
	}
	if v, ok := constantFloatIsZero(tv); ok && v {
		return constZero
	}
	return constNonZero
}

// constantFloatIsZero reports whether a constant value equals exactly zero.
func constantFloatIsZero(tv types.TypeAndValue) (zero, ok bool) {
	v := tv.Value
	if v == nil {
		return false, false
	}
	switch v.Kind() {
	case constant.Int, constant.Float, constant.Complex:
		return constant.Sign(constant.Real(v)) == 0 && constant.Sign(constant.Imag(v)) == 0, true
	}
	return false, false
}
