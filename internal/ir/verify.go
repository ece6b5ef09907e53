package ir

import (
	"fmt"
)

// VerifyError describes a structural or type error found in a function.
type VerifyError struct {
	Func  string
	Instr string
	Msg   string
}

func (e *VerifyError) Error() string {
	if e.Instr != "" {
		return fmt.Sprintf("ir: function @%s: %q: %s", e.Func, e.Instr, e.Msg)
	}
	return fmt.Sprintf("ir: function @%s: %s", e.Func, e.Msg)
}

// VerifyFunc checks SSA well-formedness and basic type rules:
// defs dominate uses (straight-line approximation: defined earlier in the
// same block, in a preceding block, or a phi incoming value), unique result
// names, non-empty terminated blocks, and per-opcode operand typing.
func VerifyFunc(f *Func) error {
	errf := func(in *Instr, format string, args ...any) error {
		is := ""
		if in != nil {
			is = in.String()
		}
		return &VerifyError{Func: f.Name, Instr: is, Msg: fmt.Sprintf(format, args...)}
	}
	if len(f.Blocks) == 0 {
		return errf(nil, "function has no body")
	}
	defined := make(map[Value]bool)
	names := make(map[string]bool)
	for _, p := range f.Params {
		if names[p.Nm] {
			return errf(nil, "duplicate parameter name %%%s", p.Nm)
		}
		names[p.Nm] = true
		defined[p] = true
	}
	// Pre-collect all instruction results so phi forward references verify.
	resultOf := make(map[Value]bool)
	blockNames := make(map[string]bool)
	for _, b := range f.Blocks {
		if blockNames[b.Name] {
			return errf(nil, "duplicate block label %%%s", b.Name)
		}
		blockNames[b.Name] = true
		for _, in := range b.Instrs {
			if in.HasResult() {
				if names[in.Nm] {
					return errf(in, "duplicate result name %%%s", in.Nm)
				}
				names[in.Nm] = true
				resultOf[in] = true
			}
		}
	}
	for bi, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return errf(nil, "block %%%s is empty", b.Name)
		}
		for k, in := range b.Instrs {
			isLast := k == len(b.Instrs)-1
			if in.IsTerminator() != isLast {
				if in.IsTerminator() {
					return errf(in, "terminator in the middle of block %%%s", b.Name)
				}
				return errf(in, "block %%%s does not end with a terminator", b.Name)
			}
			for ai, a := range in.Args {
				if a == nil {
					return errf(in, "operand %d is nil", ai)
				}
				if IsConst(a) {
					continue
				}
				if in.Op == OpPhi {
					// Phi operands may be defined later (loop carried).
					if !defined[a] && !resultOf[a] {
						return errf(in, "phi operand %s is not defined in the function", a.Ident())
					}
					continue
				}
				if !defined[a] {
					if resultOf[a] {
						return errf(in, "use of %s before its definition", a.Ident())
					}
					return errf(in, "use of undefined value %s", a.Ident())
				}
			}
			if err := checkTypes(f, in, bi); err != nil {
				return err
			}
			if in.HasResult() {
				defined[in] = true
			}
		}
	}
	return nil
}

func checkTypes(f *Func, in *Instr, _ int) error {
	errf := func(format string, args ...any) error {
		return &VerifyError{Func: f.Name, Instr: in.String(), Msg: fmt.Sprintf(format, args...)}
	}
	argTy := func(i int) Type { return in.Args[i].Type() }
	want := func(n int) error {
		if len(in.Args) != n {
			return errf("expected %d operands, have %d", n, len(in.Args))
		}
		return nil
	}
	switch {
	case in.Op.IsIntBinary():
		if err := want(2); err != nil {
			return err
		}
		if !IsInt(in.Ty) {
			return errf("integer op on non-integer type %s", in.Ty)
		}
		if !Equal(argTy(0), in.Ty) || !Equal(argTy(1), in.Ty) {
			return errf("operand types %s, %s do not match result type %s", argTy(0), argTy(1), in.Ty)
		}
	case in.Op == OpFAdd || in.Op == OpFSub || in.Op == OpFMul || in.Op == OpFDiv:
		if err := want(2); err != nil {
			return err
		}
		if !IsFloat(in.Ty) {
			return errf("fp op on non-fp type %s", in.Ty)
		}
		if !Equal(argTy(0), in.Ty) || !Equal(argTy(1), in.Ty) {
			return errf("operand types do not match result type %s", in.Ty)
		}
	case in.Op == OpFNeg:
		if err := want(1); err != nil {
			return err
		}
		if !IsFloat(in.Ty) || !Equal(argTy(0), in.Ty) {
			return errf("fneg type mismatch")
		}
	case in.Op == OpICmp:
		if err := want(2); err != nil {
			return err
		}
		if !Equal(argTy(0), argTy(1)) {
			return errf("icmp operand types differ: %s vs %s", argTy(0), argTy(1))
		}
		if !IsInt(argTy(0)) && !IsPtr(Elem(argTy(0))) {
			return errf("icmp on non-integer type %s", argTy(0))
		}
		if !Equal(in.Ty, WithLanes(argTy(0), I1)) {
			return errf("icmp result must be %s, have %s", WithLanes(argTy(0), I1), in.Ty)
		}
	case in.Op == OpFCmp:
		if err := want(2); err != nil {
			return err
		}
		if !Equal(argTy(0), argTy(1)) || !IsFloat(argTy(0)) {
			return errf("fcmp operand type error")
		}
	case in.Op == OpSelect:
		if err := want(3); err != nil {
			return err
		}
		condOK := Equal(argTy(0), I1) || Equal(argTy(0), WithLanes(in.Ty, I1))
		if !condOK {
			return errf("select condition must be i1 or lane-matching vector of i1, have %s", argTy(0))
		}
		if !Equal(argTy(1), in.Ty) || !Equal(argTy(2), in.Ty) {
			return errf("select arms must match result type %s", in.Ty)
		}
	case in.Op == OpFreeze:
		if err := want(1); err != nil {
			return err
		}
		if !Equal(argTy(0), in.Ty) {
			return errf("freeze type mismatch")
		}
	case in.Op == OpZExt || in.Op == OpSExt:
		if err := want(1); err != nil {
			return err
		}
		if !IsInt(argTy(0)) || !IsInt(in.Ty) || Lanes(argTy(0)) != Lanes(in.Ty) {
			return errf("%s requires matching integer lane shapes", in.Op.Name())
		}
		if ScalarBits(argTy(0)) >= ScalarBits(in.Ty) {
			return errf("%s must widen: %s to %s", in.Op.Name(), argTy(0), in.Ty)
		}
	case in.Op == OpTrunc:
		if err := want(1); err != nil {
			return err
		}
		if !IsInt(argTy(0)) || !IsInt(in.Ty) || Lanes(argTy(0)) != Lanes(in.Ty) {
			return errf("trunc requires matching integer lane shapes")
		}
		if ScalarBits(argTy(0)) <= ScalarBits(in.Ty) {
			return errf("trunc must narrow: %s to %s", argTy(0), in.Ty)
		}
	case in.Op == OpGEP:
		if len(in.Args) < 2 {
			return errf("getelementptr needs a base pointer and at least one index")
		}
		if !IsPtr(argTy(0)) {
			return errf("getelementptr base must be ptr")
		}
		if in.ElemTy == nil {
			return errf("getelementptr missing element type")
		}
	case in.Op == OpLoad:
		if err := want(1); err != nil {
			return err
		}
		if !IsPtr(argTy(0)) {
			return errf("load address must be ptr")
		}
	case in.Op == OpStore:
		if err := want(2); err != nil {
			return err
		}
		if !IsPtr(argTy(1)) {
			return errf("store address must be ptr")
		}
	case in.Op == OpCall:
		if in.Callee == "" {
			return errf("call without callee")
		}
		// The interpreter's intrinsic kernels read these operands for
		// every result lane.
		n := intrinsicOperands[IntrinsicBase(in.Callee)]
		if len(in.Args) < n {
			return errf("%s needs %d operands, have %d", in.Callee, n, len(in.Args))
		}
		for i := 0; i < n; i++ {
			if Lanes(argTy(i)) < Lanes(in.Ty) {
				return errf("operand %d of %s has fewer lanes than its result %s", i, in.Callee, in.Ty)
			}
		}
	case in.Op == OpBr:
		if len(in.Args) == 0 && len(in.Labels) != 1 {
			return errf("unconditional br needs one label")
		}
		if len(in.Args) == 1 && (len(in.Labels) != 2 || !Equal(argTy(0), I1)) {
			return errf("conditional br needs an i1 condition and two labels")
		}
		for _, l := range in.Labels {
			if f.BlockByName(l) == nil {
				return errf("br to unknown label %%%s", l)
			}
		}
	case in.Op == OpPhi:
		if len(in.Args) == 0 || len(in.Args) != len(in.Labels) {
			return errf("phi needs matching value/label pairs")
		}
		for _, a := range in.Args {
			if !Equal(a.Type(), in.Ty) {
				return errf("phi incoming type %s does not match %s", a.Type(), in.Ty)
			}
		}
	case in.Op == OpRet:
		if len(in.Args) == 1 {
			if !Equal(argTy(0), f.Ret) {
				return errf("ret type %s does not match function return type %s", argTy(0), f.Ret)
			}
		} else if !IsVoid(f.Ret) {
			return errf("ret void in a function returning %s", f.Ret)
		}
	case in.Op == OpExtractElt:
		if err := want(2); err != nil {
			return err
		}
		if !IsVector(argTy(0)) {
			return errf("extractelement needs a vector")
		}
	case in.Op == OpInsertElt:
		if err := want(3); err != nil {
			return err
		}
		if !IsVector(argTy(0)) || !Equal(argTy(0), in.Ty) {
			return errf("insertelement type error")
		}
	case in.Op == OpShuffle:
		if err := want(3); err != nil {
			return err
		}
		if !IsVector(argTy(0)) || !Equal(argTy(0), argTy(1)) {
			return errf("shufflevector input vectors must match")
		}
	}
	return nil
}

// VerifyModule verifies every function in the module.
func VerifyModule(m *Module) error {
	for _, f := range m.Funcs {
		if err := VerifyFunc(f); err != nil {
			return err
		}
	}
	return nil
}

// intrinsicOperands is the number of operands each evaluated intrinsic reads
// unconditionally (abs, ctlz and cttz read their i1 flag only when present).
var intrinsicOperands = map[string]int{
	"umin": 2, "umax": 2, "smin": 2, "smax": 2,
	"uadd.sat": 2, "usub.sat": 2, "sadd.sat": 2, "ssub.sat": 2,
	"abs": 1, "ctpop": 1, "ctlz": 1, "cttz": 1, "bswap": 1, "bitreverse": 1,
	"fshl": 3, "fshr": 3, "fabs": 1, "minnum": 2, "maxnum": 2,
}
