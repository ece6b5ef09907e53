package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTypeStringsAndEqual(t *testing.T) {
	cases := []struct {
		ty   Type
		want string
	}{
		{I1, "i1"}, {I8, "i8"}, {I32, "i32"}, {F32, "float"}, {F64, "double"},
		{Ptr, "ptr"}, {Void, "void"}, {VecT(4, I8), "<4 x i8>"},
		{VecT(2, F64), "<2 x double>"},
	}
	for _, c := range cases {
		if c.ty.String() != c.want {
			t.Errorf("%v prints %q, want %q", c.ty, c.ty.String(), c.want)
		}
		if !Equal(c.ty, c.ty) {
			t.Errorf("%v not equal to itself", c.ty)
		}
	}
	if Equal(I8, I16) || Equal(VecT(4, I8), VecT(8, I8)) || Equal(F32, I32) {
		t.Error("distinct types compare equal")
	}
}

func TestScalarBitsAndStoreBytes(t *testing.T) {
	if ScalarBits(VecT(4, I8)) != 8 || ScalarBits(I64) != 64 || ScalarBits(Ptr) != 64 {
		t.Error("ScalarBits wrong")
	}
	if StoreBytes(I1) != 1 || StoreBytes(I16) != 2 || StoreBytes(VecT(4, I32)) != 16 {
		t.Error("StoreBytes wrong")
	}
}

func TestSignExtMaskProperty(t *testing.T) {
	prop := func(v uint64, wRaw uint8) bool {
		w := int(wRaw%64) + 1
		s := SignExt(v, w)
		// Re-truncating the sign extension must recover the original bits.
		return uint64(s)&MaskW(w) == v&MaskW(w)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConstIntPrinting(t *testing.T) {
	if CInt(I8, -1).Ident() != "-1" || CInt(I8, 255).Ident() != "-1" {
		t.Error("i8 255 must print as -1 (signed)")
	}
	if CBool(true).Ident() != "true" || CBool(false).Ident() != "false" {
		t.Error("i1 constants must print true/false")
	}
	if CInt(I32, 255).Ident() != "255" {
		t.Error("i32 255 must print as 255")
	}
}

func TestSplatIntShapes(t *testing.T) {
	if _, ok := SplatInt(I32, 5).(*ConstInt); !ok {
		t.Error("scalar SplatInt should be ConstInt")
	}
	if _, ok := SplatInt(VecT(4, I32), 0).(*Zero); !ok {
		t.Error("vector zero should be zeroinitializer")
	}
	if s, ok := SplatInt(VecT(4, I32), 7).(*Splat); !ok || s.Ident() != "splat (i32 7)" {
		t.Errorf("vector SplatInt should be a splat, got %v", SplatInt(VecT(4, I32), 7).Ident())
	}
}

func TestIntConstValueUniform(t *testing.T) {
	if v, ok := IntConstValue(CSplat(4, CInt(I8, 3))); !ok || v != 3 {
		t.Error("splat const value")
	}
	vec := &ConstVec{Ty: VecT(2, I8), Elems: []Value{CInt(I8, 1), CInt(I8, 2)}}
	if _, ok := IntConstValue(vec); ok {
		t.Error("non-uniform vector must not report a value")
	}
}

func TestPredicateAlgebra(t *testing.T) {
	for _, p := range []IPred{EQ, NE, UGT, UGE, ULT, ULE, SGT, SGE, SLT, SLE} {
		if p.Inverse().Inverse() != p {
			t.Errorf("double inverse of %s", p.Name())
		}
		if p.Swapped().Swapped() != p {
			t.Errorf("double swap of %s", p.Name())
		}
	}
	if SLT.Swapped() != SGT || ULT.Inverse() != UGE {
		t.Error("predicate algebra wrong")
	}
}

func TestIntrinsicNames(t *testing.T) {
	if IntrinsicName("umin", I32) != "llvm.umin.i32" {
		t.Error("scalar intrinsic name")
	}
	if IntrinsicName("smax", VecT(4, I32)) != "llvm.smax.v4i32" {
		t.Error("vector intrinsic name")
	}
	if IntrinsicBase("llvm.uadd.sat.i8") != "uadd.sat" {
		t.Error("two-part intrinsic base")
	}
	if IntrinsicBase("llvm.umin.v4i32") != "umin" {
		t.Error("simple intrinsic base")
	}
	if IntrinsicBase("not_an_intrinsic") != "" {
		t.Error("non-intrinsic base should be empty")
	}
}

func buildSample() *Func {
	x := &Param{Nm: "x", Ty: I32}
	a := Bin(OpAdd, "a", NSW, x, CInt(I32, 1))
	c := ICmpI("c", SLT, a, CInt(I32, 0))
	s := Sel("s", c, a, CInt(I32, 0))
	return NewFunc("f", I32, []*Param{x}, []*Instr{a, c, s, RetI(s)})
}

func TestHashIsNameIndependent(t *testing.T) {
	f := buildSample()
	g := CloneFunc(f)
	RenameValues(g)
	if Hash(f) != Hash(g) {
		t.Fatalf("renaming changed the hash:\n%s\n%s", f, g)
	}
	if !StructurallyEqual(f, g) {
		t.Fatal("renamed clone should be structurally equal")
	}
}

func TestHashDistinguishesStructure(t *testing.T) {
	f := buildSample()
	g := CloneFunc(f)
	g.Entry().Instrs[0].Flags = NUW // nsw -> nuw
	if Hash(f) == Hash(g) {
		t.Fatal("flag change must change the hash")
	}
	h := CloneFunc(f)
	h.Entry().Instrs[1].IPredV = SGT
	if Hash(f) == Hash(h) {
		t.Fatal("predicate change must change the hash")
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := buildSample()
	g := CloneFunc(f)
	g.Entry().Instrs[0].Args[1] = CInt(I32, 99)
	if orig := f.Entry().Instrs[0].Args[1].(*ConstInt); orig.V == 99 {
		t.Fatal("clone shares mutable state with the original")
	}
	// Cloned instructions must reference cloned operands, not originals.
	if g.Entry().Instrs[1].Args[0] == f.Entry().Instrs[0] {
		t.Fatal("clone references original instruction")
	}
}

func TestVerifyCatchesBrokenFunctions(t *testing.T) {
	f := buildSample()
	f.Entry().Instrs = f.Entry().Instrs[:3] // drop the ret
	if err := VerifyFunc(f); err == nil {
		t.Fatal("missing terminator must fail verification")
	}
	g := buildSample()
	g.Entry().Instrs[2].Args[1] = &Param{Nm: "ghost", Ty: I32}
	if err := VerifyFunc(g); err == nil || !strings.Contains(err.Error(), "undefined value") {
		t.Fatalf("undefined operand must fail verification, got %v", err)
	}
	h := buildSample()
	h.Entry().Instrs[0].Nm = "x" // collides with the parameter
	if err := VerifyFunc(h); err == nil {
		t.Fatal("duplicate name must fail verification")
	}
	// Intrinsic calls must supply every operand the interpreter's kernel
	// reads, each with at least the result's lanes.
	x := &Param{Nm: "x", Ty: I8}
	v := VecT(2, I8)
	for _, call := range []*Instr{
		CallI("r", "llvm.umin.i8", I8, x),
		CallI("r", "llvm.fshl.i8", I8, x, x),
		CallI("r", "llvm.umax.v2i8", v, x, x),
	} {
		fn := NewFunc("f", call.Ty, []*Param{x}, []*Instr{call, RetI(call)})
		if err := VerifyFunc(fn); err == nil {
			t.Fatalf("malformed intrinsic call %s must fail verification", call)
		}
	}
	ok := CallI("r", "llvm.abs.i8", I8, x) // the i1 flag is optional
	if err := VerifyFunc(NewFunc("f", I8, []*Param{x}, []*Instr{ok, RetI(ok)})); err != nil {
		t.Fatalf("abs without its flag must verify: %v", err)
	}
}

func TestInstrStringFormats(t *testing.T) {
	x := &Param{Nm: "x", Ty: I32}
	cases := []struct {
		in   *Instr
		want string
	}{
		{Bin(OpAdd, "r", NUW|NSW, x, CInt(I32, 2)), "%r = add nuw nsw i32 %x, 2"},
		{Bin(OpOr, "r", Disjoint, x, x), "%r = or disjoint i32 %x, %x"},
		{Bin(OpUDiv, "r", Exact, x, CInt(I32, 4)), "%r = udiv exact i32 %x, 4"},
		{ICmpI("r", ULE, x, CInt(I32, 7)), "%r = icmp ule i32 %x, 7"},
		{Conv(OpTrunc, "r", x, I8, NUW), "%r = trunc nuw i32 %x to i8"},
		{CallI("r", "llvm.ctpop.i32", I32, x), "%r = tail call i32 @llvm.ctpop.i32(i32 %x)"},
		{FreezeI("r", x), "%r = freeze i32 %x"},
		{RetI(x), "ret i32 %x"},
		{RetVoid(), "ret void"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
}

func TestNumInstrs(t *testing.T) {
	f := buildSample()
	if f.NumInstrs(true) != 3 || f.NumInstrs(false) != 4 {
		t.Fatalf("NumInstrs: %d/%d", f.NumInstrs(true), f.NumInstrs(false))
	}
}
