package interp

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/parser"
)

// diffCases are functions chosen to exercise every execution construct the
// two engines implement: straight-line scalar and vector code, intrinsics,
// conversions, memory, control flow with phis and loops, vector constants
// whose elements are runtime values, and the runtime error paths (unbound
// values, unknown blocks, budget exhaustion).
var diffCases = []struct {
	name string
	src  string
}{
	{"clamp", `define i8 @f(i32 %0) {
  %2 = icmp slt i32 %0, 0
  %3 = tail call i32 @llvm.umin.i32(i32 %0, i32 255)
  %4 = trunc nuw i32 %3 to i8
  %5 = select i1 %2, i8 0, i8 %4
  ret i8 %5
}`},
	{"flags-poison", `define i8 @f(i8 %x, i8 %y) {
  %a = add nsw i8 %x, %y
  %b = shl nuw i8 %a, 2
  %c = or disjoint i8 %b, %y
  %d = sub nuw i8 %c, %x
  ret i8 %d
}`},
	{"division", `define i8 @f(i8 %x, i8 %y) {
  %d = sdiv i8 %x, %y
  %r = srem i8 %d, 3
  ret i8 %r
}`},
	{"intrinsics", `define i8 @f(i8 %x, i8 %y) {
  %a = call i8 @llvm.umax.i8(i8 %x, i8 %y)
  %b = call i8 @llvm.ctpop.i8(i8 %a)
  %c = call i8 @llvm.fshl.i8(i8 %b, i8 %x, i8 3)
  %d = call i8 @llvm.uadd.sat.i8(i8 %c, i8 %y)
  ret i8 %d
}`},
	{"float", `define i1 @f(double %x, double %y) {
  %a = fadd double %x, %y
  %m = call double @llvm.maxnum.f64(double %a, double %y)
  %c = fcmp ogt double %m, 1.000000e+00
  ret i1 %c
}`},
	{"conversions", `define i32 @f(i16 %x) {
  %a = sext i16 %x to i32
  %b = trunc nsw i32 %a to i8
  %c = zext nneg i8 %b to i32
  %d = xor i32 %a, %c
  ret i32 %d
}`},
	{"vector", `define <4 x i8> @f(<4 x i8> %v, <4 x i8> %w) {
  %a = add <4 x i8> %v, %w
  %s = shufflevector <4 x i8> %a, <4 x i8> %w, <4 x i32> <i32 0, i32 5, i32 2, i32 7>
  %e = extractelement <4 x i8> %s, i32 2
  %i = insertelement <4 x i8> %s, i8 %e, i32 0
  ret <4 x i8> %i
}`},
	{"bitcast", `define i32 @f(<4 x i8> %v) {
  %b = bitcast <4 x i8> %v to i32
  ret i32 %b
}`},
	{"memory", `define i16 @f(ptr %p, i8 %x) {
  store i8 %x, ptr %p
  %q = getelementptr i8, ptr %p, i64 1
  store i8 37, ptr %q
  %r = load i16, ptr %p, align 1
  ret i16 %r
}`},
	{"gep-inbounds", `define i8 @f(ptr %p, i64 %i) {
  %q = getelementptr inbounds i8, ptr %p, i64 %i
  %v = load i8, ptr %q
  ret i8 %v
}`},
	{"branch-phi", `define i8 @f(i8 %x) {
entry:
  %c = icmp sgt i8 %x, 10
  br i1 %c, label %big, label %small
big:
  %b = add i8 %x, 1
  br label %join
small:
  %s = sub i8 %x, 1
  br label %join
join:
  %r = phi i8 [ %b, %big ], [ %s, %small ]
  ret i8 %r
}`},
	{"loop", `define i8 @f(i8 %n) {
entry:
  br label %head
head:
  %i = phi i8 [ 0, %entry ], [ %inext, %body ]
  %acc = phi i8 [ 0, %entry ], [ %anext, %body ]
  %c = icmp ult i8 %i, %n
  br i1 %c, label %body, label %done
body:
  %anext = add i8 %acc, %i
  %inext = add i8 %i, 1
  br label %head
done:
  ret i8 %acc
}`},
	{"branch-on-poison", `define i8 @f(i8 %x) {
entry:
  %p = add nuw i8 %x, 255
  %c = icmp eq i8 %p, 0
  br i1 %c, label %a, label %b
a:
  ret i8 1
b:
  ret i8 2
}`},
	{"unreachable", `define i8 @f(i8 %x) {
entry:
  %c = icmp eq i8 %x, 0
  br i1 %c, label %dead, label %live
dead:
  unreachable
live:
  ret i8 %x
}`},
	{"unbound-cross-block", `define i8 @f(i8 %x) {
entry:
  %c = icmp eq i8 %x, 0
  br i1 %c, label %use, label %def
def:
  %v = add i8 %x, 1
  br label %use
use:
  %r = add i8 %v, 2
  ret i8 %r
}`},
	{"void-store-only", `define void @f(ptr %p, i8 %x) {
  store i8 %x, ptr %p, align 1
  ret void
}`},
	{"entry-phi-unknown-label", `define i8 @f(i8 %x) {
  %p = phi i8 [ %x, %nowhere ]
  ret i8 %p
}`},
	{"entry-phi-empty-label", `define i8 @f(i8 %x) {
  %p = phi i8 [ %x, % ]
  ret i8 %p
}`},
	{"dyn-splat", `define <2 x i8> @f(i8 %x) {
  %s = add <2 x i8> splat (i8 %x), splat (i8 1)
  ret <2 x i8> %s
}`},
	{"dyn-constvec", `define <2 x i8> @f(i8 %x, <2 x i8> %v) {
  %r = udiv <2 x i8> %v, <i8 %x, i8 3>
  ret <2 x i8> %r
}`},
	{"dyn-ret", `define <2 x i8> @f(i8 %x, i8 %y) {
  %a = mul i8 %x, %y
  ret <2 x i8> <i8 %a, i8 %x>
}`},
	{"dyn-forward-ref", `define <2 x i8> @f(i8 %x, <2 x i8> %v) {
  %a = add <2 x i8> %v, <i8 %b, i8 1>
  %b = add i8 %x, 1
  ret <2 x i8> %a
}`},
	{"dyn-branch-phi", `define <2 x i8> @f(i8 %x) {
entry:
  %c = icmp ult i8 %x, 128
  br i1 %c, label %a, label %b
a:
  %y = add i8 %x, 1
  br label %join
b:
  br label %join
join:
  %p = phi <2 x i8> [ <i8 %y, i8 %x>, %a ], [ splat (i8 %x), %b ]
  %r = add <2 x i8> %p, <i8 %y, i8 2>
  ret <2 x i8> %r
}`},
	{"dyn-loop", `define <2 x i8> @f(i8 %n) {
entry:
  br label %head
head:
  %i = phi i8 [ 0, %entry ], [ %inext, %head ]
  %acc = phi <2 x i8> [ zeroinitializer, %entry ], [ %accn, %head ]
  %accn = add <2 x i8> %acc, <i8 %i, i8 %n>
  %inext = add i8 %i, 1
  %c = icmp ult i8 %inext, 5
  br i1 %c, label %head, label %done
done:
  ret <2 x i8> %accn
}`},
	// Intrinsic rows: every SupportedIntrinsic at the edges its kernel
	// special-cases. Results are concatenated so no lane hides another.
	// All but the last two run the whole-batch bkCall kernel.
	{"intr-flags-off", `define i32 @f(i8 %x, i16 %y) {
  %a = call i8 @llvm.abs.i8(i8 %x, i1 false)
  %b = call i8 @llvm.ctlz.i8(i8 %x, i1 false)
  %c = call i16 @llvm.cttz.i16(i16 %y, i1 false)
  %az = zext i8 %a to i32
  %bz = zext i8 %b to i32
  %cz = zext i16 %c to i32
  %ah = shl i32 %az, 24
  %bh = shl i32 %bz, 16
  %ab = or i32 %ah, %bh
  %r = or i32 %ab, %cz
  ret i32 %r
}`},
	{"intr-flags-on", `define i32 @f(i8 %x, i16 %y) {
  %a = call i8 @llvm.abs.i8(i8 %x, i1 true)
  %b = call i8 @llvm.ctlz.i8(i8 %x, i1 true)
  %c = call i16 @llvm.cttz.i16(i16 %y, i1 true)
  %az = zext i8 %a to i32
  %bz = zext i8 %b to i32
  %cz = zext i16 %c to i32
  %ah = shl i32 %az, 24
  %bh = shl i32 %bz, 16
  %ab = or i32 %ah, %bh
  %r = or i32 %ab, %cz
  ret i32 %r
}`},
	{"intr-bswap-bitreverse-i16", `define i32 @f(i16 %x) {
  %a = call i16 @llvm.bswap.i16(i16 %x)
  %b = call i16 @llvm.bitreverse.i16(i16 %x)
  %az = zext i16 %a to i32
  %bz = zext i16 %b to i32
  %ah = shl i32 %az, 16
  %r = or i32 %ah, %bz
  ret i32 %r
}`},
	{"intr-bswap-bitreverse-i32", `define i64 @f(i32 %x) {
  %a = call i32 @llvm.bswap.i32(i32 %x)
  %b = call i32 @llvm.bitreverse.i32(i32 %x)
  %az = zext i32 %a to i64
  %bz = zext i32 %b to i64
  %ah = shl i64 %az, 32
  %r = or i64 %ah, %bz
  ret i64 %r
}`},
	{"intr-sat-edges", `define i64 @f(i8 %x, i8 %y) {
  %a = call i8 @llvm.uadd.sat.i8(i8 %x, i8 200)
  %b = call i8 @llvm.usub.sat.i8(i8 %y, i8 200)
  %c = call i8 @llvm.sadd.sat.i8(i8 %x, i8 100)
  %d = call i8 @llvm.ssub.sat.i8(i8 %y, i8 100)
  %e = call i8 @llvm.sadd.sat.i8(i8 %x, i8 %y)
  %f = call i8 @llvm.ssub.sat.i8(i8 -128, i8 %x)
  %az = zext i8 %a to i64
  %bz = zext i8 %b to i64
  %cz = zext i8 %c to i64
  %dz = zext i8 %d to i64
  %ez = zext i8 %e to i64
  %fz = zext i8 %f to i64
  %ah = shl i64 %az, 40
  %bh = shl i64 %bz, 32
  %ch = shl i64 %cz, 24
  %dh = shl i64 %dz, 16
  %eh = shl i64 %ez, 8
  %r1 = or i64 %ah, %bh
  %r2 = or i64 %r1, %ch
  %r3 = or i64 %r2, %dh
  %r4 = or i64 %r3, %eh
  %r = or i64 %r4, %fz
  ret i64 %r
}`},
	{"intr-funnel-wide-shift", `define i32 @f(i8 %x, i8 %y, i8 %s) {
  %a = call i8 @llvm.fshl.i8(i8 %x, i8 %y, i8 %s)
  %b = call i8 @llvm.fshr.i8(i8 %x, i8 %y, i8 %s)
  %c = call i8 @llvm.fshl.i8(i8 %x, i8 %y, i8 8)
  %d = call i8 @llvm.fshr.i8(i8 %x, i8 %y, i8 11)
  %az = zext i8 %a to i32
  %bz = zext i8 %b to i32
  %cz = zext i8 %c to i32
  %dz = zext i8 %d to i32
  %ah = shl i32 %az, 24
  %bh = shl i32 %bz, 16
  %ch = shl i32 %cz, 8
  %r1 = or i32 %ah, %bh
  %r2 = or i32 %r1, %ch
  %r = or i32 %r2, %dz
  ret i32 %r
}`},
	{"intr-smin-smax", `define i32 @f(i16 %x, i16 %y) {
  %a = call i16 @llvm.smin.i16(i16 %x, i16 %y)
  %b = call i16 @llvm.smax.i16(i16 %x, i16 -5)
  %az = zext i16 %a to i32
  %bz = zext i16 %b to i32
  %ah = shl i32 %az, 16
  %r = or i32 %ah, %bz
  ret i32 %r
}`},
	{"intr-fabs-minnum", `define double @f(double %u, double %v, float %w) {
  %a = call double @llvm.fabs.f64(double %u)
  %h = call float @llvm.fabs.f32(float %w)
  %e = fpext float %h to double
  %m = call double @llvm.minnum.f64(double %a, double %v)
  %r = call double @llvm.minnum.f64(double %m, double %e)
  ret double %r
}`},
	{"intr-vector-call", `define <2 x i8> @f(<2 x i8> %x, <2 x i8> %y) {
  %a = call <2 x i8> @llvm.abs.v2i8(<2 x i8> %x, i1 true)
  %r = call <2 x i8> @llvm.umin.v2i8(<2 x i8> %a, <2 x i8> %y)
  ret <2 x i8> %r
}`},
	{"intr-register-flag", `define i8 @f(i8 %x, i1 %c) {
  %a = call i8 @llvm.ctlz.i8(i8 %x, i1 %c)
  %b = call i8 @llvm.abs.i8(i8 %x, i1 %c)
  %r = xor i8 %a, %b
  ret i8 %r
}`},
}

// TestIntrinsicCallKinds pins which calls of the intrinsic rows run the
// whole-batch bkCall kernel: every scalar call with a constant (or absent)
// flag, while vector-typed calls and calls whose flag is a register keep the
// per-vector generic path. Across diffCases every supported intrinsic must
// reach bkCall at least once, so the differentials cover each kernel.
func TestIntrinsicCallKinds(t *testing.T) {
	generic := map[string]bool{"intr-vector-call": true, "intr-register-flag": true}
	seen := map[intrinsicOp]bool{}
	for _, tc := range diffCases {
		p := Compile(parser.MustParseFunc(tc.src))
		for gi, ci := range p.code {
			if ci.in.Op != ir.OpCall {
				continue
			}
			if p.kinds[gi] == bkCall {
				seen[ci.intr] = true
			}
			if !strings.HasPrefix(tc.name, "intr-") {
				continue
			}
			want := bkCall
			if generic[tc.name] {
				want = bkGeneric
			}
			if p.kinds[gi] != want {
				t.Errorf("%s: %s classified %d, want %d", tc.name, ci.in.Callee, p.kinds[gi], want)
			}
		}
	}
	for base, op := range intrinsicByBase {
		if !seen[op] {
			t.Errorf("no diffCases row runs %s on bkCall", base)
		}
	}
}

// runBoth executes f on equivalent fresh environments through Exec and a
// one-environment RunBatch and requires bit-identical results.
func runBoth(t *testing.T, f *ir.Func, ev *Evaluator, args []RVal, maxSteps int, label string) {
	t.Helper()
	mkEnv := func() Env {
		env := Env{MaxSteps: maxSteps}
		env.Args = make([]RVal, len(args))
		copy(env.Args, args)
		var mem *Memory
		for i, p := range f.Params {
			if ir.IsPtr(p.Ty) {
				if mem == nil {
					mem = NewMemory()
				}
				base := uint64(0x10000 + i*0x1000)
				r := mem.AddRegion(p.Nm, base, 32)
				for b := range r.Data {
					r.Data[b] = byte(b * 3)
				}
				env.Args[i] = Scalar(ir.Ptr, base)
			}
		}
		env.Mem = mem
		return env
	}
	e1, e2 := mkEnv(), mkEnv()
	r1 := Exec(f, e1)
	out := make([]Result, 1)
	ev.RunBatch([]Env{e2}, out)
	r2 := out[0]
	if r1.UB != r2.UB || r1.UBReason != r2.UBReason ||
		r1.Completed != r2.Completed || r1.DynInstrs != r2.DynInstrs {
		t.Fatalf("%s: result mismatch\nexec:      %+v\nevaluator: %+v", label, r1, r2)
	}
	if !r1.UB && r1.Completed {
		if !r1.Ret.Equal(r2.Ret) {
			t.Fatalf("%s: return mismatch: exec %s vs evaluator %s", label, r1.Ret.Format(), r2.Ret.Format())
		}
	}
	if e1.Mem != nil {
		for ri := range e1.Mem.Regions {
			a, b := e1.Mem.Regions[ri], e2.Mem.Regions[ri]
			for bi := range a.Data {
				if a.Data[bi] != b.Data[bi] || a.Poison[bi] != b.Poison[bi] {
					t.Fatalf("%s: memory mismatch in %s at byte %d: exec %02x/%v vs evaluator %02x/%v",
						label, a.Name, bi, a.Data[bi], a.Poison[bi], b.Data[bi], b.Poison[bi])
				}
			}
		}
	}
}

func diffArgs(f *ir.Func, rng *rand.Rand, poisonMask int) []RVal {
	args := make([]RVal, len(f.Params))
	for i, p := range f.Params {
		if poisonMask&(1<<i) != 0 {
			args[i] = PoisonRV(p.Ty)
			continue
		}
		lanes := make([]Word, ir.Lanes(p.Ty))
		w := ir.ScalarBits(ir.Elem(p.Ty))
		for l := range lanes {
			lanes[l] = Word{V: rng.Uint64() & ir.MaskW(w)}
		}
		args[i] = RVal{Ty: p.Ty, Lanes: lanes}
	}
	return args
}

// TestCompiledEvaluatorMatchesExec is the engine-level differential: every
// construct case runs on corner vectors, random vectors and poison trials
// through both engines, asserting identical values, poison, UB reasons,
// step counts and final memory.
func TestCompiledEvaluatorMatchesExec(t *testing.T) {
	for _, tc := range diffCases {
		f, err := parser.ParseFunc(tc.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		ev := NewEvaluator(Compile(f))
		rng := rand.New(rand.NewSource(99))
		// Corner values: all-zero, all-ones, small counters.
		for _, fillv := range []uint64{0, ^uint64(0), 1, 7, 10, 128} {
			args := make([]RVal, len(f.Params))
			for i, p := range f.Params {
				lanes := make([]Word, ir.Lanes(p.Ty))
				for l := range lanes {
					lanes[l] = Word{V: fillv & ir.MaskW(ir.ScalarBits(ir.Elem(p.Ty)))}
				}
				args[i] = RVal{Ty: p.Ty, Lanes: lanes}
			}
			runBoth(t, f, ev, args, 0, fmt.Sprintf("%s/corner=%d", tc.name, fillv))
		}
		// Random vectors.
		for k := 0; k < 64; k++ {
			runBoth(t, f, ev, diffArgs(f, rng, 0), 0, fmt.Sprintf("%s/rand=%d", tc.name, k))
		}
		// Poison trials, one per argument.
		for i := range f.Params {
			runBoth(t, f, ev, diffArgs(f, rng, 1<<i), 0, fmt.Sprintf("%s/poison=%d", tc.name, i))
		}
	}
}

// TestCompiledEvaluatorBudget checks that step-budget exhaustion is
// bit-identical (same Completed flag and DynInstrs at every budget).
func TestCompiledEvaluatorBudget(t *testing.T) {
	f := parser.MustParseFunc(`define i8 @f(i8 %n) {
entry:
  br label %head
head:
  %i = phi i8 [ 0, %entry ], [ %inext, %head ]
  %inext = add i8 %i, 1
  %c = icmp ult i8 %inext, %n
  br i1 %c, label %head, label %done
done:
  ret i8 %inext
}`)
	ev := NewEvaluator(Compile(f))
	for budget := 1; budget < 40; budget++ {
		args := []RVal{Scalar(ir.I8, 9)}
		runBoth(t, f, ev, args, budget, fmt.Sprintf("budget=%d", budget))
	}
}

// TestCompiledEvaluatorArgMismatch checks the argument-count error path.
func TestCompiledEvaluatorArgMismatch(t *testing.T) {
	f := parser.MustParseFunc(`define i8 @f(i8 %x) { ret i8 %x }`)
	ev := NewEvaluator(Compile(f))
	r1 := Exec(f, Env{})
	out := make([]Result, 1)
	ev.RunBatch([]Env{{}}, out)
	r2 := out[0]
	if r1.UBReason != r2.UBReason || !r1.UB || !r2.UB {
		t.Fatalf("mismatch: %+v vs %+v", r1, r2)
	}
}

// TestCompiledStraightLineIsRecognized pins the fast path on the dominant
// window shape.
func TestCompiledStraightLineIsRecognized(t *testing.T) {
	f := parser.MustParseFunc(diffCases[0].src)
	if p := Compile(f); !p.straight {
		t.Fatal("single-block straight-line function should take the fast path")
	}
	g := parser.MustParseFunc(diffCases[10].src) // branch-phi
	if p := Compile(g); p.straight {
		t.Fatal("multi-block function must not take the fast path")
	}
	h := parser.MustParseFunc(`define <2 x i8> @f(i8 %x) { ret <2 x i8> splat (i8 %x) }`)
	if p := Compile(h); p.straight {
		t.Fatal("a dynamic vector constant needs per-lane bound checks, off the fast path")
	}
}

// TestCacheSharesPrograms checks the hash-keyed program cache.
func TestCacheSharesPrograms(t *testing.T) {
	c := NewCache()
	f := parser.MustParseFunc(`define i8 @f(i8 %x) { %r = add i8 %x, 1 ret i8 %r }`)
	g := parser.MustParseFunc(`define i8 @g(i8 %x) { %r = add i8 %x, 1 ret i8 %r }`)
	p1, p2 := c.Program(f), c.Program(f)
	if p1 != p2 {
		t.Fatal("same function must share one program")
	}
	_ = c.Program(g)
	var nilCache *Cache
	if nilCache.Program(f) == nil {
		t.Fatal("nil cache must still compile")
	}
}

// TestEvaluatorRetLifetime documents that Ret aliases scratch until the next
// run and that Clone detaches it.
func TestEvaluatorRetLifetime(t *testing.T) {
	f := parser.MustParseFunc(`define i8 @f(i8 %x) { %r = add i8 %x, 1 ret i8 %r }`)
	ev := NewEvaluator(Compile(f))
	out := make([]Result, 1)
	ev.RunBatch([]Env{{Args: []RVal{Scalar(ir.I8, 1)}}}, out)
	aliased, kept := out[0].Ret, out[0].Ret.Clone()
	ev.RunBatch([]Env{{Args: []RVal{Scalar(ir.I8, 100)}}}, out)
	if aliased.Lanes[0].V != 101 {
		t.Fatalf("returned lanes should alias the evaluator's scratch: %v", aliased.Lanes[0])
	}
	if kept.Lanes[0].V != 2 {
		t.Fatalf("cloned return mutated: %v", kept.Lanes[0])
	}
}
