package interp

import (
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/parser"
)

// fuzzLanes is the number of input vectors each fuzz input runs, and
// fuzzSteps their step budget.
const (
	fuzzLanes = 5
	fuzzSteps = 1 << 12
)

// FuzzBatchMatchesExec parses arbitrary .ll text, compiles the first
// function and runs a few input vectors through RunBatch in one batch and
// one at a time through the reference interpreter Exec. Return values,
// UB flags and reasons, completion and step counts must agree bit for bit,
// and so must the final memory behind pointer arguments. Text that does not
// parse is skipped; the step budget is small so generated loops stay cheap.
func FuzzBatchMatchesExec(f *testing.F) {
	for _, tc := range diffCases {
		f.Add(tc.src, uint64(1))
	}
	for _, src := range []string{
		`define <2 x i8> @f(i8 %x) { ret <2 x i8> splat (i8 %x) }`,
		`define <2 x i8> @f(i8 %x, <2 x i8> %v) {
  %r = sub <2 x i8> <i8 %x, i8 3>, %v
  ret <2 x i8> %r
}`,
		`define i8 @f(i8 %x, i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  %y = shl i8 %x, 1
  br label %b
b:
  %p = phi i8 [ %y, %a ], [ %x, %entry ]
  %v = insertelement <2 x i8> <i8 %y, i8 %p>, i8 %p, i32 0
  %e = extractelement <2 x i8> %v, i32 1
  ret i8 %e
}`,
		`define i32 @f(ptr %p, ptr %q, i64 %i) {
  %g = getelementptr i8, ptr %p, i64 %i
  %v = load i32, ptr %g, align 1
  store i32 %v, ptr %q, align 1
  %h = getelementptr inbounds i8, ptr %q, i64 2
  %w = load i16, ptr %h, align 1
  %z = zext i16 %w to i32
  %r = add i32 %v, %z
  ret i32 %r
}`,
	} {
		f.Add(src, uint64(2))
	}
	f.Fuzz(func(t *testing.T, src string, seed uint64) {
		fn, err := parser.ParseFunc(src)
		if err != nil {
			return
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		vectors := make([][]RVal, fuzzLanes)
		for i := range vectors {
			vectors[i] = fuzzArgs(fn, rng)
		}
		envs := batchEnvs(fn, vectors, fuzzSteps)
		out := make([]Result, len(envs))
		NewEvaluator(Compile(fn)).RunBatch(envs, out)
		ref := batchEnvs(fn, vectors, fuzzSteps)
		for i := range ref {
			want := Exec(fn, ref[i])
			if diff := sameResult(want, out[i]); diff != "" {
				t.Fatalf("vector %d: RunBatch vs Exec: %s\n%s", i, diff, src)
			}
			if diff := sameMemory(ref[i].Mem, envs[i].Mem); diff != "" {
				t.Fatalf("vector %d: final memory: %s\n%s", i, diff, src)
			}
		}
	})
}

// fuzzArgs draws one well-typed argument vector: corner or random lane
// values, with an occasional all-poison argument.
func fuzzArgs(fn *ir.Func, rng *rand.Rand) []RVal {
	args := make([]RVal, len(fn.Params))
	for i, p := range fn.Params {
		if rng.Intn(8) == 0 {
			args[i] = PoisonRV(p.Ty)
			continue
		}
		mask := ir.MaskW(ir.ScalarBits(ir.Elem(p.Ty)))
		lanes := make([]Word, ir.Lanes(p.Ty))
		for l := range lanes {
			switch rng.Intn(4) {
			case 0:
				lanes[l] = Word{V: uint64(rng.Intn(4))}
			case 1:
				lanes[l] = Word{V: mask}
			default:
				lanes[l] = Word{V: rng.Uint64() & mask}
			}
		}
		args[i] = RVal{Ty: p.Ty, Lanes: lanes}
	}
	return args
}
