package interp

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/parser"
)

var raceEnabled bool

// TestEvaluatorSteadyStateAllocs pins the compile-once contract on the
// streaming entry point the verifier uses: refilling the argument columns
// and running a full batch of a compiled straight-line window allocates
// nothing once the evaluator is warm.
func TestEvaluatorSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by the race runtime")
	}
	f := parser.MustParseFunc(`define i8 @f(i32 %0) {
  %2 = icmp slt i32 %0, 0
  %3 = tail call i32 @llvm.umin.i32(i32 %0, i32 255)
  %4 = trunc nuw i32 %3 to i8
  %5 = select i1 %2, i8 0, i8 %4
  ret i8 %5
}`)
	ev := NewEvaluator(Compile(f))
	col := ev.ArgColumn(0)
	run := func() {
		for b := range col {
			col[b] = Word{V: uint64(b*97) & ir.MaskW(32)}
		}
		ev.RunBatchFilled(BatchWidth, nil)
	}
	run()
	allocs := testing.AllocsPerRun(200, run)
	if allocs != 0 {
		t.Fatalf("steady-state RunBatchFilled allocates %.1f times per batch, want 0", allocs)
	}
	if r := ev.Result(0); !r.Completed || r.UB {
		t.Fatalf("unexpected result %+v", r)
	}
}
