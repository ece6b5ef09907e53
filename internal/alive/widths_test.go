package alive

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/parser"
)

// columnCases pair functions whose return shapes exercise both refinement
// scans: scalar register and scalar constant returns read as columns, and
// vector register returns, programs with several rets and vector constant
// returns (with or without runtime elements) read per lane. Most pairs
// violate on some lanes (poison, UB, NaN payloads, value mismatches), so
// the scans are compared at many violating lanes, not only the first.
var columnCases = []struct {
	name     string
	src, tgt string
	cols     bool // both programs expose a return column
}{
	{"poison-tgt", `define i8 @src(i8 %x, i8 %y) { %r = add i8 %x, %y ret i8 %r }`,
		`define i8 @tgt(i8 %x, i8 %y) { %r = add nsw i8 %x, %y ret i8 %r }`, true},
	{"poison-src", `define i8 @src(i8 %x, i8 %y) { %r = add nuw i8 %x, %y ret i8 %r }`,
		`define i8 @tgt(i8 %x, i8 %y) { %r = sub i8 %x, %y ret i8 %r }`, true},
	{"tgt-ub", `define i8 @src(i8 %x, i8 %y) { %r = and i8 %x, %y ret i8 %r }`,
		`define i8 @tgt(i8 %x, i8 %y) { %r = udiv i8 %x, %y ret i8 %r }`, true},
	// 0/0 and inf/inf give a NaN whose bits differ from the target's
	// constant NaN: those lanes refine, every other lane violates.
	{"nan-bits", `define double @src(double %x) { %r = fdiv double %x, %x ret double %r }`,
		`define double @tgt(double %x) { ret double 0x7FF8000000000000 }`, true},
	{"float-mismatch", `define float @src(float %x, float %y) { %r = fadd float %x, %y ret float %r }`,
		`define float @tgt(float %x, float %y) { %r = fsub float %x, %y ret float %r }`, true},
	{"vector", `define <4 x i8> @src(<4 x i8> %x, <4 x i8> %y) { %r = add nuw <4 x i8> %x, %y ret <4 x i8> %r }`,
		`define <4 x i8> @tgt(<4 x i8> %x, <4 x i8> %y) { %r = or <4 x i8> %x, %y ret <4 x i8> %r }`, false},
	{"param-ret", `define i8 @src(i8 %x, i8 %y) { %r = or i8 %x, 0 ret i8 %r }`,
		`define i8 @tgt(i8 %x, i8 %y) { ret i8 %y }`, true},
	{"const-ret", `define i8 @src(i8 %x) { %a = and i8 %x, 3 %r = lshr i8 %a, 1 ret i8 %r }`,
		`define i8 @tgt(i8 %x) { ret i8 1 }`, true},
	{"const-vector-ret", `define <2 x i8> @src(<2 x i8> %x) { %r = and <2 x i8> %x, <i8 1, i8 2> ret <2 x i8> %r }`,
		`define <2 x i8> @tgt(<2 x i8> %x) { ret <2 x i8> <i8 1, i8 0> }`, false},
	{"multi-ret", `define i8 @src(i8 %x, i8 %y) {
entry:
  %c = icmp ult i8 %x, %y
  br i1 %c, label %a, label %b
a:
  ret i8 %x
b:
  ret i8 %y
}`, `define i8 @tgt(i8 %x, i8 %y) { %r = call i8 @llvm.umax.i8(i8 %x, i8 %y) ret i8 %r }`, false},
	{"dyn-vector-ret", `define <2 x i8> @src(i8 %x, i8 %y) { ret <2 x i8> <i8 %x, i8 %y> }`,
		`define <2 x i8> @tgt(i8 %x, i8 %y) {
  %a = insertelement <2 x i8> poison, i8 %y, i32 0
  %b = insertelement <2 x i8> %a, i8 %y, i32 1
  ret <2 x i8> %b
}`, false},
}

// TestColumnRefinementMatchesPerLane runs every columnCases pair over its
// whole input sequence and, per batch, requires the column scan and the
// per-lane RetLanes scan to report the same violating lane — then again
// after masking off each reported lane, until no violation is left.
func TestColumnRefinementMatchesPerLane(t *testing.T) {
	for _, tc := range columnCases {
		src, tgt := parser.MustParseFunc(tc.src), parser.MustParseFunc(tc.tgt)
		c := NewChecker(src, tgt, Options{Seed: 7, Samples: 512})
		gen := newInputGen(src, c.opts)
		violations := 0
		for {
			n := gen.fill(c.srcCols, c.memIdx, &c.tiers)
			if n == 0 {
				break
			}
			for k, L := range c.lanes {
				copy(c.tgtCols[k][:n*L], c.srcCols[k][:n*L])
			}
			c.se.RunBatchFilled(n, nil)
			c.te.RunBatchFilled(n, nil)
			sDone, sUB := c.se.Outcome()
			tDone, tUB := c.te.Outcome()
			sc, tcol := c.se.RetColumn(), c.te.RetColumn()
			if got := sc != nil && tcol != nil; got != tc.cols {
				t.Fatalf("%s: return columns available = %v, want %v", tc.name, got, tc.cols)
			}
			for m := sDone &^ sUB & tDone; ; {
				col, _ := c.scanViolation(m, tUB, sc, tcol)
				lane, _ := c.scanViolation(m, tUB, nil, nil)
				if col != lane {
					t.Fatalf("%s: column scan reports lane %d, per-lane scan lane %d", tc.name, col, lane)
				}
				if col < 0 {
					break
				}
				violations++
				m &^= 2<<uint(col) - 1
			}
		}
		t.Logf("%s: %d violating lanes", tc.name, violations)
		ref := ReferenceVerify(src, tgt, c.opts)
		if got := c.Verify(); got.Verdict != ref.Verdict || (violations > 0) != (ref.Verdict == Incorrect) {
			t.Fatalf("%s: verdict %v, reference %v, %d violating lanes", tc.name, got.Verdict, ref.Verdict, violations)
		}
	}
}

// TestVerifyWidthsReusesProof pins when a width sweep may skip the witness
// width's exhaustive enumeration: only for a Correct, Exhaustive proof of
// exactly the instantiated pair without pointer parameters. The skip
// changes nothing but Checked; every other proof leaves the sweep as it
// runs without one.
func TestVerifyWidthsReusesProof(t *testing.T) {
	opts := Options{Seed: 1, Samples: 128, Programs: interp.NewCache()}
	sweep := func(src, tgt *ir.Func, proof *Proof) []WidthResult {
		return VerifyWidths([]int{8, 16}, opts, proof, func(w int) (*ir.Func, *ir.Func, error) {
			s, err := rewidthFunc(src, w)
			if err != nil {
				return nil, nil, err
			}
			d, err := rewidthFunc(tgt, w)
			return s, d, err
		})
	}
	proofOf := func(src, tgt *ir.Func, o Options) *Proof {
		return &Proof{Src: ir.Hash(src), Tgt: ir.Hash(tgt), Result: Verify(src, tgt, o)}
	}
	sum := parser.MustParseFunc(`define i8 @src(i8 %x, i8 %y) { %r = add i8 %x, %y ret i8 %r }`)
	swapped := parser.MustParseFunc(`define i8 @tgt(i8 %x, i8 %y) { %r = add i8 %y, %x ret i8 %r }`)

	full := sweep(sum, swapped, nil)
	reused := sweep(sum, swapped, proofOf(sum, swapped, opts))
	if w := reused[0]; w.Skipped != 1<<16 || w.Checked+w.Skipped != full[0].Checked || !w.Exhaustive ||
		w.Verdict != Correct || w.Tiers.KillTier != TierNone {
		t.Fatalf("witness width: skipped %d, checked %d (full sweep %d), exhaustive %v, verdict %v",
			w.Skipped, w.Checked, full[0].Checked, w.Exhaustive, w.Verdict)
	}
	if diff := resultsEqual(reused[1].Result, full[1].Result); diff != "" || reused[1].Skipped != 0 {
		t.Fatalf("width 16 must not reuse the i8 proof: %s, skipped %d", diff, reused[1].Skipped)
	}

	ptrSrc := parser.MustParseFunc(`define i8 @src(ptr %p, i8 %x) { %v = load i8, ptr %p %r = add i8 %v, %x ret i8 %r }`)
	ptrTgt := parser.MustParseFunc(`define i8 @tgt(ptr %p, i8 %x) { %v = load i8, ptr %p %r = add i8 %x, %v ret i8 %r }`)
	sampled := opts
	sampled.MaxExhaustiveBits = 8
	incorrect := proofOf(sum, swapped, opts)
	incorrect.Result.Verdict = Incorrect
	for _, tc := range []struct {
		name     string
		src, tgt *ir.Func
		proof    *Proof
	}{
		{"sampled proof", sum, swapped, proofOf(sum, swapped, sampled)},
		{"incorrect proof", sum, swapped, incorrect},
		{"other pair", sum, swapped, proofOf(swapped, sum, opts)},
		{"pointer params", ptrSrc, ptrTgt, proofOf(ptrSrc, ptrTgt, opts)},
	} {
		if tc.name != "incorrect proof" && (tc.proof.Result.Verdict != Correct ||
			tc.proof.Result.Exhaustive == (tc.name == "sampled proof")) {
			t.Fatalf("%s: proof verdict %v exhaustive %v", tc.name, tc.proof.Result.Verdict, tc.proof.Result.Exhaustive)
		}
		want := sweep(tc.src, tc.tgt, nil)
		got := sweep(tc.src, tc.tgt, tc.proof)
		for i := range want {
			if diff := resultsEqual(got[i].Result, want[i].Result); diff != "" || got[i].Skipped != 0 {
				t.Fatalf("%s, width %d: %s, skipped %d", tc.name, want[i].Width, diff, got[i].Skipped)
			}
		}
	}
}
