package alive

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/parser"
)

// batchedPairs are (src, tgt, wantCorrect) triples over the shapes that
// need the batch executor's per-lane machinery: memory access, multi-block
// control flow, and both at once.
var batchedPairs = []struct {
	name    string
	src     string
	tgt     string
	correct bool
}{
	{"mem-correct",
		`define void @src(ptr %p, i8 %x) { %d = shl i8 %x, 1 store i8 %d, ptr %p ret void }`,
		`define void @tgt(ptr %p, i8 %x) { %d = add i8 %x, %x store i8 %d, ptr %p ret void }`,
		true},
	{"mem-refuted",
		`define void @src(ptr %p, i8 %x) { %d = shl i8 %x, 1 store i8 %d, ptr %p ret void }`,
		`define void @tgt(ptr %p, i8 %x) { %d = shl i8 %x, 2 store i8 %d, ptr %p ret void }`,
		false},
	{"load-refuted",
		`define i16 @src(ptr %0) { %2 = getelementptr i8, ptr %0, i64 2 %3 = load i16, ptr %2, align 1 ret i16 %3 }`,
		`define i16 @tgt(ptr %0) { %2 = load i16, ptr %0, align 1 ret i16 %2 }`,
		false},
	{"branch-correct",
		`define i8 @src(i8 %x) {
entry:
  %c = icmp ult i8 %x, 10
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %r = phi i8 [ 1, %a ], [ 0, %b ]
  ret i8 %r
}`,
		`define i8 @tgt(i8 %x) {
  %c = icmp ult i8 %x, 10
  %r = zext i1 %c to i8
  ret i8 %r
}`,
		true},
	{"branch-refuted",
		`define i8 @src(i8 %x) {
entry:
  %c = icmp ult i8 %x, 10
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %r = phi i8 [ 1, %a ], [ 0, %b ]
  ret i8 %r
}`,
		`define i8 @tgt(i8 %x) {
  %c = icmp ule i8 %x, 10
  %r = zext i1 %c to i8
  ret i8 %r
}`,
		false},
	{"branch-mem-refuted",
		`define i8 @src(ptr %p, i8 %x) {
entry:
  %c = icmp eq i8 %x, 0
  br i1 %c, label %zero, label %nz
zero:
  ret i8 0
nz:
  %v = load i8, ptr %p
  %r = udiv i8 %v, %x
  store i8 %r, ptr %p
  ret i8 %r
}`,
		`define i8 @tgt(ptr %p, i8 %x) {
entry:
  %c = icmp eq i8 %x, 0
  br i1 %c, label %zero, label %nz
nz:
  %v = load i8, ptr %p
  %r = udiv i8 %v, %x
  ret i8 %r
zero:
  ret i8 0
}`,
		false},
}

// TestBatchedMatchesReferenceOnMemoryAndBranches is the differential for
// memory-touching and multi-block pairs: they run entirely on the
// lane-batched path and must agree with ReferenceVerify on verdict, counts
// and byte-identical counterexample text.
func TestBatchedMatchesReferenceOnMemoryAndBranches(t *testing.T) {
	for _, tc := range batchedPairs {
		t.Run(tc.name, func(t *testing.T) {
			src := parser.MustParseFunc(tc.src)
			tgt := parser.MustParseFunc(tc.tgt)
			opts := Options{Seed: 7, Samples: 160, MemFills: 3}
			fast := Verify(src, tgt, opts)
			ref := ReferenceVerify(src, tgt, opts)
			if diff := resultsEqual(fast, ref); diff != "" {
				t.Fatalf("batched and reference disagree: %s", diff)
			}
			if got := fast.Verdict == Correct; got != tc.correct {
				extra := ""
				if fast.CE != nil {
					extra = "\n" + fast.CE.Format()
				}
				t.Fatalf("verdict %v, want correct=%v%s", fast.Verdict, tc.correct, extra)
			}
			if fast.Tiers.Fallback != 0 || fast.Tiers.Batched != fast.Checked {
				t.Fatalf("pair should run fully batched: batched %d fallback %d checked %d",
					fast.Tiers.Batched, fast.Tiers.Fallback, fast.Checked)
			}
		})
	}
}

// TestBatchCoverageCounters pins the Batched/Fallback split: the two always
// sum to Checked, and the Checker runs every pair fully batched — including
// dynamic vector constants such as splat (i8 %x), whose verdicts and
// counterexample text equal the reference path's. Only ReferenceVerify
// counts fallback vectors.
func TestBatchCoverageCounters(t *testing.T) {
	for _, tc := range batchedPairs {
		src := parser.MustParseFunc(tc.src)
		tgt := parser.MustParseFunc(tc.tgt)
		res := Verify(src, tgt, Options{Seed: 9, Samples: 64})
		if res.Tiers.Batched+res.Tiers.Fallback != res.Checked {
			t.Fatalf("%s: batched %d + fallback %d != checked %d",
				tc.name, res.Tiers.Batched, res.Tiers.Fallback, res.Checked)
		}
	}

	dyn := parser.MustParseFunc(
		`define <2 x i8> @f(<2 x i8> %v, i8 %x) { %r = add <2 x i8> %v, splat (i8 %x) ret <2 x i8> %r }`)
	half := parser.MustParseFunc(
		`define <2 x i8> @g(<2 x i8> %v, i8 %x) { %r = add <2 x i8> %v, <i8 %x, i8 1> ret <2 x i8> %r }`)
	for _, tc := range []struct {
		name    string
		tgt     *ir.Func
		verdict Verdict
	}{{"reflexive", dyn, Correct}, {"refuted", half, Incorrect}} {
		opts := Options{Seed: 9, Samples: 64}
		res := Verify(dyn, tc.tgt, opts)
		if res.Verdict != tc.verdict {
			t.Fatalf("%s: verdict %v, want %v", tc.name, res.Verdict, tc.verdict)
		}
		if res.Tiers.Fallback != 0 || res.Tiers.Batched != res.Checked || res.Checked == 0 {
			t.Fatalf("%s: dynamic-vector pair should run fully batched: batched %d fallback %d checked %d",
				tc.name, res.Tiers.Batched, res.Tiers.Fallback, res.Checked)
		}
		ref := ReferenceVerify(dyn, tc.tgt, opts)
		if diff := resultsEqual(res, ref); diff != "" {
			t.Fatalf("%s: batched and reference disagree: %s", tc.name, diff)
		}
		if ref.Tiers.Batched != 0 || ref.Tiers.Fallback != ref.Checked {
			t.Fatalf("%s: reference path counts every vector as fallback: %+v", tc.name, ref.Tiers)
		}
	}
}

// TestBatchedMemoryCounterexampleText pins counterexample fidelity on the
// batched memory path: the report must include the raw generated pointer
// argument, the initial memory fill, and the memory-mismatch description,
// all byte-identical to the reference path.
func TestBatchedMemoryCounterexampleText(t *testing.T) {
	src := parser.MustParseFunc(
		`define void @src(ptr %p, i8 %x) { store i8 %x, ptr %p ret void }`)
	tgt := parser.MustParseFunc(
		`define void @tgt(ptr %p, i8 %x) { %d = add i8 %x, 1 store i8 %d, ptr %p ret void }`)
	opts := Options{Seed: 13}
	fast := Verify(src, tgt, opts)
	if fast.Verdict != Incorrect {
		t.Fatalf("stored bytes differ, want Incorrect, got %v", fast.Verdict)
	}
	text := fast.CE.Format()
	if !strings.Contains(text, "memory at %p") || !strings.Contains(text, "Mismatch in p at byte") {
		t.Fatalf("memory counterexample incomplete:\n%s", text)
	}
	ref := ReferenceVerify(src, tgt, opts)
	if ref.CE.Format() != text {
		t.Fatalf("batched and reference counterexamples differ:\n%s\nvs\n%s", text, ref.CE.Format())
	}
}
