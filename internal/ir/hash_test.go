package ir_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/ir"
	"repro/internal/parser"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/hash_golden.txt from the current ir.Hash")

// hashEdgeCases covers the hashed constructs the benchdata pairs and the
// corpus may not: float, vector, splat and special constants, forward phi
// references, branch labels, gep element types and fcmp predicates.
var hashEdgeCases = []string{
	`define double @f(double %x, float %y) {
  %a = fadd double %x, -2.500000e-01
  %b = fpext float %y to double
  %c = fcmp olt double %a, %b
  %d = select i1 %c, double 0x7FF8000000000000, double %b
  ret double %d
}`,
	`define <4 x i8> @f(<4 x i8> %x, i8 %s) {
  %a = add <4 x i8> %x, <i8 1, i8 -2, i8 3, i8 127>
  %b = and <4 x i8> %a, splat (i8 15)
  %c = xor <4 x i8> %b, zeroinitializer
  %d = or <4 x i8> %c, splat (i8 %s)
  %e = shufflevector <4 x i8> %d, <4 x i8> poison, <4 x i32> <i32 3, i32 2, i32 1, i32 0>
  ret <4 x i8> %e
}`,
	`define i32 @f(i32 %n) {
entry:
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %next, %loop ]
  %next = add nuw nsw i32 %i, 1
  %done = icmp eq i32 %next, %n
  br i1 %done, label %exit, label %loop
exit:
  ret i32 %i
}`,
	`define i1 @f(ptr %p, i64 %k) {
  %q = getelementptr inbounds i16, ptr %p, i64 %k
  %v = load i16, ptr %q, align 2
  store i16 0, ptr %p, align 2
  %c = call i16 @llvm.ctpop.i16(i16 %v)
  %t = icmp ult i16 %c, 3
  %r = and i1 %t, true
  %s = or i1 %r, false
  ret i1 %s
}`,
	`define void @f(ptr %p, i8 %x) {
  store i8 undef, ptr %p
  ret void
}`,
}

// hashInputs returns named functions whose digests are pinned: every
// benchdata pair, hashEdgeCases, and the functions and extracted windows
// of one corpus seed.
func hashInputs(t *testing.T) (names []string, fns []*ir.Func) {
	t.Helper()
	add := func(name string, f *ir.Func) {
		names = append(names, name)
		fns = append(fns, f)
	}
	pair := func(kind string, i int, p benchdata.Pair) {
		add(fmt.Sprintf("%s[%d].src", kind, i), parser.MustParseFunc(p.Src))
		add(fmt.Sprintf("%s[%d].tgt", kind, i), parser.MustParseFunc(p.Tgt))
	}
	for i, c := range benchdata.RQ1Cases() {
		pair("rq1", i, c.Pair)
	}
	for i, f := range benchdata.RQ2Findings() {
		pair("rq2", i, f.Pair)
	}
	for i, src := range hashEdgeCases {
		add(fmt.Sprintf("edge[%d]", i), parser.MustParseFunc(src))
	}
	// More values than Hash numbers inline, with operands on both sides of
	// that boundary.
	var long strings.Builder
	long.WriteString("define i32 @long(i32 %x, i32 %y) {\n  %v0 = add i32 %x, %y\n")
	for i := 1; i < 48; i++ {
		fmt.Fprintf(&long, "  %%v%d = sub i32 %%v%d, %%v%d\n", i, i-1, i/3)
	}
	long.WriteString("  ret i32 %v47\n}")
	add("edge-long", parser.MustParseFunc(long.String()))
	ex := extract.New(extract.Options{})
	nwin := 0
	for _, p := range corpus.Generate(corpus.Options{Seed: 1}) {
		for _, m := range p.Modules {
			for _, f := range m.Funcs {
				add(fmt.Sprintf("corpus:%s:%s", m.Name, f.Name), f)
			}
			ex.Stream(m, func(s *extract.Sequence) bool {
				add(fmt.Sprintf("window[%d]", nwin), s.Fn)
				nwin++
				return true
			})
		}
	}
	return names, fns
}

// TestHashGolden pins ir.Hash's digests. They key the verify and program
// caches, extraction dedup and the persistent store's records on disk, so
// any change to the hashed bytes orphans every stored record. Regenerate
// the golden file with -update only for a deliberate format change.
func TestHashGolden(t *testing.T) {
	names, fns := hashInputs(t)
	var sb strings.Builder
	for i, f := range fns {
		fmt.Fprintf(&sb, "%s %016x\n", names[i], ir.Hash(f))
	}
	const path = "testdata/hash_golden.txt"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	got := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d digests, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest changed: got %q, golden %q", got[i], want[i])
		}
	}
}

// TestHashSteadyStateAllocs pins that hashing a peephole window allocates
// nothing: Hash runs for every extracted window, verify-cache lookup and
// program-cache lookup.
func TestHashSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by the race runtime")
	}
	for i, src := range []string{hashEdgeCases[3], benchdata.RQ1Cases()[1].Pair.Src, benchdata.RQ2Findings()[0].Pair.Src} {
		f := parser.MustParseFunc(src)
		if allocs := testing.AllocsPerRun(20, func() { ir.Hash(f) }); allocs != 0 {
			t.Errorf("case %d: Hash allocates %.0f times per call, want 0", i, allocs)
		}
	}
}

var raceEnabled bool
