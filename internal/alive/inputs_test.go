package alive

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/parser"
)

// eagerVec is one pre-materialized input vector of the historic eager
// generator, replicated below as the equivalence reference.
type eagerVec struct {
	args []interp.RVal
	mem  [][]byte
}

// eagerQueue is a verbatim replica of the pre-streaming inputGen: it builds
// the whole queue up front, drawing from the rng in the historic order. The
// streaming generator must emit the exact same sequence.
func eagerQueue(f *ir.Func, opts Options) ([]eagerVec, bool) {
	rng := rand.New(rand.NewSource(int64(opts.Seed) ^ 0x5eed))
	totalBits := 0
	numPtrs := 0
	for _, p := range f.Params {
		if ir.IsPtr(p.Ty) {
			numPtrs++
			continue
		}
		totalBits += ir.ScalarBits(ir.Elem(p.Ty)) * ir.Lanes(p.Ty)
	}
	exhaustive := totalBits <= opts.MaxExhaustiveBits

	mkFills := func() [][][]byte {
		if numPtrs == 0 {
			return [][][]byte{nil}
		}
		mk := func(gen func(i int) byte) [][]byte {
			out := make([][]byte, numPtrs)
			for p := 0; p < numPtrs; p++ {
				b := make([]byte, opts.MemSize)
				for i := range b {
					b[i] = gen(i + p*7)
				}
				out[p] = b
			}
			return out
		}
		fills := [][][]byte{
			mk(func(int) byte { return 0 }),
			mk(func(i int) byte { return byte(i) }),
		}
		for len(fills) < opts.MemFills {
			fills = append(fills, mk(func(int) byte { return byte(rng.Intn(256)) }))
		}
		return fills[:opts.MemFills]
	}
	fills := mkFills()

	argsFromCounter := func(c uint64) []interp.RVal {
		args := make([]interp.RVal, len(f.Params))
		bit := uint(0)
		for i, p := range f.Params {
			if ir.IsPtr(p.Ty) {
				args[i] = interp.Scalar(ir.Ptr, 0)
				continue
			}
			w := ir.ScalarBits(ir.Elem(p.Ty))
			lanes := ir.Lanes(p.Ty)
			rv := interp.RVal{Ty: p.Ty, Lanes: make([]interp.Word, lanes)}
			for l := 0; l < lanes; l++ {
				v := (c >> bit) & ir.MaskW(w)
				bit += uint(w)
				rv.Lanes[l] = interp.Word{V: v}
			}
			args[i] = rv
		}
		return args
	}

	var queue []eagerVec
	if exhaustive {
		for c := uint64(0); c < uint64(1)<<uint(totalBits); c++ {
			args := argsFromCounter(c)
			for _, m := range fills {
				queue = append(queue, eagerVec{args: args, mem: m})
			}
		}
	} else {
		specials := 0
		for _, p := range f.Params {
			if n := len(specialLanes(p.Ty)); n > specials {
				specials = n
			}
		}
		for k := 0; k < specials; k++ {
			args := make([]interp.RVal, len(f.Params))
			for i, p := range f.Params {
				args[i] = specialArg(p.Ty, k)
			}
			queue = append(queue, eagerVec{args: args, mem: fills[k%len(fills)]})
		}
		for k := 0; k < opts.Samples/8; k++ {
			args := make([]interp.RVal, len(f.Params))
			for i, p := range f.Params {
				args[i] = specialArg(p.Ty, rng.Intn(specials+1))
			}
			queue = append(queue, eagerVec{args: args, mem: fills[rng.Intn(len(fills))]})
		}
		for k := 0; k < opts.Samples; k++ {
			args := make([]interp.RVal, len(f.Params))
			for i, p := range f.Params {
				args[i] = randomArg(p.Ty, rng)
			}
			queue = append(queue, eagerVec{args: args, mem: fills[rng.Intn(len(fills))]})
		}
	}
	for i, p := range f.Params {
		if ir.IsPtr(p.Ty) {
			continue
		}
		for trial := 0; trial < 2; trial++ {
			args := make([]interp.RVal, len(f.Params))
			for j, q := range f.Params {
				if j == i {
					args[j] = interp.PoisonRV(q.Ty)
				} else if trial == 0 {
					args[j] = specialArg(q.Ty, 0)
				} else {
					args[j] = randomArg(q.Ty, rng)
				}
			}
			queue = append(queue, eagerVec{args: args, mem: fills[trial%len(fills)]})
		}
	}
	return queue, exhaustive
}

func fmtVec(args []interp.RVal, mem [][]byte) string {
	s := ""
	for _, a := range args {
		s += a.Format() + "; "
	}
	for _, m := range mem {
		s += fmt.Sprintf("%x;", m)
	}
	return s
}

// colStream reads the generated sequence through the batch path, fill into
// BatchWidth-slot columns laid out like the checker's, one slot at a time.
type colStream struct {
	g      *inputGen
	cols   [][]interp.Word
	memIdx []int
	tiers  batchTiers
	n, b   int
}

func newColStream(f *ir.Func, opts Options) *colStream {
	s := &colStream{g: newInputGen(f, opts), memIdx: make([]int, interp.BatchWidth)}
	for _, p := range f.Params {
		s.cols = append(s.cols, make([]interp.Word, ir.Lanes(p.Ty)*interp.BatchWidth))
	}
	return s
}

// next advances to the following slot, refilling a batch when the current
// one is used up. On a refill it checks the batch's per-batch tier counts
// against the per-slot tiers for every prefix of the batch.
func (s *colStream) next(t *testing.T) bool {
	if s.b++; s.b < s.n {
		return true
	}
	s.n, s.b = s.g.fill(s.cols, s.memIdx, &s.tiers), 0
	var perSlot TierStats
	for m := 0; m <= s.n; m++ {
		var perBatch TierStats
		s.tiers.count(&perBatch, m)
		if perBatch != perSlot {
			t.Fatalf("tier counts of a %d-slot prefix: per batch %+v, per slot %+v", m, perBatch, perSlot)
		}
		if m < s.n {
			perSlot.count(s.tiers.tier(m))
		}
	}
	return s.n > 0
}

// vec formats the current slot like fmtVec, with its tier.
func (s *colStream) vec() (string, int) {
	args := make([]interp.RVal, len(s.g.params))
	for i, p := range s.g.params {
		L := s.g.lanes[i]
		args[i] = interp.RVal{Ty: p.Ty, Lanes: s.cols[i][s.b*L : (s.b+1)*L]}
	}
	return fmtVec(args, s.g.fills[s.memIdx[s.b]]), s.tiers.tier(s.b)
}

// TestStreamingInputGenMatchesEagerReference locks the streaming generator
// to the historic eager queue: same length, same values, same memory fills,
// same order, for a spread of signatures and seeds. The batch path (fill
// into BatchWidth-slot columns) must emit the same sequence as next() slot
// for slot, with the same tiers and memories, including the shapes whose
// exhaustive space is not a multiple of the batch width (so the exhaustive
// phase hands over to the poison trials in the middle of a batch).
func TestStreamingInputGenMatchesEagerReference(t *testing.T) {
	funcs := []string{
		`define i8 @f(i8 %x, i8 %y) { %r = add i8 %x, %y ret i8 %r }`,                               // exhaustive
		`define i8 @f(i32 %x) { %r = trunc i32 %x to i8 ret i8 %r }`,                                // sampled scalar
		`define i1 @f(double %x) { %r = fcmp ord double %x, %x ret i1 %r }`,                         // float corners
		`define <4 x i8> @f(<4 x i8> %v, <4 x i8> %w) { %r = and <4 x i8> %v, %w ret <4 x i8> %r }`, // sampled vector
		`define i8 @f(ptr %p) { %r = load i8, ptr %p ret i8 %r }`,                                   // exhaustive + memory
		`define i16 @f(ptr %p, ptr %q, i32 %x) { %r = trunc i32 %x to i16 ret i16 %r }`,             // sampled + two regions
		`define i8 @f() { ret i8 7 }`,                                                               // no params
		`define i1 @f(i1 %x) { ret i1 %x }`,                                                         // batch edges: 2 vectors
		`define i3 @f(i3 %x) { ret i3 %x }`,                                                         // 8
		`define i5 @f(i5 %x) { ret i5 %x }`,                                                         // 32
		`define i1 @f(i1 %x, i1 %y, i1 %z) { %a = and i1 %x, %y %r = or i1 %a, %z ret i1 %r }`,      // 8, three poison params
		`define i4 @f(i4 %x, i2 %y) { %z = zext i2 %y to i4 %r = add i4 %x, %z ret i4 %r }`,         // 64 + poison
		`define i8 @f(ptr %p, i8 %x) { %v = load i8, ptr %p %r = add i8 %v, %x ret i8 %r }`,         // 256 x fills
		`define <2 x i4> @f(<2 x i4> %v, i3 %s) { ret <2 x i4> %v }`,                                // 2-lane exhaustive
	}
	for fi, src := range funcs {
		f := parser.MustParseFunc(src)
		for _, seed := range []uint64{0, 1, 42} {
			opts := Options{Seed: seed, Samples: 64, MemFills: 3, MemSize: 16}.withDefaults()
			want, wantExh := eagerQueue(f, opts)
			g := newInputGen(f, opts)
			if g.exhaustive != wantExh {
				t.Fatalf("func %d seed %d: exhaustive=%v, want %v", fi, seed, g.exhaustive, wantExh)
			}
			cs := newColStream(f, opts)
			i := 0
			for g.next() {
				if i >= len(want) {
					t.Fatalf("func %d seed %d: streaming emits more than %d vectors", fi, seed, len(want))
				}
				got := fmtVec(g.inputs, g.memBytes)
				exp := fmtVec(want[i].args, want[i].mem)
				if got != exp {
					t.Fatalf("func %d seed %d vector %d differs:\ngot  %s\nwant %s", fi, seed, i, got, exp)
				}
				if !cs.next(t) {
					t.Fatalf("func %d seed %d: batch path ends at vector %d", fi, seed, i)
				}
				if col, tier := cs.vec(); col != got || tier != g.tier() {
					t.Fatalf("func %d seed %d vector %d: batch path differs from next:\nbatch %s (tier %d)\nnext  %s (tier %d)",
						fi, seed, i, col, tier, got, g.tier())
				}
				i++
			}
			if i != len(want) {
				t.Fatalf("func %d seed %d: streaming emitted %d vectors, eager %d", fi, seed, i, len(want))
			}
			if cs.next(t) {
				t.Fatalf("func %d seed %d: batch path emits more than %d vectors", fi, seed, i)
			}
		}
	}
}
