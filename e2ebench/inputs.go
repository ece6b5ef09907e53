package main

import (
	"fmt"
	"math/rand"

	"repro/internal/corpus"
	"repro/internal/extract"
	"repro/internal/generalize"
	"repro/internal/ir"
	"repro/internal/parser"
)

// window is one lpod input: printed IR and its content address.
type window struct {
	text string
	hash uint64
	key  string // 16-hex window key, as lpod names it
	fn   *ir.Func
}

// corpusSeed maps the benchmark seed and an index to a corpus seed, so runs
// with different benchmark seeds use disjoint corpus seeds.
func corpusSeed(seed uint64, i int) uint64 { return seed*1000 + uint64(i) + 1 }

// rewidths are the widths corpus windows are re-instantiated at.
var rewidths = []int{8, 16, 32, 64}

// windowSet builds lpod's input: the corpus's extracted windows
// re-instantiated at 8/16/32/64 bits, then seeded random integer windows of
// 2-5 instructions up to n windows, all distinct by structural hash. It
// also returns how many windows came from the corpus.
func windowSet(seed uint64, n int) ([]window, int, error) {
	seen := map[uint64]bool{}
	var out []window
	add := func(fn *ir.Func) error {
		if len(out) >= n {
			return nil
		}
		// Round-trip through the printer and parser: lpod receives text,
		// and the hash the benchmark expects must be the one lpod computes.
		text := fn.String()
		parsed, err := parser.ParseFunc(text)
		if err != nil {
			return fmt.Errorf("window does not re-parse: %w\n%s", err, text)
		}
		h := ir.Hash(parsed)
		if seen[h] {
			return nil
		}
		seen[h] = true
		out = append(out, window{text: parsed.String(), hash: h, key: fmt.Sprintf("%016x", h), fn: parsed})
		return nil
	}

	ex := extract.New(extract.Options{})
	for _, p := range corpus.Generate(corpus.Options{Seed: corpusSeed(seed, 0)}) {
		for _, m := range p.Modules {
			for _, seq := range ex.Module(m) {
				for _, w := range rewidths {
					fn, err := generalize.Rewidth(seq.Fn, w)
					if err != nil {
						continue // not re-instantiable at this width
					}
					if err := add(fn); err != nil {
						return nil, 0, err
					}
				}
			}
		}
	}
	fromCorpus := len(out)
	rng := rand.New(rand.NewSource(int64(seed)))
	for i := 0; len(out) < n; i++ {
		if err := add(randomWindow(rng, i)); err != nil {
			return nil, 0, err
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, fromCorpus, nil
}

var randomOps = []ir.Opcode{
	ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
	ir.OpShl, ir.OpLShr, ir.OpAShr,
}

// randomWindow is a straight-line integer function of 2-5 instructions.
func randomWindow(rng *rand.Rand, id int) *ir.Func {
	ty := ir.IntType{W: rewidths[rng.Intn(len(rewidths))]}
	var params []*ir.Param
	var values []ir.Value
	for i := 0; i < 1+rng.Intn(3); i++ {
		p := &ir.Param{Nm: fmt.Sprintf("a%d", i), Ty: ty}
		params = append(params, p)
		values = append(values, p)
	}
	var instrs []*ir.Instr
	for i := 0; i < 2+rng.Intn(4); i++ {
		op := randomOps[rng.Intn(len(randomOps))]
		a := values[rng.Intn(len(values))]
		var b ir.Value
		switch {
		case op == ir.OpShl || op == ir.OpLShr || op == ir.OpAShr:
			b = ir.CInt(ty, int64(1+rng.Intn(ty.W-1)))
		case rng.Intn(2) == 0:
			b = values[rng.Intn(len(values))]
		default:
			b = ir.CInt(ty, int64(rng.Intn(256)-128))
		}
		in := ir.Bin(op, fmt.Sprintf("v%d", i), ir.NoFlags, a, b)
		instrs = append(instrs, in)
		values = append(values, in)
	}
	instrs = append(instrs, ir.RetI(instrs[len(instrs)-1]))
	return &ir.Func{
		Name:   fmt.Sprintf("rand_%d", id),
		Ret:    ty,
		Params: params,
		Blocks: []*ir.Block{{Name: "entry", Instrs: instrs}},
	}
}

// widthOf buckets a window by the bit width of its result: 8, 16, 32, 64,
// or 0 for anything else (i1, odd widths, vectors, pointers, void).
func widthOf(fn *ir.Func) int {
	if t, ok := fn.Ret.(ir.IntType); ok {
		switch t.W {
		case 8, 16, 32, 64:
			return t.W
		}
	}
	return 0
}

// inputMix tallies the input properties provider and verify work depend
// on: the width mix, and how many windows reach verify and end Found.
type inputMix struct {
	windows, reachVerify, found int
	widths                      map[int]int
}

func newInputMix() *inputMix { return &inputMix{widths: map[int]int{}} }

// add counts one window by its width and final outcome. reachedVerify
// says whether any of its attempts got a verdict from verify; a found
// window always has.
func (m *inputMix) add(fn *ir.Func, outcome string, reachedVerify bool) {
	m.windows++
	m.widths[widthOf(fn)]++
	if outcome == "found" {
		m.found++
	}
	if reachedVerify || outcome == "found" {
		m.reachVerify++
	}
}

func (m *inputMix) report(r *result) {
	n := float64(m.windows)
	for _, w := range []int{8, 16, 32, 64, 0} {
		name := fmt.Sprintf("input.width%d_share", w)
		if w == 0 {
			name = "input.width_other_share"
		}
		r.layer[name] = ratio(float64(m.widths[w]), n)
	}
	r.layer["input.reach_verify_share"] = ratio(float64(m.reachVerify), n)
	r.layer["input.found_share"] = ratio(float64(m.found), n)
	r.note("inputs: %d windows; width mix i8 %.3f, i16 %.3f, i32 %.3f, i64 %.3f, other %.3f; reach verify %.3f; found %.3f",
		m.windows, ratio(float64(m.widths[8]), n), ratio(float64(m.widths[16]), n),
		ratio(float64(m.widths[32]), n), ratio(float64(m.widths[64]), n), ratio(float64(m.widths[0]), n),
		ratio(float64(m.reachVerify), n), ratio(float64(m.found), n))
}
