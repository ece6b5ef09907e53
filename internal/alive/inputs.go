package alive

import (
	"math"
	"math/rand"

	"repro/internal/interp"
	"repro/internal/ir"
)

// inputGen produces the sequence of concrete environments to check:
// exhaustive enumeration when the non-pointer input bit budget fits the
// bound, otherwise structured corner values followed by seeded random
// samples; either way a poison trial per argument is appended.
//
// Vectors are generated lazily from the phase counters and the seeded rng —
// the exhaustive space (up to 2^MaxExhaustiveBits counter values times
// MemFills memories) is never materialized. fill writes a whole batch of
// vectors straight into the batch executor's input columns: exhaustive runs
// column by column, the sampled and poison phases vector by vector, because
// the rng draw order is part of the sequence contract (same-seed campaigns
// replay byte-identically). next emits one vector at a time through the
// same code, into buffers reused between calls: callers that retain inputs
// (counterexamples) must clone them. The emitted sequence is identical,
// value for value, to the historic eager queue (guarded by a fixed-seed
// equivalence test).
type inputGen struct {
	params     []*ir.Param
	opts       Options
	rng        *rand.Rand // created at the first draw, see rand
	exhaustive bool

	fills    [][][]byte // initial memories, one entry per pointer param
	tables   [][]uint64 // per-param corner value tables
	specials int        // max table length across params (sampled phases)
	widths   []int      // per-param scalar lane width (hoisted type dispatch)
	masks    []uint64   // per-param lane mask
	lanes    []int      // per-param lanes per vector
	isPtr    []bool     // per-param pointer flag

	phase int
	c     uint64 // exhaustive counter
	cmax  uint64
	fi    int // fill index within the current counter value
	k     int // per-phase item counter
	pi    int // poison phase: param being poisoned
	trial int // poison phase: trial within the param

	ctr [interp.BatchWidth]uint64 // fillCounters: per-slot counter values

	// next's one-vector destination: one column per param, viewed by inputs.
	one      [][]interp.Word
	oneMem   [1]int
	oneTiers batchTiers
	inputs   []interp.RVal
	memBytes [][]byte
}

// Generation phases, in emission order. Exhaustive runs skip the three
// sampled phases; both run the poison trials last.
const (
	phExhaust = iota
	phCorner
	phMixed
	phRandom
	phPoison
	phDone
)

func newInputGen(f *ir.Func, opts Options) *inputGen {
	g := &inputGen{params: f.Params, opts: opts}

	totalBits := 0
	numPtrs := 0
	for _, p := range f.Params {
		if ir.IsPtr(p.Ty) {
			numPtrs++
			continue
		}
		totalBits += ir.ScalarBits(ir.Elem(p.Ty)) * ir.Lanes(p.Ty)
	}
	g.exhaustive = totalBits <= opts.MaxExhaustiveBits
	g.fills = g.memoryFills(numPtrs)

	np := len(f.Params)
	g.tables = make([][]uint64, np)
	g.widths = make([]int, np)
	g.masks = make([]uint64, np)
	g.lanes = make([]int, np)
	g.isPtr = make([]bool, np)
	g.one = make([][]interp.Word, np)
	g.inputs = make([]interp.RVal, np)
	for i, p := range f.Params {
		g.tables[i] = specialLanes(p.Ty)
		if n := len(g.tables[i]); n > g.specials {
			g.specials = n
		}
		g.widths[i] = ir.ScalarBits(ir.Elem(p.Ty))
		g.masks[i] = ir.MaskW(g.widths[i])
		g.lanes[i] = ir.Lanes(p.Ty)
		g.isPtr[i] = ir.IsPtr(p.Ty)
		g.one[i] = make([]interp.Word, g.lanes[i])
		g.inputs[i] = interp.RVal{Ty: p.Ty, Lanes: g.one[i]}
	}

	if g.exhaustive {
		g.phase = phExhaust
		g.cmax = uint64(1) << uint(totalBits)
	} else {
		g.phase = phCorner
	}
	return g
}

// rand returns the sampling rng, creating it with the same seed at the
// first draw. An exhaustive run draws only for the poison phase's second
// trial when it has two or more params, or for more than two memory
// fills. Over `lpo -corpus -learn` seeds 1-16, 85% of exhaustive Verifies
// (43% of all Verifies) never drew, and each skipped seeding saves about
// 15 µs and 5.4 KB on a 2-vCPU x86 host.
func (g *inputGen) rand() *rand.Rand {
	if g.rng == nil {
		g.rng = rand.New(rand.NewSource(int64(g.opts.Seed) ^ 0x5eed))
	}
	return g.rng
}

// skipExhaustive moves a fresh exhaustive sequence past its enumeration,
// to the poison trials, and returns how many vectors it skipped. The
// enumeration draws nothing from the rng, so the rest of the sequence is
// unchanged.
func (g *inputGen) skipExhaustive() int {
	g.c = g.cmax
	return int(g.cmax) * len(g.fills)
}

// batchTiers attributes the slots of one batch to scheduler tiers: slots
// [randLo, randHi) came from the random phase, every other slot is base.
// The random phase is contiguous in the sequence, so one range covers it.
type batchTiers struct {
	base           int
	randLo, randHi int
}

// tier returns the tier of batch slot b.
func (t *batchTiers) tier(b int) int {
	if b >= t.randLo && b < t.randHi {
		return TierRandom
	}
	return t.base
}

// count adds the batch's first m slots to the per-tier counts of s.
func (t *batchTiers) count(s *TierStats, m int) {
	r := max(0, min(m, t.randHi)-t.randLo)
	s.RandomChecked += r
	switch t.base {
	case TierPool:
		s.PoolChecked += m - r
	case TierSpecial:
		s.SpecialChecked += m - r
	}
}

// fill writes the next vectors of the sequence into up to len(memIdx)
// batch slots and returns how many it wrote; fewer than len(memIdx) means
// the sequence ended. Param i's lanes of slot b go to
// cols[i][b*L:(b+1)*L] (L = lanes per vector), the layout of the batch
// executor's input columns; memIdx[b] receives the index into g.fills of
// slot b's initial memory, and tiers the batch's tier attribution. Pointer
// params get the lanes the sequence defines for them; the caller pins them
// to region bases.
func (g *inputGen) fill(cols [][]interp.Word, memIdx []int, tiers *batchTiers) int {
	*tiers = batchTiers{base: TierSpecial}
	n := len(memIdx)
	b := 0
	for b < n {
		switch g.phase {
		case phExhaust:
			if g.c >= g.cmax {
				g.phase = phPoison
				continue
			}
			b += g.fillCounters(cols, memIdx, b, n)
		case phCorner:
			// Corner phase: uniform specials plus rotated mixes.
			if g.k >= g.specials {
				g.phase = phMixed
				g.k = 0
				continue
			}
			for i := range g.params {
				g.setSpecial(cols, b, i, g.k)
			}
			memIdx[b] = g.k % len(g.fills)
			g.k++
			b++
		case phMixed:
			// Mixed-corner phase: random picks from the specials table.
			if g.k >= g.opts.Samples/8 {
				g.phase = phRandom
				g.k = 0
				continue
			}
			for i := range g.params {
				g.setSpecial(cols, b, i, g.rand().Intn(g.specials+1))
			}
			memIdx[b] = g.rand().Intn(len(g.fills))
			g.k++
			b++
		case phRandom:
			if g.k >= g.opts.Samples {
				g.phase = phPoison
				continue
			}
			for i := range g.params {
				g.setRandom(cols, b, i)
			}
			memIdx[b] = g.rand().Intn(len(g.fills))
			if tiers.randLo == tiers.randHi {
				tiers.randLo = b
			}
			tiers.randHi = b + 1
			g.k++
			b++
		case phPoison:
			// Poison trials: each argument poisoned once against two bases.
			// A poison pointer base would only exercise load-of-poison, so
			// pointer params are skipped as poison targets.
			for g.pi < len(g.params) && g.isPtr[g.pi] {
				g.pi++
			}
			if g.pi >= len(g.params) {
				g.phase = phDone
				continue
			}
			for j := range g.params {
				switch {
				case j == g.pi:
					g.setPoison(cols, b, j)
				case g.trial == 0:
					g.setSpecial(cols, b, j, 0)
				default:
					g.setRandom(cols, b, j)
				}
			}
			memIdx[b] = g.trial % len(g.fills)
			g.trial++
			if g.trial == 2 {
				g.trial = 0
				g.pi++
			}
			b++
		default:
			return b
		}
	}
	return b
}

// fillCounters emits exhaustive vectors into slots [b, n) until the batch,
// the scratch or the counter space runs out, and returns how many. Each
// counter value is repeated once per memory fill; the bits of the value
// map onto the non-pointer params' lanes in order. Columns are written one
// at a time, so the per-vector work is a shift and a mask per lane.
func (g *inputGen) fillCounters(cols [][]interp.Word, memIdx []int, b, n int) int {
	nf := len(g.fills)
	k, c, fi := 0, g.c, g.fi
	for ; b+k < n && k < len(g.ctr) && c < g.cmax; k++ {
		g.ctr[k] = c
		memIdx[b+k] = fi
		if fi++; fi == nf {
			fi = 0
			c++
		}
	}
	g.c, g.fi = c, fi
	ctr := g.ctr[:k]
	bit := uint(0)
	for i, col := range cols {
		L := g.lanes[i]
		if g.isPtr[i] {
			for j := range ctr {
				col[(b+j)*L] = interp.Word{} // replaced by the region base
			}
			continue
		}
		w, mask := uint(g.widths[i]), g.masks[i]
		if L == 1 {
			dst := col[b : b+k]
			for j, c := range ctr {
				dst[j] = interp.Word{V: (c >> bit) & mask}
			}
			bit += w
			continue
		}
		for l := 0; l < L; l++ {
			for j, c := range ctr {
				col[(b+j)*L+l] = interp.Word{V: (c >> bit) & mask}
			}
			bit += w
		}
	}
	return k
}

// next advances to the following input vector, refreshing g.inputs and
// g.memBytes in place. It reports false when the sequence is exhausted.
func (g *inputGen) next() bool {
	if g.fill(g.one, g.oneMem[:], &g.oneTiers) == 0 {
		return false
	}
	g.memBytes = g.fills[g.oneMem[0]]
	return true
}

// tier attributes the vector the latest next() emitted to a scheduler tier:
// random samples are TierRandom, every other phase (exhaustive enumeration,
// corner values, corner mixes, poison trials) is TierSpecial.
func (g *inputGen) tier() int {
	return g.oneTiers.tier(0)
}

// slot returns param i's lanes of batch slot b in cols.
func (g *inputGen) slot(cols [][]interp.Word, b, i int) []interp.Word {
	L := g.lanes[i]
	return cols[i][b*L : (b+1)*L : (b+1)*L]
}

// setSpecial writes the k-th corner argument of param i into slot b; lanes
// are rotated so vector corner cases are not all-uniform.
func (g *inputGen) setSpecial(cols [][]interp.Word, b, i, k int) {
	table := g.tables[i]
	lanes := g.slot(cols, b, i)
	for l := range lanes {
		lanes[l] = interp.Word{V: table[(k+l)%len(table)]}
	}
}

// setRandom writes a uniformly random argument for param i into slot b.
func (g *inputGen) setRandom(cols [][]interp.Word, b, i int) {
	mask := g.masks[i]
	lanes := g.slot(cols, b, i)
	for l := range lanes {
		lanes[l] = interp.Word{V: g.rand().Uint64() & mask}
	}
}

// setPoison writes an all-poison argument for param i into slot b.
func (g *inputGen) setPoison(cols [][]interp.Word, b, i int) {
	lanes := g.slot(cols, b, i)
	for l := range lanes {
		lanes[l] = interp.Word{Poison: true}
	}
}

// memoryFills builds the initial memories tried per input vector: an
// all-zero fill, a ramp, and seeded random fills.
func (g *inputGen) memoryFills(numPtrs int) [][][]byte {
	if numPtrs == 0 {
		return [][][]byte{nil}
	}
	mk := func(gen func(i int) byte) [][]byte {
		out := make([][]byte, numPtrs)
		for p := 0; p < numPtrs; p++ {
			b := make([]byte, g.opts.MemSize)
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
	for len(fills) < g.opts.MemFills {
		fills = append(fills, mk(func(int) byte { return byte(g.rand().Intn(256)) }))
	}
	return fills[:g.opts.MemFills]
}

// specialLanes returns the table of corner lane values for a lane type.
func specialLanes(ty ir.Type) []uint64 {
	elem := ir.Elem(ty)
	switch e := elem.(type) {
	case ir.IntType:
		w := e.W
		mask := ir.MaskW(w)
		vals := []uint64{0, 1, 2, 3, mask, mask >> 1, (mask >> 1) + 1, mask - 1,
			0x5555555555555555 & mask, 0xAAAAAAAAAAAAAAAA & mask}
		if w > 8 {
			vals = append(vals, 127, 128, 255, 256&mask, 0xFF00&mask)
		}
		return dedup(vals)
	case ir.FloatType:
		f := func(v float64) uint64 {
			if e.W == 32 {
				return uint64(math.Float32bits(float32(v)))
			}
			return math.Float64bits(v)
		}
		nan := uint64(math.Float64bits(math.NaN()))
		if e.W == 32 {
			nan = uint64(math.Float32bits(float32(math.NaN())))
		}
		return []uint64{f(0), f(math.Copysign(0, -1)), f(1), f(-1), f(2), f(0.5),
			nan, f(math.Inf(1)), f(math.Inf(-1)), f(255), f(256)}
	case ir.PtrType:
		return []uint64{0}
	}
	return []uint64{0}
}

func dedup(vals []uint64) []uint64 {
	seen := make(map[uint64]bool, len(vals))
	out := vals[:0]
	for _, v := range vals {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// specialArg builds the k-th corner argument of the given type; lanes are
// rotated so vector corner cases are not all-uniform. Retained for the
// reference path and the streaming-equivalence test.
func specialArg(ty ir.Type, k int) interp.RVal {
	table := specialLanes(ty)
	lanes := ir.Lanes(ty)
	rv := interp.RVal{Ty: ty, Lanes: make([]interp.Word, lanes)}
	for l := 0; l < lanes; l++ {
		rv.Lanes[l] = interp.Word{V: table[(k+l)%len(table)]}
	}
	return rv
}

// randomArg builds a uniformly random argument of the given type.
func randomArg(ty ir.Type, rng *rand.Rand) interp.RVal {
	lanes := ir.Lanes(ty)
	w := ir.ScalarBits(ir.Elem(ty))
	rv := interp.RVal{Ty: ty, Lanes: make([]interp.Word, lanes)}
	for l := 0; l < lanes; l++ {
		rv.Lanes[l] = interp.Word{V: rng.Uint64() & ir.MaskW(w)}
	}
	return rv
}
