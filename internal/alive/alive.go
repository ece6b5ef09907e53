// Package alive is a bounded translation validator in the spirit of Alive2:
// it checks that a target function refines a source function, and produces a
// counterexample when it does not.
//
// Where Alive2 encodes the refinement obligation symbolically for an SMT
// solver, this implementation checks it concretely: exhaustively when the
// input space is small enough, and over structured corner values plus seeded
// random samples otherwise. Like Alive2 it is *bounded* validation — "correct"
// means "no counterexample found within the bound" — and the refinement
// relation is the same:
//
//   - if the source execution is UB, the target may do anything;
//   - per result lane, a poison source lane permits any target lane, and a
//     defined source lane requires an equal, non-poison target lane;
//   - bytes written by the source constrain the target's final memory the
//     same way.
//
// Verification is the discovery loop's inner loop, so it is built around a
// compile-once Checker: both functions are compiled to interp Programs
// (optionally via a shared Options.Programs cache), and every input vector —
// tier-0 replays and generated vectors alike — streams in lane batches
// through two reusable Evaluators. The input generator writes each batch
// straight into the evaluators' input columns (exhaustive enumeration
// column by column, sampled phases vector by vector in their rng draw
// order), and the refinement check reads the evaluators' outcome masks and
// the return values in place, counting checked vectors per batch: when both
// programs return a scalar through one ret of a register or a constant and
// touch no memory, it compares their return columns
// (interp.Evaluator.RetColumn) word by word, otherwise it reads each lane
// through RetLanes. A CounterExample is
// materialized only on an actual violation, so a steady-state Verify
// performs a constant number of allocations however many batches it runs.
//
// VerifyWidths can reuse an earlier verification of the witness pair (a
// Proof): at the width whose instantiation hashes equal to the proven
// pair, a Correct and Exhaustive proof of a pair without pointer
// parameters lets the Checker skip its exhaustive enumeration, while tier-0
// replays and poison trials still run. The skip is exact — same Programs,
// same enumeration under any Options, no rng draws in it — so verdicts,
// counterexamples and kill tiers are those of the full run; only Checked
// drops, by Result.Skipped.
// ReferenceVerify re-walks both functions with the reference interpreter
// (interp.Exec) per input and shares no execution path with the Checker: it
// is the independent oracle that differential tests and benchmark re-checks
// compare the Checker against.
package alive

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/interp"
	"repro/internal/ir"
)

// Verdict classifies a verification run.
type Verdict int

// Verdicts.
const (
	// Correct means no refinement violation was found within the bound.
	Correct Verdict = iota
	// Incorrect means a counterexample was found.
	Incorrect
	// Unsupported means the pair could not be checked (e.g. signature
	// mismatch); Err carries an Alive2-style fixable error message.
	Unsupported
)

// Options bound the verification effort.
type Options struct {
	// MaxExhaustiveBits is the largest total input bit budget that is
	// enumerated exhaustively (default 16).
	MaxExhaustiveBits int
	// Samples is the number of random input vectors when not exhaustive
	// (default 4096).
	Samples int
	// Seed makes the random sampling reproducible.
	Seed uint64
	// MemSize is the byte size of the region behind each pointer argument
	// (default 64).
	MemSize int
	// MemFills is how many distinct initial memories are tried per input
	// vector when pointers are present (default 4).
	MemFills int
	// Programs optionally caches compiled programs across Verify calls,
	// keyed by structural hash. Callers that verify the same functions
	// repeatedly (the engine verify stage, generalize width sweeps, CEGIS
	// loops) share one cache so each distinct function compiles once. Nil
	// compiles per call. The cache never changes a verdict: programs are a
	// pure function of the IR.
	Programs *interp.Cache
	// Pool optionally shares counterexamples across Verify calls: inputs
	// that falsified any previous candidate for the same source window are
	// replayed first (verification tier 0), killing repeat offenders in a
	// handful of executions. Nil disables sharing. Replayed vectors are
	// re-executed, so an Incorrect verdict always carries a genuine,
	// freshly-checked counterexample.
	Pool *CEPool
}

func (o Options) withDefaults() Options {
	if o.MaxExhaustiveBits == 0 {
		o.MaxExhaustiveBits = 16
	}
	if o.Samples == 0 {
		o.Samples = 4096
	}
	if o.MemSize == 0 {
		o.MemSize = 64
	}
	if o.MemFills == 0 {
		o.MemFills = 4
	}
	return o
}

// CounterExample captures one refinement violation.
type CounterExample struct {
	Params  []*ir.Param
	Inputs  []interp.RVal
	Memory  [][]byte // initial contents of each pointer region, in param order
	SrcRet  interp.RVal
	TgtRet  interp.RVal
	SrcUB   bool
	TgtUB   bool
	TgtWhy  string
	MemDiff string // description of a memory refinement violation, if any
}

// Format renders the counterexample in the style Alive2 prints and LPO feeds
// back to the LLM.
func (ce *CounterExample) Format() string {
	var sb strings.Builder
	sb.WriteString("Transformation doesn't verify!\n")
	switch {
	case ce.TgtUB:
		sb.WriteString("ERROR: Source is guaranteed to be defined, target is undefined\n")
	case ce.MemDiff != "":
		sb.WriteString("ERROR: Mismatch in memory\n")
	default:
		sb.WriteString("ERROR: Value mismatch\n")
	}
	sb.WriteString("Example:\n")
	for i, p := range ce.Params {
		fmt.Fprintf(&sb, "%s %%%s = %s\n", p.Ty, p.Nm, ce.Inputs[i].Format())
	}
	memIdx := 0
	for _, p := range ce.Params {
		if ir.IsPtr(p.Ty) && memIdx < len(ce.Memory) {
			fmt.Fprintf(&sb, "memory at %%%s = % x\n", p.Nm, ce.Memory[memIdx])
			memIdx++
		}
	}
	if ce.SrcUB {
		sb.WriteString("Source value: UB\n")
	} else {
		fmt.Fprintf(&sb, "Source value: %s\n", ce.SrcRet.Format())
	}
	switch {
	case ce.TgtUB:
		fmt.Fprintf(&sb, "Target value: UB (%s)\n", ce.TgtWhy)
	default:
		fmt.Fprintf(&sb, "Target value: %s\n", ce.TgtRet.Format())
	}
	if ce.MemDiff != "" {
		sb.WriteString(ce.MemDiff + "\n")
	}
	return sb.String()
}

// Verification tiers, cheapest kill first. TierNone marks a Result without
// a violation.
const (
	TierNone    = 0 // no violation found
	TierPool    = 1 // replayed counterexample from the shared CEPool
	TierSpecial = 2 // exhaustive / corner / mixed / poison phases
	TierRandom  = 3 // random sampling phase
)

// TierStats breaks a Verify run down by scheduler tier: how many input
// vectors each tier contributed and which tier found the violation (if
// any). Checked on the enclosing Result is the sum of the per-tier counts.
type TierStats struct {
	PoolChecked    int // tier 0: pooled/seeded counterexample replays
	SpecialChecked int // tier 1: exhaustive enumeration and special values
	RandomChecked  int // tier 2: random samples
	KillTier       int // Tier* constant of the violating vector, TierNone if none

	// Batched and Fallback split Checked by execution path: vectors the
	// Checker ran lane-batched versus vectors run by the reference
	// interpreter, which only ReferenceVerify does. Batched+Fallback ==
	// Checked.
	Batched  int
	Fallback int
}

func (t *TierStats) count(tier int) {
	switch tier {
	case TierPool:
		t.PoolChecked++
	case TierSpecial:
		t.SpecialChecked++
	case TierRandom:
		t.RandomChecked++
	}
}

// Result is the outcome of Verify.
type Result struct {
	Verdict    Verdict
	CE         *CounterExample
	Err        string // set for Unsupported
	Checked    int    // input vectors actually executed
	Exhaustive bool   // true if the whole input space was covered
	// Skipped counts the exhaustive vectors this run did not execute
	// because a Proof already covered them (VerifyWidths); Exhaustive
	// still holds for such a run.
	Skipped int
	Tiers   TierStats
}

// Checker is a compiled (source, target) refinement obligation: both
// functions are lowered once into interp Programs and every Verify call
// streams input vectors in lane batches through two reusable evaluators.
// Build one with NewChecker and reuse it when the same pair is re-verified
// (CEGIS rounds); the one-shot Verify wrapper covers everything else. A
// Checker is not safe for concurrent use (the evaluators share scratch);
// compile one per goroutine — the underlying Programs may be shared via
// Options.Programs.
type Checker struct {
	src, tgt *ir.Func
	opts     Options
	sigErr   string

	se, te    *interp.Evaluator
	ptrParams []int // param indices of pointer type

	winKey  uint64 // pool key of the source window (lazy)
	haveKey bool
	seeds   []PoolVector // extra tier-0 vectors (width-sweep reseeding)
	proven  bool         // a Proof covers the exhaustive phase (VerifyWidths)

	// Lane-batched streaming state. The generator writes each batch
	// straight into the source evaluator's input columns, the columns are
	// bulk-copied into the target evaluator, and both sides run with
	// RunBatchFilled — no per-vector staging or scatter at all. The
	// refinement check reads the evaluators' outcome masks and return
	// views, so no per-lane Result is built unless a lane violates. Pairs
	// with pointer parameters additionally carry per-lane slab memories:
	// each batch slot's regions are reset to that vector's initial fill
	// before the runs and diffed lane against lane afterwards.
	srcCols, tgtCols [][]interp.Word // per param: the evaluators' input columns
	lanes            []int           // per param: lanes per vector
	memIdx           []int           // per slot: the generator fill it starts from
	tiers            batchTiers
	srcBM, tgtBM     *interp.BatchMems // per-lane memories (pointer params only)
	ptrSave          [][]interp.Word   // per ptr param: raw generated words, per slot
}

// NewChecker compiles src and tgt (through opts.Programs when set) and
// prepares the reusable execution state.
func NewChecker(src, tgt *ir.Func, opts Options) *Checker {
	opts = opts.withDefaults()
	c := &Checker{src: src, tgt: tgt, opts: opts}
	if err := signatureError(src, tgt); err != "" {
		c.sigErr = err
		return c
	}
	c.se = interp.NewEvaluator(opts.Programs.Program(src))
	c.te = interp.NewEvaluator(opts.Programs.Program(tgt))
	for i, p := range src.Params {
		if ir.IsPtr(p.Ty) {
			c.ptrParams = append(c.ptrParams, i)
		}
	}
	c.initBatch()
	return c
}

// regionBase is the fixed base address of the region behind pointer
// parameter i; distinct parameters never alias.
func regionBase(i int) uint64 { return uint64(0x10000 + i*0x1000) }

// Seed adds extra tier-0 vectors that subsequent Verify calls replay before
// the generated sequence, alongside any Options.Pool entries. VerifyWidths
// uses this to reseed each width of a sweep with the (rescaled)
// counterexamples earlier widths produced.
func (c *Checker) Seed(vecs []PoolVector) {
	c.seeds = append(c.seeds, vecs...)
}

// windowKey returns (and caches) the pool key of the source window.
func (c *Checker) windowKey() uint64 {
	if !c.haveKey {
		c.winKey = WindowKey(c.src)
		c.haveKey = true
	}
	return c.winKey
}

// Verify runs the tiered scheduler: tier 0 replays pooled/seeded
// counterexamples for this source window, then the generated input sequence
// streams through, with the exhaustive/special phases attributed to tier 1
// and the random phases to tier 2. Every tier runs lane-batched, and
// vectors are scanned in order within each batch, so the first violating
// vector — and therefore Checked and the counterexample — is the one a
// vector-at-a-time scan (and ReferenceVerify) finds. Only tier 0 can find a
// violation earlier, and only when a previous candidate for the same window
// already failed on that input. Any violation deposits its vector into
// Options.Pool. Verify may be called repeatedly (e.g. with the checker
// reused across CEGIS rounds).
func (c *Checker) Verify() Result {
	if c.sigErr != "" {
		return Result{Verdict: Unsupported, Err: c.sigErr}
	}
	res := Result{}
	if (c.opts.Pool != nil || len(c.seeds) > 0) && c.replay(&res) {
		return res
	}
	gen := newInputGen(c.src, c.opts)
	res.Exhaustive = gen.exhaustive
	if c.proven && gen.exhaustive {
		res.Skipped = gen.skipExhaustive()
	}
	for {
		n := gen.fill(c.srcCols, c.memIdx, &c.tiers)
		if n == 0 {
			break
		}
		for b := 0; b < n && c.srcBM != nil; b++ {
			c.pinSlot(b, gen.fills[c.memIdx[b]])
		}
		if i := c.runBatch(n, &res); i >= 0 {
			ce := res.CE
			ce.Inputs = c.slotInputs(i)
			if c.srcBM != nil {
				ce.Memory = cloneByteSlices(gen.fills[c.memIdx[i]])
			}
			c.deposit(ce)
			return res
		}
	}
	res.Verdict = Correct
	return res
}

// slotInputs clones batch slot b's input vector as generated: pointer
// arguments carry their raw words, not the pinned region bases.
func (c *Checker) slotInputs(b int) []interp.RVal {
	out := make([]interp.RVal, len(c.src.Params))
	for i, p := range c.src.Params {
		L := c.lanes[i]
		out[i] = interp.RVal{Ty: p.Ty, Lanes: slices.Clone(c.srcCols[i][b*L : (b+1)*L])}
	}
	for j, pi := range c.ptrParams {
		out[pi].Lanes[0] = c.ptrSave[j][b]
	}
	return out
}

// replay is tier 0: it runs the counterexamples that killed earlier
// candidates for this window, plus explicitly seeded vectors, in order and
// in lane batches. On a violation it records the counterexample in res —
// carrying the replayed vector's own inputs and memory — and reports true.
func (c *Checker) replay(res *Result) bool {
	key := c.windowKey()
	pooled := c.opts.Pool.Vectors(key)
	vecs := append(pooled, c.seeds...)
	var live []int // indices into vecs of the vectors this checker can run
	for vi, pv := range vecs {
		if c.compatible(pv) {
			live = append(live, vi)
		}
	}
	for base := 0; base < len(live); base += interp.BatchWidth {
		chunk := live[base:min(base+interp.BatchWidth, len(live))]
		for slot, vi := range chunk {
			pv := vecs[vi]
			for i, in := range pv.Inputs {
				L := c.lanes[i]
				copy(c.srcCols[i][slot*L:(slot+1)*L], in.Lanes)
			}
			c.pinSlot(slot, pv.Mem)
		}
		c.tiers = batchTiers{base: TierPool}
		slot := c.runBatch(len(chunk), res)
		if slot < 0 {
			continue
		}
		vi := chunk[slot]
		pv := vecs[vi]
		ce := res.CE
		ce.Inputs, ce.Memory = cloneRVals(pv.Inputs), cloneByteSlices(pv.Mem)
		// Seed-sourced kills (width-sweep reseeds) are new to this window
		// and worth pooling; a pool-sourced kill is already stored — mark it
		// referenced instead so the per-window clock keeps vectors that
		// still earn their slot.
		if vi >= len(pooled) {
			c.opts.Pool.Add(key, ce.Inputs, ce.Memory)
		} else {
			c.opts.Pool.Touch(key, pv.Inputs, pv.Mem)
		}
		return true
	}
	return false
}

// compatible reports whether a pooled/seeded vector fits this checker's
// signature (vectors stored under a window key always do; seeded vectors
// from other widths are pre-rescaled but still validated here) and its
// batched memory setup: every pointer argument is a defined lane — the
// fill pins it to its region base — with a full region's initial bytes.
func (c *Checker) compatible(pv PoolVector) bool {
	if len(pv.Inputs) != len(c.src.Params) || len(pv.Mem) != len(c.ptrParams) {
		return false
	}
	for i, p := range c.src.Params {
		if len(pv.Inputs[i].Lanes) != ir.Lanes(p.Ty) {
			return false
		}
	}
	for j, i := range c.ptrParams {
		if pv.Inputs[i].AnyPoison() || len(pv.Mem[j]) != c.opts.MemSize {
			return false
		}
	}
	return true
}

// deposit shares a fresh counterexample's input vector with later
// verifications of the same window.
func (c *Checker) deposit(ce *CounterExample) {
	if c.opts.Pool != nil {
		c.opts.Pool.Add(c.windowKey(), ce.Inputs, ce.Memory)
	}
}

// pinSlot prepares batch slot b's pointer arguments after its inputs were
// written: it saves each raw pointer word (counterexamples report the
// vector as generated), pins the word to the parameter's region base, and
// resets the slot's memories to the initial contents mem.
func (c *Checker) pinSlot(b int, mem [][]byte) {
	for j, pi := range c.ptrParams {
		c.ptrSave[j][b] = c.srcCols[pi][b]
		c.srcCols[pi][b] = interp.Word{V: regionBase(pi)}
		c.srcBM.ResetLane(j, b, mem[j])
		c.tgtBM.ResetLane(j, b, mem[j])
	}
}

// runBatch executes the first n filled batch slots through both programs
// and checks the refinement obligation in slot order, counting the checked
// vectors and their tiers into res per batch. At the first violation it
// records the verdict, kill tier and a counterexample — whose Inputs and
// Memory the caller fills in — in res and returns the slot; otherwise it
// returns -1.
func (c *Checker) runBatch(n int, res *Result) int {
	for k, L := range c.lanes {
		copy(c.tgtCols[k][:n*L], c.srcCols[k][:n*L])
	}
	var srcMems, tgtMems []*interp.Memory
	if c.srcBM != nil {
		srcMems, tgtMems = c.srcBM.Mems, c.tgtBM.Mems
	}
	c.se.RunBatchFilled(n, srcMems)
	c.te.RunBatchFilled(n, tgtMems)
	i, diff := c.firstViolation()
	m := n
	if i >= 0 {
		m = i + 1
	}
	res.Checked += m
	res.Tiers.Batched += m
	c.tiers.count(&res.Tiers, m)
	if i < 0 {
		return -1
	}
	rs, rt := c.se.Result(i), c.te.Result(i)
	res.Verdict = Incorrect
	res.Tiers.KillTier = c.tiers.tier(i)
	res.CE = &CounterExample{Params: c.src.Params,
		SrcRet: rs.Ret.Clone(), TgtRet: rt.Ret.Clone(),
		SrcUB: rs.UB, TgtUB: rt.UB, TgtWhy: rt.UBReason, MemDiff: diff}
	return i
}

// firstViolation scans the slots of the last run in order and returns the
// first that violates refinement, with its memory diff (if that is the
// violation), or -1. Only slots where the source returned without UB and
// the target completed constrain the target: source UB allows anything,
// and a run out of budget is inconclusive.
func (c *Checker) firstViolation() (int, string) {
	sDone, sUB := c.se.Outcome()
	tDone, tUB := c.te.Outcome()
	return c.scanViolation(sDone&^sUB&tDone, tUB, c.se.RetColumn(), c.te.RetColumn())
}

// scanViolation checks the slots in mask m in order, tUB marking the
// slots where the target hit UB. When sc and tc are both non-nil they are
// the two programs' scalar return columns (interp.Evaluator.RetColumn);
// without memory to diff the return words are then compared in place.
// Every other shape — vector returns, several rets, vector constant
// returns, pointer parameters — reads each slot's return value through
// RetLanes. Both ways apply refinesWord to the same words, so they report
// the same slot.
func (c *Checker) scanViolation(m, tUB uint64, sc, tc []interp.Word) (int, string) {
	fpBits := retFPBits(c.src.Ret)
	if sc != nil && tc != nil && c.srcBM == nil {
		for ; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			if tUB&(1<<uint(b)) != 0 || !refinesWord(sc[b], tc[b], fpBits) {
				return b, ""
			}
		}
		return -1, ""
	}
	retVoid := ir.IsVoid(c.src.Ret)
	for ; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		if tUB&(1<<uint(b)) != 0 {
			return b, ""
		}
		if !retVoid && !refinesLanes(c.se.RetLanes(b), c.te.RetLanes(b), fpBits) {
			return b, ""
		}
		if c.srcBM != nil {
			if diff := memDiff(c.srcBM.Mems[b], c.tgtBM.Mems[b]); diff != "" {
				return b, diff
			}
		}
	}
	return -1, ""
}

// initBatch wires the batch state to the evaluators' input columns. Pairs
// with pointer parameters also build the per-lane slab memories and the
// raw-pointer-word save area.
func (c *Checker) initBatch() {
	np := len(c.src.Params)
	c.srcCols = make([][]interp.Word, np)
	c.tgtCols = make([][]interp.Word, np)
	c.lanes = make([]int, np)
	for i, p := range c.src.Params {
		c.srcCols[i] = c.se.ArgColumn(i)
		c.tgtCols[i] = c.te.ArgColumn(i)
		c.lanes[i] = ir.Lanes(p.Ty)
	}
	c.memIdx = make([]int, interp.BatchWidth)
	if len(c.ptrParams) == 0 {
		return
	}
	c.srcBM = interp.NewBatchMems(interp.BatchWidth)
	c.tgtBM = interp.NewBatchMems(interp.BatchWidth)
	for _, i := range c.ptrParams {
		p := c.src.Params[i]
		c.srcBM.AddRegion(p.Nm, regionBase(i), c.opts.MemSize)
		c.tgtBM.AddRegion(p.Nm, regionBase(i), c.opts.MemSize)
	}
	c.ptrSave = make([][]interp.Word, len(c.ptrParams))
	for j := range c.ptrSave {
		c.ptrSave[j] = make([]interp.Word, interp.BatchWidth)
	}
}

func cloneRVals(vals []interp.RVal) []interp.RVal {
	out := make([]interp.RVal, len(vals))
	for i, v := range vals {
		out[i] = v.Clone()
	}
	return out
}

func cloneByteSlices(bs [][]byte) [][]byte {
	if bs == nil {
		return nil
	}
	out := make([][]byte, len(bs))
	for i, b := range bs {
		out[i] = append([]byte(nil), b...)
	}
	return out
}

// retRefines checks the return value refinement obligation. For floating
// point lanes, any NaN refines any NaN: LLVM's FP arithmetic produces a
// nondeterministic quiet NaN, which Alive2 models as a free choice on both
// sides.
func retRefines(retTy ir.Type, srcRet, tgtRet interp.RVal) bool {
	if ir.IsVoid(retTy) {
		return true
	}
	return refinesLanes(srcRet.Lanes, tgtRet.Lanes, retFPBits(retTy))
}

// retFPBits returns the lane width for NaN-refinement, 0 for non-FP types.
func retFPBits(retTy ir.Type) int {
	if ir.IsFloat(retTy) {
		return ir.ScalarBits(ir.Elem(retTy))
	}
	return 0
}

// refinesLanes is the lane-wise refinement core with the type dispatch
// hoisted out (the batched checker calls it once per vector).
func refinesLanes(src, tgt []interp.Word, fpBits int) bool {
	for i := range src {
		if !refinesWord(src[i], tgt[i], fpBits) {
			return false
		}
	}
	return true
}

// refinesWord is the obligation for one lane: a poison source lane allows
// any target lane; a defined one needs an equal, non-poison target lane,
// where for floating point lanes (fpBits > 0) any NaN matches any NaN.
func refinesWord(s, t interp.Word, fpBits int) bool {
	return s.Poison || !t.Poison &&
		(t.V == s.V || fpBits > 0 && isNaNBits(fpBits, s.V) && isNaNBits(fpBits, t.V))
}

// memDiff checks the memory refinement obligation: bytes the source leaves
// defined must match in the target's final memory. It returns a description
// of the first violation, or "".
func memDiff(srcMem, tgtMem *interp.Memory) string {
	for ri := range srcMem.Regions {
		sr, tr := srcMem.Regions[ri], tgtMem.Regions[ri]
		for bi := range sr.Data {
			if sr.Poison[bi] {
				continue
			}
			if tr.Poison[bi] || tr.Data[bi] != sr.Data[bi] {
				return fmt.Sprintf(
					"Mismatch in %s at byte %d: source has 0x%02x, target has 0x%02x (poison=%v)",
					sr.Name, bi, sr.Data[bi], tr.Data[bi], tr.Poison[bi])
			}
		}
	}
	return ""
}

// Verify checks whether tgt refines src within the given bounds, compiling
// both sides once and streaming input vectors through the compiled
// evaluators. Callers that re-verify the same pair should build a Checker
// (or share an Options.Programs cache) instead of paying NewChecker per call.
func Verify(src, tgt *ir.Func, opts Options) Result {
	return NewChecker(src, tgt, opts).Verify()
}

// ReferenceVerify is the historic verification path: it re-walks both
// functions with the reference interpreter (interp.Exec) on every input
// vector. It checks the exact same sequence and obligation as Verify — the
// two must agree bit for bit (guarded by differential tests) — and is kept
// as the semantic baseline and the perf trajectory's "before" point.
func ReferenceVerify(src, tgt *ir.Func, opts Options) Result {
	opts = opts.withDefaults()
	if err := signatureError(src, tgt); err != "" {
		return Result{Verdict: Unsupported, Err: err}
	}
	gen := newInputGen(src, opts)
	res := Result{Exhaustive: gen.exhaustive}
	for gen.next() {
		res.Checked++
		tier := gen.tier()
		res.Tiers.count(tier)
		res.Tiers.Fallback++
		if ce := checkOne(src, tgt, gen.params, gen.inputs, gen.memBytes, opts); ce != nil {
			res.Verdict = Incorrect
			res.CE = ce
			res.Tiers.KillTier = tier
			return res
		}
	}
	res.Verdict = Correct
	return res
}

// isNaNBits reports whether the given IEEE bit pattern at width w is a NaN.
func isNaNBits(w int, bits uint64) bool {
	if w == 32 {
		f := math.Float32frombits(uint32(bits))
		return f != f
	}
	f := math.Float64frombits(bits)
	return math.IsNaN(f)
}

// signatureError mirrors Alive2's "could not translate" fixable errors.
func signatureError(src, tgt *ir.Func) string {
	if len(src.Params) != len(tgt.Params) {
		return fmt.Sprintf("ERROR: signature mismatch: source has %d arguments, target has %d",
			len(src.Params), len(tgt.Params))
	}
	for i := range src.Params {
		if !ir.Equal(src.Params[i].Ty, tgt.Params[i].Ty) {
			return fmt.Sprintf("ERROR: signature mismatch: argument %d is %s in source but %s in target",
				i, src.Params[i].Ty, tgt.Params[i].Ty)
		}
	}
	if !ir.Equal(src.Ret, tgt.Ret) {
		return fmt.Sprintf("ERROR: signature mismatch: return type is %s in source but %s in target",
			src.Ret, tgt.Ret)
	}
	return ""
}

// checkOne runs both functions through the reference interpreter on one
// concrete environment and checks the refinement obligation. It returns a
// counterexample or nil; the counterexample is only materialized on an
// actual violation (inputs are cloned because the generator reuses its
// buffers).
func checkOne(src, tgt *ir.Func, params []*ir.Param, inputs []interp.RVal,
	memBytes [][]byte, opts Options) *CounterExample {
	buildEnv := func() (interp.Env, *interp.Memory) {
		mem := interp.NewMemory()
		args := make([]interp.RVal, len(inputs))
		copy(args, inputs)
		mi := 0
		for i, p := range params {
			if ir.IsPtr(p.Ty) && !args[i].AnyPoison() {
				r := mem.AddRegion(p.Nm, regionBase(i), opts.MemSize)
				copy(r.Data, memBytes[mi])
				mi++
				args[i] = interp.Scalar(ir.Ptr, regionBase(i))
			}
		}
		return interp.Env{Args: args, Mem: mem}, mem
	}
	srcEnv, srcMem := buildEnv()
	tgtEnv, tgtMem := buildEnv()
	rs := interp.Exec(src, srcEnv)
	if !rs.Completed {
		return nil // out of budget: inconclusive, skip this input
	}
	if rs.UB {
		return nil // source UB: target unconstrained
	}
	rt := interp.Exec(tgt, tgtEnv)
	if !rt.Completed {
		return nil
	}
	violation := func() *CounterExample {
		return &CounterExample{Params: params,
			Inputs: cloneRVals(inputs), Memory: cloneByteSlices(memBytes),
			SrcRet: rs.Ret, TgtRet: rt.Ret,
			SrcUB: rs.UB, TgtUB: rt.UB, TgtWhy: rt.UBReason}
	}
	if rt.UB {
		return violation()
	}
	if !retRefines(src.Ret, rs.Ret, rt.Ret) {
		return violation()
	}
	if diff := memDiff(srcMem, tgtMem); diff != "" {
		ce := violation()
		ce.MemDiff = diff
		return ce
	}
	return nil
}
