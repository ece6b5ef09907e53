package interp

// Compile-once execution: Compile lowers a function into a Program — every
// SSA value numbered into a dense register slot, constants materialized into
// an immutable pool, block successors and phi edges resolved to indices —
// and an Evaluator (evaluator.go, batch.go) executes the Program over
// batches of input vectors with reusable scratch storage, so a steady-state
// run performs no per-input allocations. Semantics are bit-identical to
// Exec: both engines call the same per-opcode kernels, and runtime-dependent
// errors (unbound values, unknown branch targets, unsupported opcodes) are
// still raised at the execution step that reaches them, never at compile
// time. Vector constants whose elements are runtime values, such as
// splat (i8 %x), compile to per-lane gathers with the same operand order
// and UB reasons as the reference interpreter.

import (
	"slices"

	"repro/internal/ir"
)

// Program is a function compiled for repeated execution. It is immutable
// after Compile and may be shared by any number of Evaluators concurrently.
type Program struct {
	fn *ir.Func

	regLanes []int32 // lanes per register
	regOff   []int32 // arena word offset per register
	arenaLen int     // total words across all registers
	paramReg []int32 // register index per function parameter

	consts []constEntry
	code   []cinstr // all instructions, blocks back to back
	blocks []cblock

	// straight marks the fast path: a single block with no phi and no br
	// whose every operand is a parameter, an earlier instruction of the
	// block, or a constant that needs no runtime check. Straight programs
	// skip runtime guards, per-run defined-register bookkeeping and block
	// dispatch entirely.
	straight bool

	// hasMem marks programs touching memory (load/store/gep). Batched
	// executions of such programs carry one Memory per lane.
	hasMem bool

	// retReg is the scalar register the program's only ret returns, or -1;
	// when that ret returns a scalar constant instead, retConst is its
	// const-pool index, whose constCols entry holds it broadcast, or -1.
	// Both are -1 for programs with several rets, a void return or a vector
	// return value.
	retReg, retConst int32

	// entryKey is what a phi sees as the predecessor before the first
	// branch: Exec matches phi labels against the predecessor's name, which
	// is "" on entry.
	entryKey int32

	// kinds holds each instruction's batch kernel, and constCols, per
	// const-pool entry a specialized kernel reads, the constant broadcast
	// across a batch. Both are read-only, so every evaluator of the program
	// shares them.
	kinds     []batchKind
	constCols [][]Word
}

type cblock struct {
	name       string
	start, end int32 // span in Program.code
	key        int32 // nameKey of name: what a phi sees as this predecessor
}

// constEntry is one pre-materialized constant. Entries with ub set could not
// be materialized (e.g. a vector constant referencing a value of another
// function); the error is raised when an execution actually uses the
// operand, matching the reference interpreter. Entries with dyn set are
// vector constants with runtime elements: each use gathers the lanes from
// the executing lane's registers, after checking those registers are bound
// (and then fails with why if ub is also set).
type constEntry struct {
	rv  RVal
	ub  bool
	why string
	dyn *dynConst
}

// guarded reports whether a use of the entry needs a runtime check.
func (e *constEntry) guarded() bool { return e.ub || e.dyn != nil }

// dynConst is a vector constant whose elements are computed at run time.
// uses lists its register reads in state.operand's evaluation order, each
// with the reason a read of an unbound register reports; elems gives the
// source of each result lane.
type dynConst struct {
	uses  []dynUse
	elems []dynElem
}

type dynUse struct {
	reg int32
	why string
}

// dynElem is one lane of a dynamic constant: lane 0 of register reg when
// reg >= 0, otherwise the literal w.
type dynElem struct {
	reg int32
	w   Word
}

type cinstr struct {
	in  *ir.Instr
	dst int32 // result register, -1 for void results

	// args maps operand positions to storage: values >= 0 are register
	// indices, values < 0 are const-pool indices encoded as ^idx.
	args []int32

	// checks lists the operand positions that need a runtime guard before
	// the kernel runs (possibly-unbound registers, unmaterializable
	// constants), in operand order. Empty on the fast path.
	checks []int32

	// succ holds the pre-resolved successor block indices for OpBr
	// (-1 when the label names no block).
	succ [2]int32

	// phiPred holds, per incoming phi edge, the nameKey of its label.
	phiPred []int32

	// intr is the resolved intrinsic of an OpCall (intrNone otherwise), and
	// flag its trailing i1 immediate when that operand is a constant; a
	// call whose flag is a register reads it per lane at run time.
	intr intrinsicOp
	flag bool
}

// Compile lowers fn. It never fails: constructs the reference interpreter
// would fault on at runtime are compiled into instructions that raise the
// same UB when (and only when) an execution reaches them.
func Compile(fn *ir.Func) *Program {
	p := &Program{fn: fn}

	// Pass 1: number parameters and instruction results into registers.
	reg := make(map[ir.Value]int32)
	addReg := func(v ir.Value, ty ir.Type) int32 {
		id := int32(len(p.regLanes))
		lanes := int32(ir.Lanes(ty))
		if lanes < 1 {
			lanes = 1
		}
		p.regOff = append(p.regOff, int32(p.arenaLen))
		p.regLanes = append(p.regLanes, lanes)
		p.arenaLen += int(lanes)
		reg[v] = id
		return id
	}
	for _, prm := range fn.Params {
		p.paramReg = append(p.paramReg, addReg(prm, prm.Ty))
	}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.HasResult() {
				addReg(in, in.Ty)
			}
		}
	}

	blockIdx := make(map[string]int32, len(fn.Blocks))
	for i, b := range fn.Blocks {
		// First occurrence wins, matching ir.Func.BlockByName.
		if _, ok := blockIdx[b.Name]; !ok {
			blockIdx[b.Name] = int32(i)
		}
	}
	// nameKey numbers block names so phis compare predecessors by name, as
	// Exec does: the first block with the name, -1 for "" when no block has
	// that name, and -2 (never a predecessor) for any other unknown label.
	nameKey := func(name string) int32 {
		if t, ok := blockIdx[name]; ok {
			return t
		}
		if name == "" {
			return -1
		}
		return -2
	}
	p.entryKey = nameKey("")

	constIdx := make(map[ir.Value]int32)
	internConst := func(v ir.Value) int32 {
		if idx, ok := constIdx[v]; ok {
			return idx
		}
		e := materializeConst(v, reg)
		idx := int32(len(p.consts))
		p.consts = append(p.consts, e)
		constIdx[v] = idx
		return idx
	}

	// Pass 2: compile instructions.
	defined := make(map[int32]bool, len(reg))
	for _, r := range p.paramReg {
		defined[r] = true
	}
	p.straight = len(fn.Blocks) == 1
	for bi, b := range fn.Blocks {
		cb := cblock{name: b.Name, start: int32(len(p.code)), key: nameKey(b.Name)}
		for _, in := range b.Instrs {
			ci := cinstr{in: in, dst: -1, succ: [2]int32{-1, -1}}
			if in.HasResult() {
				ci.dst = reg[in]
			}
			ci.args = make([]int32, len(in.Args))
			for k, a := range in.Args {
				if r, ok := reg[a]; ok {
					ci.args[k] = r
					if !defined[r] {
						// Possibly unbound at runtime: guard the read.
						ci.checks = append(ci.checks, int32(k))
						p.straight = false
					}
				} else {
					idx := internConst(a)
					ci.args[k] = ^idx
					if p.consts[idx].guarded() {
						ci.checks = append(ci.checks, int32(k))
						p.straight = false
					}
				}
			}
			switch in.Op {
			case ir.OpLoad, ir.OpStore, ir.OpGEP:
				p.hasMem = true
			case ir.OpBr:
				p.straight = false
				for k := range in.Labels {
					if k > 1 {
						break
					}
					if t, ok := blockIdx[in.Labels[k]]; ok {
						ci.succ[k] = t
					}
				}
			case ir.OpPhi:
				p.straight = false
				ci.phiPred = make([]int32, len(in.Labels))
				for k, l := range in.Labels {
					ci.phiPred[k] = nameKey(l)
				}
			case ir.OpCall:
				ci.intr = lookupIntrinsic(in.Callee)
				if len(ci.args) > 1 && ci.args[1] < 0 {
					if lanes := p.consts[^ci.args[1]].rv.Lanes; len(lanes) > 0 {
						ci.flag = lanes[0].V&1 == 1
					}
				}
			}
			if in.HasResult() {
				// Within a single block this marks defs in execution order;
				// across blocks it is only used to decide which operands
				// need runtime guards, which is conservative either way
				// because bi > 0 clears straight below.
				defined[reg[in]] = true
			}
			p.code = append(p.code, ci)
		}
		cb.end = int32(len(p.code))
		p.blocks = append(p.blocks, cb)
		if bi > 0 {
			p.straight = false
		}
	}
	if len(fn.Blocks) > 1 {
		// Multi-block functions: any instruction-result operand may be
		// unbound depending on the path taken, so guard all of them.
		for i := range p.code {
			ci := &p.code[i]
			ci.checks = ci.checks[:0]
			for k, slot := range ci.args {
				if slot >= 0 && !isParamReg(p, slot) {
					ci.checks = append(ci.checks, int32(k))
				} else if slot < 0 && p.consts[^slot].guarded() {
					ci.checks = append(ci.checks, int32(k))
				}
			}
		}
	}
	p.kinds = make([]batchKind, len(p.code))
	p.constCols = make([][]Word, len(p.consts))
	var cols []int32 // const-pool indices that need a column
	p.retReg, p.retConst = -1, -1
	var ret *cinstr
	for i := range p.code {
		if p.code[i].in.Op != ir.OpRet {
			continue
		}
		if ret != nil {
			ret = nil // several rets: lanes may return through either
			break
		}
		ret = &p.code[i]
	}
	if ret != nil && len(ret.args) > 0 {
		if slot := ret.args[0]; slot >= 0 {
			if p.regLanes[slot] == 1 {
				p.retReg = slot
			}
		} else if e := &p.consts[^slot]; !e.guarded() && len(e.rv.Lanes) == 1 {
			p.retConst = ^slot
			cols = append(cols, ^slot)
		}
	}
	for gi := range p.code {
		p.kinds[gi] = classifyBatch(p, &p.code[gi])
		if !p.kinds[gi].specialized() {
			continue
		}
		for _, slot := range p.code[gi].args {
			if slot < 0 && !slices.Contains(cols, ^slot) {
				cols = append(cols, ^slot)
			}
		}
	}
	backing := make([]Word, len(cols)*BatchWidth)
	for k, idx := range cols {
		col := backing[k*BatchWidth : (k+1)*BatchWidth : (k+1)*BatchWidth]
		for j := range col {
			col[j] = p.consts[idx].rv.Lanes[0]
		}
		p.constCols[idx] = col
	}
	return p
}

func isParamReg(p *Program, r int32) bool {
	return int(r) < len(p.paramReg)
}

// materializeConst builds the pool entry for a non-register operand,
// mirroring state.operand's constant cases.
func materializeConst(v ir.Value, reg map[ir.Value]int32) constEntry {
	var uses []dynUse
	elems, why := constElems(v, reg, &uses)
	e := constEntry{ub: why != "", why: why}
	switch {
	case len(uses) > 0:
		e.dyn = &dynConst{uses: uses, elems: elems}
	case !e.ub:
		lanes := make([]Word, len(elems))
		for i, el := range elems {
			lanes[i] = el.w
		}
		e.rv = RVal{Ty: v.Type(), Lanes: lanes}
	}
	return e
}

// constElems flattens v into per-lane sources the way state.operand
// evaluates it: register elements are appended to uses in evaluation order,
// and the first element that cannot be materialized stops the walk with its
// reason.
func constElems(v ir.Value, reg map[ir.Value]int32, uses *[]dynUse) ([]dynElem, string) {
	if r, ok := reg[v]; ok {
		*uses = append(*uses, dynUse{reg: r, why: "use of unbound value " + v.Ident()})
		return []dynElem{{reg: r}}, ""
	}
	lit := func(rv RVal) []dynElem {
		out := make([]dynElem, len(rv.Lanes))
		for i, w := range rv.Lanes {
			out[i] = dynElem{reg: -1, w: w}
		}
		return out
	}
	switch c := v.(type) {
	case *ir.ConstInt:
		return lit(Scalar(c.Ty, c.V)), ""
	case *ir.ConstFloat:
		return lit(Scalar(c.Ty, storeFloat(c.Ty.W, c.F))), ""
	case *ir.Null:
		return lit(Scalar(ir.Ptr, 0)), ""
	case *ir.Zero:
		return lit(RVal{Lanes: make([]Word, ir.Lanes(c.Ty))}), ""
	case *ir.Undef:
		// Undef is approximated as zero, matching state.operand.
		return lit(RVal{Lanes: make([]Word, ir.Lanes(c.Ty))}), ""
	case *ir.PoisonVal:
		return lit(PoisonRV(c.Ty)), ""
	case *ir.Splat:
		el, why := constElems(c.Elem, reg, uses)
		if why != "" {
			return nil, why
		}
		out := make([]dynElem, c.Ty.N)
		for i := range out {
			out[i] = el[0]
		}
		return out, ""
	case *ir.ConstVec:
		out := make([]dynElem, len(c.Elems))
		for i, e := range c.Elems {
			el, why := constElems(e, reg, uses)
			if why != "" {
				return nil, why
			}
			out[i] = el[0]
		}
		return out, ""
	}
	return nil, "use of unbound value " + v.Ident()
}
