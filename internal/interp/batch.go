package interp

// Lane-batched execution, the only way a compiled Program runs: RunBatch
// streams many input vectors through one Program, executing each
// instruction across the whole batch before moving to the next. The batch
// dimension is laid out structure-of-arrays in the evaluator's register
// arena (for the dominant scalar registers every instruction's operands and
// results are contiguous runs of BatchWidth words), so the per-instruction
// dispatch is paid once per batch instead of once per vector. Undefined
// behaviour, poison, return values and step accounting are tracked per lane
// (= per input vector) and are bit-identical to running the reference
// interpreter Exec on each vector in isolation — guarded by the randomized
// differential tests in batch_test.go and by FuzzBatchMatchesExec.
//
// Two execution modes cover every program:
//
//   - Straight-line programs — the shape of essentially every extracted
//     peephole window — run runBatchCore: one pass over the code with no
//     block dispatch at all.
//   - Everything else runs runBatchBlocks, a masked scheduler: all active
//     lanes step the current block together, lanes whose branches diverge
//     are parked on a per-successor-block lane mask, and the scheduler
//     resumes the lowest-numbered block with parked lanes — which
//     reconverges both arms of a diamond before their join and re-runs loop
//     bodies until every lane has exited. UB, poison, Ret, step accounting
//     and bound registers are tracked per lane throughout; the bound masks
//     also serve vector constants with runtime elements, whose lanes are
//     gathered per lane at each use.
//
// Memory-touching programs run with one Memory per lane (callers with many
// lanes back them with lane-strided BatchMems slabs).

import (
	"fmt"
	"math/bits"

	"repro/internal/ir"
)

// BatchWidth is the number of input vectors executed per batch chunk.
// Callers may pass any number of environments to RunBatch; they are
// processed in chunks of this size.
const BatchWidth = 64

// batchKind classifies one compiled instruction for the batch executor.
// Specialized kinds have a dedicated whole-batch kernel over scalar
// registers; everything else runs through the shared evalOp kernels one
// vector at a time (still amortizing the interpreter loop, not the kernel
// dispatch).
type batchKind uint8

const (
	bkGeneric batchKind = iota
	bkRet
	bkUnreachable
	bkIntBin
	bkICmp
	bkSelect
	bkConvInt
	bkCall
	bkFreeze
)

// specialized reports whether k has a dedicated batch kernel. Specialized
// kernels take each operand as a contiguous run of BatchWidth words:
// register operands view the batch arena, constant operands view a column
// prefilled with the broadcast constant (Program.constCols) — so the
// kernels' inner loops index plain slices with no per-element dispatch.
func (k batchKind) specialized() bool {
	return k != bkGeneric && k != bkRet && k != bkUnreachable
}

// classifyBatch picks the batch kernel for one compiled instruction.
// Specialization requires a scalar result and scalar operands (one lane
// each); vector instructions and rare opcodes keep the shared evalOp
// kernels via the per-vector generic path. Calls specialize when they name
// a supported intrinsic with all its value operands present and, for
// abs/ctlz/cttz, a constant flag operand (a register flag is read per lane
// on the generic path).
func classifyBatch(p *Program, ci *cinstr) batchKind {
	switch ci.in.Op {
	case ir.OpRet:
		return bkRet
	case ir.OpUnreachable:
		return bkUnreachable
	}
	if ci.dst < 0 || p.regLanes[ci.dst] != 1 {
		return bkGeneric
	}
	for _, slot := range ci.args {
		if slot >= 0 {
			if p.regLanes[slot] != 1 {
				return bkGeneric
			}
		} else if e := &p.consts[^slot]; e.guarded() || len(e.rv.Lanes) != 1 {
			return bkGeneric
		}
	}
	switch {
	case ci.in.Op.IsIntBinary():
		return bkIntBin
	case ci.in.Op == ir.OpICmp:
		return bkICmp
	case ci.in.Op == ir.OpSelect:
		return bkSelect
	case ci.in.Op == ir.OpFreeze:
		return bkFreeze
	case ci.in.Op == ir.OpZExt, ci.in.Op == ir.OpSExt, ci.in.Op == ir.OpTrunc:
		return bkConvInt
	case ci.in.Op == ir.OpCall && ci.intr != intrNone && len(ci.args) >= ci.intr.arity():
		if ci.intr.flagged() && len(ci.args) > 1 && ci.args[1] >= 0 {
			return bkGeneric
		}
		return bkCall
	}
	return bkGeneric
}

// RunBatch executes the program on every environment and writes one Result
// per input into out (which must be at least as long as envs). Semantics per
// vector — values, poison lanes, UB reasons, step accounting — are
// bit-identical to calling Exec on each environment in order. Returned Ret
// values may alias the evaluator's batch scratch and are valid only until
// the next run; clone to retain them.
func (ev *Evaluator) RunBatch(envs []Env, out []Result) {
	if len(out) < len(envs) {
		panic("interp: RunBatch needs len(out) >= len(envs)")
	}
	for base := 0; base < len(envs); base += BatchWidth {
		hi := min(base+BatchWidth, len(envs))
		ev.runBatchChunk(envs[base:hi])
		ev.results(out[base:hi])
		if hi < len(envs) {
			// Detach the chunk's return values from the arena the next
			// chunk reuses.
			for b := base; b < hi; b++ {
				out[b].Ret = out[b].Ret.Clone()
			}
		}
	}
}

// ArgColumn returns the batch arena's input column for parameter i: vector
// b's lanes occupy [b*L, (b+1)*L) of the returned run, the exact layout the
// batch kernels read. Callers streaming many batches (the alive checker)
// write inputs directly into the columns and execute with RunBatchFilled,
// eliding the per-vector Env staging and scatter entirely.
func (ev *Evaluator) ArgColumn(i int) []Word {
	r := ev.p.paramReg[i]
	L := int(ev.p.regLanes[r])
	base := int(ev.p.regOff[r]) * BatchWidth
	return ev.words[base : base+L*BatchWidth : base+L*BatchWidth]
}

// RunBatchFilled executes the first n batch lanes against inputs the caller
// already wrote into the ArgColumn runs, with default step budgets. mems
// optionally carries one memory per lane (nil entries and a nil slice mean
// no memory, as for an Env without Mem). The outcome stays in the
// evaluator: Outcome gives it as lane masks, RetLanes a lane's return
// value and Result a lane's full Result. n must be <= BatchWidth.
func (ev *Evaluator) RunBatchFilled(n int, mems []*Memory) {
	if n > BatchWidth {
		panic("interp: RunBatchFilled bounds")
	}
	ev.done, ev.ub = 0, 0
	for b := 0; b < n; b++ {
		ev.alive[b] = true
	}
	if ev.p.hasMem {
		for b := 0; b < n; b++ {
			if mems != nil && mems[b] != nil {
				ev.mems[b] = mems[b]
			} else {
				ev.mems[b] = ev.emptyMem
			}
		}
	}
	if ev.p.straight {
		ev.runBatchCore(n, nil, defaultMaxSteps, n)
	} else {
		ev.runBatchBlocks(n, nil)
	}
}

// Outcome reports the last run as lane masks: done holds the lanes that
// completed (returned, or stopped at undefined behaviour), ub the lanes
// that stopped at undefined behaviour. A lane in neither ran out of its
// step budget. Bit b is batch lane b.
func (ev *Evaluator) Outcome() (done, ub uint64) { return ev.done, ev.ub }

// RetLanes returns the return value lanes of batch lane b, which must have
// returned normally in the last run (done and not ub); nil for a void
// return. The slice aliases the evaluator's scratch until the next run.
func (ev *Evaluator) RetLanes(b int) []Word {
	ci := &ev.p.code[ev.retAt[b]]
	if len(ci.args) == 0 {
		return nil
	}
	slot := ci.args[0]
	if slot >= 0 {
		return ev.laneView(slot, b)
	}
	e := &ev.p.consts[^slot]
	if e.dyn == nil {
		return e.rv.Lanes
	}
	// Gathered into lane b's run of the buffer when the lane returned.
	n := len(e.dyn.elems)
	return ev.dynBuf[^slot][b*n : (b+1)*n : (b+1)*n]
}

// RetColumn returns the return values of the last run as one column when
// the program has exactly one ret and that ret reads a scalar register or a
// scalar constant: every lane b that returned normally holds its return
// value in col[b] — the word RetLanes(b) views. It returns nil for programs
// with several rets, a void return or a vector return value; read those per
// lane with RetLanes. The column aliases the evaluator's scratch (or the
// shared Program) and must not be modified.
func (ev *Evaluator) RetColumn() []Word {
	if k := ev.p.retConst; k >= 0 {
		return ev.p.constCols[k]
	}
	r := ev.p.retReg
	if r < 0 {
		return nil
	}
	base := int(ev.p.regOff[r]) * BatchWidth
	return ev.words[base : base+BatchWidth : base+BatchWidth]
}

// Result materializes batch lane b's outcome of the last run, exactly as
// Exec would report it for that vector. Its Ret aliases the evaluator's
// scratch like RetLanes.
func (ev *Evaluator) Result(b int) Result {
	bit := uint64(1) << uint(b)
	switch {
	case ev.ub&bit != 0:
		return Result{UB: true, UBReason: ev.why[b], Completed: true, DynInstrs: ev.dyn[b]}
	case ev.done&bit == 0:
		return Result{DynInstrs: ev.dyn[b]}
	}
	r := Result{Completed: true, DynInstrs: ev.dyn[b]}
	if ci := &ev.p.code[ev.retAt[b]]; len(ci.args) > 0 {
		r.Ret = RVal{Ty: ci.in.Args[0].Type(), Lanes: ev.RetLanes(b)}
	}
	return r
}

// results writes the Results of the last run's first len(out) lanes into
// out.
func (ev *Evaluator) results(out []Result) {
	for b := range out {
		out[b] = ev.Result(b)
	}
}

// laneView returns batch lane b's run of register r.
func (ev *Evaluator) laneView(r int32, b int) []Word {
	L := int(ev.p.regLanes[r])
	base := int(ev.p.regOff[r])*BatchWidth + b*L
	return ev.words[base : base+L : base+L]
}

// retire records that lane b returned through the ret at code index gi
// after steps instructions.
func (ev *Evaluator) retire(b, gi, steps int) {
	ev.done |= 1 << uint(b)
	ev.dyn[b] = steps
	ev.retAt[b] = int32(gi)
	ev.alive[b] = false
}

// fail records that lane b stopped at undefined behaviour after steps
// instructions.
func (ev *Evaluator) fail(b int, why string, steps int) {
	ev.done |= 1 << uint(b)
	ev.ub |= 1 << uint(b)
	ev.why[b] = why
	ev.dyn[b] = steps
	ev.alive[b] = false
}

// exhaust records that lane b ran out of its step budget at steps.
func (ev *Evaluator) exhaust(b, steps int) {
	ev.dyn[b] = steps
	ev.alive[b] = false
}

// runBatchChunk scatters one chunk of at most BatchWidth environments into
// the batch arena and runs it; the outcome stays in the evaluator.
func (ev *Evaluator) runBatchChunk(envs []Env) {
	p := ev.p
	B := len(envs)
	live := 0
	minMax := defaultMaxSteps
	ev.done, ev.ub = 0, 0
	for b := 0; b < B; b++ {
		if len(envs[b].Args) != len(p.fn.Params) {
			ev.fail(b, fmt.Sprintf("argument count mismatch: have %d, want %d",
				len(envs[b].Args), len(p.fn.Params)), 0)
			continue
		}
		if ms := envs[b].MaxSteps; ms != 0 && ms < minMax {
			minMax = ms
		}
		ev.alive[b] = true
		live++
	}

	// Scatter the arguments into the batch arena, zero-padding short lanes.
	// Scalar parameters (the dominant case) take the direct-store path.
	allAlive := live == B
	for i, r := range p.paramReg {
		L := int(p.regLanes[r])
		base := int(p.regOff[r]) * BatchWidth
		if L == 1 {
			run := ev.words[base : base+B : base+B]
			for b := 0; b < B; b++ {
				if !allAlive && !ev.alive[b] {
					continue
				}
				if lanes := envs[b].Args[i].Lanes; len(lanes) > 0 {
					run[b] = lanes[0]
				} else {
					run[b] = Word{}
				}
			}
			continue
		}
		for b := 0; b < B; b++ {
			if !allAlive && !ev.alive[b] {
				continue
			}
			dst := ev.words[base+b*L : base+(b+1)*L : base+(b+1)*L]
			n := copy(dst, envs[b].Args[i].Lanes)
			for ; n < len(dst); n++ {
				dst[n] = Word{}
			}
		}
	}

	if p.hasMem {
		for b := 0; b < B; b++ {
			if m := envs[b].Mem; m != nil {
				ev.mems[b] = m
			} else {
				ev.mems[b] = ev.emptyMem
			}
		}
	}
	if p.straight {
		ev.runBatchCore(B, envs, minMax, live)
	} else {
		ev.runBatchBlocks(B, envs)
	}
}

// runKernel runs a specialized instruction's whole-batch kernel over the
// first B lanes (only live lanes are written).
func (ev *Evaluator) runKernel(gi int, ci *cinstr, B int, kill func(int, string)) {
	dst, args := ev.bdst[gi], ev.bargs[gi]
	switch ev.p.kinds[gi] {
	case bkIntBin:
		batchIntBin(ci.in, dst, args, ev.alive, B, kill)
	case bkICmp:
		batchICmp(ci.in, dst, args, ev.alive, B)
	case bkSelect:
		batchSelect(dst, args, ev.alive, B)
	case bkConvInt:
		batchConvInt(ci.in, dst, args, ev.alive, B)
	case bkCall:
		batchCall(ci, dst, args, ev.alive, B)
	case bkFreeze:
		batchFreeze(dst, args, ev.alive, B)
	}
}

// genericArgs prepares ev.argBuf for a generic instruction: operand types
// and static constants are set once per instruction, so the lane loop only
// points register (and dynamic constant) operands at each lane's words.
func (ev *Evaluator) genericArgs(ci *cinstr) []RVal {
	args := ev.argBuf[:len(ci.args)]
	for k, slot := range ci.args {
		if slot < 0 && ev.p.consts[^slot].dyn == nil {
			args[k] = ev.p.consts[^slot].rv
		} else {
			args[k] = RVal{Ty: ci.in.Args[k].Type()}
		}
	}
	return args
}

// evalGeneric runs one generic instruction for lane b: a resolved
// intrinsic goes straight to its kernel, everything else through evalOp.
func (ev *Evaluator) evalGeneric(ci *cinstr, dst []Word, args []RVal, b int) (bool, string) {
	if ci.intr != intrNone {
		evalIntrinsic(ci.intr, ir.ScalarBits(ir.Elem(ci.in.Ty)), dst, args)
		return false, ""
	}
	mem := ev.emptyMem
	if ev.p.hasMem {
		mem = ev.mems[b]
	}
	return evalOp(ci.in, dst, args, mem, &ev.sc)
}

// runBatchCore is the straight-line execution loop: arguments are already
// in the batch arena and ev.alive/live describe the runnable lanes. envs is
// only consulted for per-lane step budgets and may be nil (default
// budgets).
func (ev *Evaluator) runBatchCore(B int, envs []Env, minMax, live int) {
	p := ev.p

	// kill retires lane b with UB at the current instruction (uniform
	// across lanes on the straight-line path).
	step := 0
	kill := func(b int, why string) {
		ev.fail(b, why, step)
		live--
	}

	for gi := 0; gi < len(p.code) && live > 0; gi++ {
		ci := &p.code[gi]
		step = gi + 1
		if step > minMax {
			for b := 0; b < B; b++ {
				if !ev.alive[b] {
					continue
				}
				ms := defaultMaxSteps
				if envs != nil && envs[b].MaxSteps != 0 {
					ms = envs[b].MaxSteps
				}
				if step > ms {
					ev.exhaust(b, step)
					live--
				}
			}
			if live == 0 {
				break
			}
		}
		switch k := p.kinds[gi]; {
		case k == bkRet:
			alive, dyn, retAt := ev.alive[:B], ev.dyn[:B], ev.retAt[:B]
			var done uint64
			for b := range alive {
				if alive[b] {
					done |= 1 << uint(b)
					dyn[b] = step
					retAt[b] = int32(gi)
					alive[b] = false
				}
			}
			ev.done |= done
			live = 0
		case k == bkUnreachable:
			for b := 0; b < B; b++ {
				if ev.alive[b] {
					kill(b, "reached unreachable")
				}
			}
		case k.specialized():
			ev.runKernel(gi, ci, B, kill)
		default: // bkGeneric: shared kernels, one vector at a time.
			args := ev.genericArgs(ci)
			for b := 0; b < B; b++ {
				if !ev.alive[b] {
					continue
				}
				for k, slot := range ci.args {
					if slot >= 0 {
						args[k].Lanes = ev.laneView(slot, b)
					}
				}
				var dst []Word
				if ci.dst >= 0 {
					dst = ev.laneView(ci.dst, b)
				}
				if ub, why := ev.evalGeneric(ci, dst, args, b); ub {
					kill(b, why)
				}
			}
		}
	}
	if live > 0 {
		step = len(p.code)
		for b := 0; b < B; b++ {
			if ev.alive[b] {
				kill(b, "block fell through without terminator")
			}
		}
	}
}

// runBatchBlocks is the masked multi-block scheduler: arguments are already
// in the batch arena and ev.alive marks the runnable lanes. All lanes of a
// wave step the current block's instructions together; a lane leaves the
// wave by returning, dying (UB, budget), or branching — branches park the
// lane on its successor's waiting mask. The scheduler then resumes the
// lowest-numbered block with parked lanes: forward branches reconverge
// naturally (both arms of a diamond run before their join block) and back
// edges re-run loop bodies until every lane has exited. Per-lane step
// counts, budgets, defined-register masks and predecessor blocks keep the
// semantics — including UB reasons and DynInstrs — bit-identical to running
// Exec per vector. envs is only consulted for per-lane step budgets and may
// be nil (default budgets).
func (ev *Evaluator) runBatchBlocks(B int, envs []Env) {
	p := ev.p

	var entry uint64
	for b := 0; b < B; b++ {
		ev.steps[b] = 0
		ev.prev[b] = p.entryKey
		ev.budget[b] = defaultMaxSteps
		if envs != nil && envs[b].MaxSteps != 0 {
			ev.budget[b] = envs[b].MaxSteps
		}
		if ev.alive[b] {
			entry |= 1 << uint(b)
		}
	}
	defs := ev.defs
	for i := range defs {
		defs[i] = 0
	}
	for _, r := range p.paramReg {
		defs[r] = entry
	}
	waiting := ev.waiting
	for i := range waiting {
		waiting[i] = 0
	}
	waiting[0] = entry
	steps, budget, prev := ev.steps, ev.budget, ev.prev

	// wave is the lane mask currently executing; kill retires one lane of
	// it with UB at its own step count.
	var wave uint64
	kill := func(b int, why string) {
		ev.fail(b, why, steps[b])
		wave &^= 1 << uint(b)
	}
	// checkLanes applies one instruction's runtime guards lane by lane, in
	// operand order, mirroring state.operand.
	checkLanes := func(ci *cinstr) {
		for _, k := range ci.checks {
			if wave == 0 {
				return
			}
			slot := ci.args[k]
			if slot >= 0 {
				for m := wave &^ defs[slot]; m != 0; m &= m - 1 {
					kill(bits.TrailingZeros64(m), "use of unbound value "+ci.in.Args[k].Ident())
				}
			} else if e := &p.consts[^slot]; e.guarded() {
				for m := wave; m != 0; m &= m - 1 {
					b := bits.TrailingZeros64(m)
					if why := ev.constUB(e, b); why != "" {
						kill(b, why)
					}
				}
			}
		}
	}

	for {
		bi := -1
		for i := range waiting {
			if waiting[i] != 0 {
				bi = i
				break
			}
		}
		if bi < 0 {
			return
		}
		wave = waiting[bi]
		waiting[bi] = 0
		for m := wave; m != 0; m &= m - 1 {
			ev.alive[bits.TrailingZeros64(m)] = true
		}
		blk := &p.blocks[bi]
		for gi := int(blk.start); gi < int(blk.end) && wave != 0; gi++ {
			ci := &p.code[gi]
			for m := wave; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m)
				steps[b]++
				if steps[b] > budget[b] {
					ev.exhaust(b, steps[b])
					wave &^= 1 << uint(b)
				}
			}
			if wave == 0 {
				break
			}
			switch ci.in.Op {
			case ir.OpRet:
				if len(ci.in.Args) == 1 {
					checkLanes(ci)
					if slot := ci.args[0]; slot < 0 && p.consts[^slot].dyn != nil {
						// Gather each lane's value now, for RetLanes.
						for m := wave; m != 0; m &= m - 1 {
							ev.constLanes(slot, bits.TrailingZeros64(m))
						}
					}
				}
				for m := wave; m != 0; m &= m - 1 {
					b := bits.TrailingZeros64(m)
					ev.retire(b, gi, steps[b])
				}
				wave = 0
			case ir.OpBr:
				if len(ci.in.Args) == 0 {
					if succ := ci.succ[0]; succ < 0 {
						why := "branch to unknown block " + ci.in.Labels[0]
						for m := wave; m != 0; m &= m - 1 {
							kill(bits.TrailingZeros64(m), why)
						}
					} else {
						waiting[succ] |= wave
						for m := wave; m != 0; m &= m - 1 {
							b := bits.TrailingZeros64(m)
							prev[b] = blk.key
							ev.alive[b] = false
						}
						wave = 0
					}
					break
				}
				checkLanes(ci)
				slot := ci.args[0]
				for m := wave; m != 0; m &= m - 1 {
					b := bits.TrailingZeros64(m)
					var c Word
					if slot >= 0 {
						c = ev.laneView(slot, b)[0]
					} else {
						c = ev.constLanes(slot, b)[0]
					}
					if c.Poison {
						kill(b, "branch on poison")
						continue
					}
					k := 1
					if c.V&1 == 1 {
						k = 0
					}
					if succ := ci.succ[k]; succ < 0 {
						kill(b, "branch to unknown block "+ci.in.Labels[k])
					} else {
						waiting[succ] |= 1 << uint(b)
						prev[b] = blk.key
						ev.alive[b] = false
						wave &^= 1 << uint(b)
					}
				}
			case ir.OpUnreachable:
				for m := wave; m != 0; m &= m - 1 {
					kill(bits.TrailingZeros64(m), "reached unreachable")
				}
			case ir.OpPhi:
				for m := wave; m != 0; m &= m - 1 {
					b := bits.TrailingZeros64(m)
					idx := -1
					for k, pi := range ci.phiPred {
						if pi == prev[b] {
							idx = k
							break
						}
					}
					if idx < 0 {
						pn := ""
						if prev[b] >= 0 {
							pn = p.blocks[prev[b]].name
						}
						kill(b, "phi has no incoming edge from "+pn)
						continue
					}
					slot := ci.args[idx]
					var src []Word
					if slot >= 0 {
						if defs[slot]&(1<<uint(b)) == 0 {
							kill(b, "use of unbound value "+ci.in.Args[idx].Ident())
							continue
						}
						src = ev.laneView(slot, b)
					} else {
						e := &p.consts[^slot]
						if !e.guarded() {
							src = e.rv.Lanes
						} else if why := ev.constUB(e, b); why != "" {
							kill(b, why)
							continue
						} else {
							src = ev.constLanes(slot, b)
						}
					}
					if ci.dst >= 0 {
						dst := ev.laneView(ci.dst, b)
						n := copy(dst, src)
						for ; n < len(dst); n++ {
							dst[n] = Word{}
						}
						defs[ci.dst] |= 1 << uint(b)
					}
				}
			default:
				checkLanes(ci)
				if wave == 0 {
					break
				}
				if p.kinds[gi].specialized() {
					ev.runKernel(gi, ci, B, kill)
				} else { // bkGeneric: shared kernels, one lane at a time.
					args := ev.genericArgs(ci)
					for m := wave; m != 0; m &= m - 1 {
						b := bits.TrailingZeros64(m)
						for k, slot := range ci.args {
							if slot >= 0 {
								args[k].Lanes = ev.laneView(slot, b)
							} else if p.consts[^slot].dyn != nil {
								args[k].Lanes = ev.constLanes(slot, b)
							}
						}
						var dst []Word
						if ci.dst >= 0 {
							dst = ev.laneView(ci.dst, b)
						}
						if ub, why := ev.evalGeneric(ci, dst, args, b); ub {
							kill(b, why)
						}
					}
				}
				if ci.dst >= 0 {
					defs[ci.dst] |= wave
				}
			}
		}
		// Lanes that ran off the block without reaching a terminator.
		for m := wave; m != 0; m &= m - 1 {
			kill(bits.TrailingZeros64(m), "block fell through without terminator")
		}
	}
}

// constUB returns why batch lane b cannot materialize constant e, or "": the
// first of a dynamic constant's register reads that is unbound in lane b,
// then any static failure. Only the masked scheduler runs guarded operands.
func (ev *Evaluator) constUB(e *constEntry, b int) string {
	if e.dyn != nil {
		for _, u := range e.dyn.uses {
			if ev.defs[u.reg]&(1<<uint(b)) == 0 {
				return u.why
			}
		}
	}
	if e.ub {
		return e.why
	}
	return ""
}

// constLanes returns batch lane b's value of constant operand slot. A
// dynamic constant's elements are gathered from lane b's registers into
// lane b's own run of its buffer, so the result stays valid, like a
// register view, until the next run.
func (ev *Evaluator) constLanes(slot int32, b int) []Word {
	e := &ev.p.consts[^slot]
	if e.dyn == nil {
		return e.rv.Lanes
	}
	n := len(e.dyn.elems)
	buf := ev.dynBuf[^slot][b*n : (b+1)*n : (b+1)*n]
	for i, el := range e.dyn.elems {
		if el.reg >= 0 {
			buf[i] = ev.words[int(ev.p.regOff[el.reg])*BatchWidth+b*int(ev.p.regLanes[el.reg])]
		} else {
			buf[i] = el.w
		}
	}
	return buf
}

// The batch kernels below mirror the shared per-opcode kernels element for
// element (see kernels.go / intrinsics.go); they differ only in iterating
// the batch dimension and killing individual lanes on UB instead of
// aborting the whole execution. The randomized differential test pins them
// to the scalar kernels.

func batchIntBin(in *ir.Instr, dst []Word, args [][]Word, alive []bool, B int,
	kill func(int, string)) {
	w := ir.ScalarBits(ir.Elem(in.Ty))
	mask := ir.MaskW(w)
	op, flags := in.Op, in.Flags
	xs, ys := args[0][:B], args[1][:B]
	alive = alive[:B]
	dst = dst[:B]
	// Flagless bitwise/additive ops — the bulk of real windows — get tight
	// per-op loops with the dispatch hoisted out of the batch. The low w
	// bits of these ops depend only on the low w bits of their operands, so
	// masking once at the store matches the masked-operand general path.
	if flags == ir.NoFlags {
		switch op {
		case ir.OpAnd:
			for b := 0; b < B; b++ {
				if !alive[b] {
					continue
				}
				x, y := xs[b], ys[b]
				if x.Poison || y.Poison {
					dst[b] = Word{Poison: true}
					continue
				}
				dst[b] = Word{V: (x.V & y.V) & mask}
			}
			return
		case ir.OpOr:
			for b := 0; b < B; b++ {
				if !alive[b] {
					continue
				}
				x, y := xs[b], ys[b]
				if x.Poison || y.Poison {
					dst[b] = Word{Poison: true}
					continue
				}
				dst[b] = Word{V: (x.V | y.V) & mask}
			}
			return
		case ir.OpXor:
			for b := 0; b < B; b++ {
				if !alive[b] {
					continue
				}
				x, y := xs[b], ys[b]
				if x.Poison || y.Poison {
					dst[b] = Word{Poison: true}
					continue
				}
				dst[b] = Word{V: (x.V ^ y.V) & mask}
			}
			return
		case ir.OpAdd:
			for b := 0; b < B; b++ {
				if !alive[b] {
					continue
				}
				x, y := xs[b], ys[b]
				if x.Poison || y.Poison {
					dst[b] = Word{Poison: true}
					continue
				}
				dst[b] = Word{V: (x.V + y.V) & mask}
			}
			return
		case ir.OpSub:
			for b := 0; b < B; b++ {
				if !alive[b] {
					continue
				}
				x, y := xs[b], ys[b]
				if x.Poison || y.Poison {
					dst[b] = Word{Poison: true}
					continue
				}
				dst[b] = Word{V: (x.V - y.V) & mask}
			}
			return
		}
	}
	isDiv := op == ir.OpUDiv || op == ir.OpSDiv || op == ir.OpURem || op == ir.OpSRem
	for b := 0; b < B; b++ {
		if !alive[b] {
			continue
		}
		x, y := xs[b], ys[b]
		if isDiv {
			if y.Poison {
				kill(b, "division by poison")
				continue
			}
			if y.V&mask == 0 {
				kill(b, "division by zero")
				continue
			}
			if (op == ir.OpSDiv || op == ir.OpSRem) && !x.Poison {
				if ir.SignExt(x.V, w) == minSigned(w) && ir.SignExt(y.V, w) == -1 {
					kill(b, "signed division overflow")
					continue
				}
			}
		}
		if x.Poison || y.Poison {
			dst[b] = Word{Poison: true}
			continue
		}
		xv, yv := x.V&mask, y.V&mask
		var r uint64
		poison := false
		switch op {
		case ir.OpAdd:
			r = (xv + yv) & mask
			if flags.Has(ir.NUW) && r < xv {
				poison = true
			}
			if flags.Has(ir.NSW) && addNSWOverflow(xv, yv, r, w) {
				poison = true
			}
		case ir.OpSub:
			r = (xv - yv) & mask
			if flags.Has(ir.NUW) && yv > xv {
				poison = true
			}
			if flags.Has(ir.NSW) && subNSWOverflow(xv, yv, r, w) {
				poison = true
			}
		case ir.OpMul:
			hi, lo := bits.Mul64(xv, yv)
			r = lo & mask
			if flags.Has(ir.NUW) {
				if hi != 0 || lo&^mask != 0 {
					poison = true
				}
			}
			if flags.Has(ir.NSW) && mulNSWOverflow(xv, yv, w) {
				poison = true
			}
		case ir.OpUDiv:
			r = xv / yv
			if flags.Has(ir.Exact) && xv%yv != 0 {
				poison = true
			}
		case ir.OpSDiv:
			sr := ir.SignExt(xv, w) / ir.SignExt(yv, w)
			r = uint64(sr) & mask
			if flags.Has(ir.Exact) && ir.SignExt(xv, w)%ir.SignExt(yv, w) != 0 {
				poison = true
			}
		case ir.OpURem:
			r = xv % yv
		case ir.OpSRem:
			r = uint64(ir.SignExt(xv, w)%ir.SignExt(yv, w)) & mask
		case ir.OpShl:
			if yv >= uint64(w) {
				poison = true
				break
			}
			r = (xv << yv) & mask
			if flags.Has(ir.NUW) && (r>>yv) != xv {
				poison = true
			}
			if flags.Has(ir.NSW) {
				back := uint64(ir.SignExt(r, w)>>yv) & mask
				if back != xv {
					poison = true
				}
			}
		case ir.OpLShr:
			if yv >= uint64(w) {
				poison = true
				break
			}
			r = xv >> yv
			if flags.Has(ir.Exact) && (r<<yv)&mask != xv {
				poison = true
			}
		case ir.OpAShr:
			if yv >= uint64(w) {
				poison = true
				break
			}
			r = uint64(ir.SignExt(xv, w)>>yv) & mask
			if flags.Has(ir.Exact) && xv&((uint64(1)<<yv)-1) != 0 {
				poison = true
			}
		case ir.OpAnd:
			r = xv & yv
		case ir.OpOr:
			r = xv | yv
			if flags.Has(ir.Disjoint) && xv&yv != 0 {
				poison = true
			}
		case ir.OpXor:
			r = xv ^ yv
		}
		dst[b] = Word{V: r & mask, Poison: poison}
	}
}

func batchICmp(in *ir.Instr, dst []Word, args [][]Word, alive []bool, B int) {
	w := ir.ScalarBits(ir.Elem(in.Args[0].Type()))
	mask := ir.MaskW(w)
	pred := in.IPredV
	xs, ys := args[0][:B], args[1][:B]
	alive = alive[:B]
	dst = dst[:B]
	for b := 0; b < B; b++ {
		if !alive[b] {
			continue
		}
		x, y := xs[b], ys[b]
		if x.Poison || y.Poison {
			dst[b] = Word{Poison: true}
			continue
		}
		xv, yv := x.V&mask, y.V&mask
		sx, sy := ir.SignExt(xv, w), ir.SignExt(yv, w)
		var r bool
		switch pred {
		case ir.EQ:
			r = xv == yv
		case ir.NE:
			r = xv != yv
		case ir.UGT:
			r = xv > yv
		case ir.UGE:
			r = xv >= yv
		case ir.ULT:
			r = xv < yv
		case ir.ULE:
			r = xv <= yv
		case ir.SGT:
			r = sx > sy
		case ir.SGE:
			r = sx >= sy
		case ir.SLT:
			r = sx < sy
		case ir.SLE:
			r = sx <= sy
		}
		if r {
			dst[b] = Word{V: 1}
		} else {
			dst[b] = Word{V: 0}
		}
	}
}

func batchSelect(dst []Word, args [][]Word, alive []bool, B int) {
	cs, ts, fs := args[0][:B], args[1][:B], args[2][:B]
	alive = alive[:B]
	dst = dst[:B]
	for b := 0; b < B; b++ {
		if !alive[b] {
			continue
		}
		c := cs[b]
		switch {
		case c.Poison:
			dst[b] = Word{Poison: true}
		case c.V&1 == 1:
			dst[b] = ts[b]
		default:
			dst[b] = fs[b]
		}
	}
}

func batchConvInt(in *ir.Instr, dst []Word, args [][]Word, alive []bool, B int) {
	fw := ir.ScalarBits(ir.Elem(in.Args[0].Type()))
	tw := ir.ScalarBits(ir.Elem(in.Ty))
	op, flags := in.Op, in.Flags
	xs := args[0][:B]
	alive = alive[:B]
	dst = dst[:B]
	for b := 0; b < B; b++ {
		if !alive[b] {
			continue
		}
		x := xs[b]
		if x.Poison {
			dst[b] = Word{Poison: true}
			continue
		}
		var r uint64
		poison := false
		switch op {
		case ir.OpZExt:
			r = x.V & ir.MaskW(fw)
			if flags.Has(ir.NNeg) && ir.SignExt(x.V, fw) < 0 {
				poison = true
			}
		case ir.OpSExt:
			r = uint64(ir.SignExt(x.V, fw)) & ir.MaskW(tw)
		case ir.OpTrunc:
			r = x.V & ir.MaskW(tw)
			if flags.Has(ir.NUW) && x.V&ir.MaskW(fw) != r {
				poison = true
			}
			if flags.Has(ir.NSW) && ir.SignExt(x.V, fw) != ir.SignExt(r, tw) {
				poison = true
			}
		}
		dst[b] = Word{V: r, Poison: poison}
	}
}

// batchCall runs a resolved intrinsic over the batch: the kernel
// (intrinsicOp.lane) is the one Exec uses, with the callee, width and flag
// resolved once per batch instead of once per lane.
func batchCall(ci *cinstr, dst []Word, args [][]Word, alive []bool, B int) {
	op, flag := ci.intr, ci.flag
	w := ir.ScalarBits(ir.Elem(ci.in.Ty))
	mask := ir.MaskW(w)
	alive = alive[:B]
	dst = dst[:B]
	switch op.arity() {
	case 1:
		xs := args[0][:B]
		for b := 0; b < B; b++ {
			if !alive[b] {
				continue
			}
			x := xs[b]
			if x.Poison {
				dst[b] = Word{Poison: true}
				continue
			}
			v, p := op.lane(w, mask, flag, x.V, 0, 0)
			dst[b] = Word{V: v, Poison: p}
		}
	case 2:
		xs, ys := args[0][:B], args[1][:B]
		for b := 0; b < B; b++ {
			if !alive[b] {
				continue
			}
			x, y := xs[b], ys[b]
			if x.Poison || y.Poison {
				dst[b] = Word{Poison: true}
				continue
			}
			v, p := op.lane(w, mask, flag, x.V, y.V, 0)
			dst[b] = Word{V: v, Poison: p}
		}
	default:
		xs, ys, zs := args[0][:B], args[1][:B], args[2][:B]
		for b := 0; b < B; b++ {
			if !alive[b] {
				continue
			}
			x, y, z := xs[b], ys[b], zs[b]
			if x.Poison || y.Poison || z.Poison {
				dst[b] = Word{Poison: true}
				continue
			}
			v, p := op.lane(w, mask, flag, x.V, y.V, z.V)
			dst[b] = Word{V: v, Poison: p}
		}
	}
}

func batchFreeze(dst []Word, args [][]Word, alive []bool, B int) {
	xs := args[0][:B]
	alive = alive[:B]
	dst = dst[:B]
	for b := 0; b < B; b++ {
		if !alive[b] {
			continue
		}
		if x := xs[b]; x.Poison {
			dst[b] = Word{V: 0}
		} else {
			dst[b] = x
		}
	}
}
