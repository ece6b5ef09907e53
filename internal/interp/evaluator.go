package interp

// Evaluator executes one compiled Program over batches of input vectors
// (batch.go). It owns all scratch storage — the structure-of-arrays register
// arena, the per-instruction operand runs, per-lane liveness, budgets and
// memories, and the kernels' store/bitcast buffers — so a steady-state
// RunBatch or RunBatchFilled performs no allocations on the common paths
// (rare error paths that format addresses still allocate, exactly like
// Exec).
//
// An Evaluator is not safe for concurrent use; build one per goroutine
// (Programs may be shared freely). Return values — Result.Ret and RetLanes —
// alias the evaluator's scratch storage and are valid only until the next
// run; use RVal.Clone to retain them.
type Evaluator struct {
	p *Program

	words  []Word     // register arena, BatchWidth vectors per register lane
	bargs  [][][]Word // per code index: operand runs (specialized kinds)
	bdst   [][]Word   // per code index: result run (specialized kinds)
	flat   [][]Word   // backing store of the bargs runs
	alive  []bool     // per batch lane: still executing
	mems   []*Memory  // per batch lane: memory (programs with hasMem only)
	argBuf []RVal     // reusable per-vector operand views (generic kind)
	sc     scratch

	// Per-lane outcome of the last run: done marks the lanes that completed
	// (returned or stopped at UB), ub those that stopped at UB; dyn holds each
	// lane's step count, why its UB reason and retAt the code index of the
	// ret it executed. Results are materialized from these on demand, so the
	// hot loop writes no per-lane Result.
	done, ub uint64
	dyn      []int
	why      []string
	retAt    []int32

	// dynBuf holds, per dynamic vector constant (nil for every other pool
	// entry), one run of the constant's lanes per batch lane, gathered at
	// each use.
	dynBuf [][]Word

	// Masked multi-block scheduler state (runBatchBlocks), built only for
	// programs that are not straight-line. Lane masks are uint64 bitsets,
	// which BatchWidth = 64 fills exactly.
	steps   []int    // per lane: dynamic instruction count so far
	budget  []int    // per lane: step budget
	prev    []int32  // per lane: nameKey of the predecessor block
	defs    []uint64 // per register: lanes holding a bound value
	waiting []uint64 // per block: lanes parked on its entry

	// emptyMem substitutes for a nil Env.Mem. Loads and stores against an
	// empty memory are always out of bounds and never mutate it, so one
	// shared instance is safe across runs.
	emptyMem *Memory
}

// NewEvaluator builds an evaluator for p.
func NewEvaluator(p *Program) *Evaluator {
	ev := &Evaluator{
		alive:    make([]bool, BatchWidth),
		dyn:      make([]int, BatchWidth),
		why:      make([]string, BatchWidth),
		retAt:    make([]int32, BatchWidth),
		emptyMem: NewMemory(),
	}
	ev.Load(p)
	return ev
}

// Load points the evaluator at p, reusing the scratch storage it already
// holds. Callers that run many short-lived programs, such as the
// superoptimizer candidate filters, keep one evaluator instead of
// allocating a batch arena per program. Ret values returned before the
// call are invalid after it.
func (ev *Evaluator) Load(p *Program) {
	ev.p = p
	ev.words = reuse(ev.words, p.arenaLen*BatchWidth)
	ev.bargs = reuse(ev.bargs, len(p.code))
	ev.bdst = reuse(ev.bdst, len(p.code))
	if p.hasMem {
		ev.mems = reuse(ev.mems, BatchWidth)
	}
	if !p.straight {
		ev.steps = reuse(ev.steps, BatchWidth)
		ev.budget = reuse(ev.budget, BatchWidth)
		ev.prev = reuse(ev.prev, BatchWidth)
		ev.defs = reuse(ev.defs, len(p.regLanes))
		ev.waiting = reuse(ev.waiting, len(p.blocks))
	}
	ev.dynBuf = reuse(ev.dynBuf, len(p.consts))
	for i, e := range p.consts {
		if e.dyn != nil {
			ev.dynBuf[i] = make([]Word, len(e.dyn.elems)*BatchWidth)
		}
	}
	maxArgs, totalOps := 1, 0
	for gi := range p.code {
		n := len(p.code[gi].args)
		maxArgs = max(maxArgs, n)
		if p.kinds[gi].specialized() {
			totalOps += n
		}
	}
	ev.argBuf = reuse(ev.argBuf, maxArgs)
	ev.flat = reuse(ev.flat, totalOps)
	flat := ev.flat
	for gi := range p.code {
		if !p.kinds[gi].specialized() {
			continue
		}
		ci := &p.code[gi]
		views := flat[:len(ci.args):len(ci.args)]
		flat = flat[len(ci.args):]
		for k, slot := range ci.args {
			if slot >= 0 {
				base := int(p.regOff[slot]) * BatchWidth
				views[k] = ev.words[base : base+BatchWidth : base+BatchWidth]
			} else {
				views[k] = p.constCols[^slot]
			}
		}
		ev.bargs[gi] = views
		base := int(p.regOff[ci.dst]) * BatchWidth
		ev.bdst[gi] = ev.words[base : base+BatchWidth : base+BatchWidth]
	}
}

// reuse returns s resized to n zeroed elements, reallocating only when its
// capacity is short.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
