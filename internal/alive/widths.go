package alive

import "repro/internal/ir"

// WidthResult pairs a verification Result with the bit width it ran at.
type WidthResult struct {
	Width int
	Result
}

// Proof is a finished verification of one (source, target) pair, named by
// the pair's structural hashes (ir.Hash). The engine's verify stage produces
// one for every witness it accepts; VerifyWidths uses it to skip proving
// that pair's exhaustive input space a second time.
type Proof struct {
	Src, Tgt uint64
	Result   Result
}

// VerifyWidths re-checks a width-parameterized transformation across a
// width sweep: inst instantiates the (source, target) pair at each width and
// each instantiation is verified independently through a tiered, batched
// Checker. An instantiation error (e.g. a constant that does not survive
// the move to that width) yields an Unsupported result carrying the error,
// mirroring the fixable-error channel of single-pair verification.
//
// Counterexamples are shared across the sweep, CEGIS-style: a width that
// refutes the pair reseeds every later width's tier 0 with the rescaled
// falsifying vector (wrong abstractions usually fail the same way at every
// width, so the sweep rejects them after a handful of executions instead of
// a full sampling pass per width). Widths at which the pair verifies see
// the exact same input sequence as an unseeded run, so surviving sweeps are
// unaffected. internal/generalize drives its over-generalization rejection
// through this helper, and cmd/lpo-verify -widths exposes it directly.
//
// proof, when non-nil, is an earlier verification of the witness pair. At
// the width whose instantiation hashes equal to proof's pair, the Checker
// skips the exhaustive enumeration (Result.Skipped counts it) when the proof
// is Correct and Exhaustive, the pair has no pointer parameters and the
// width's own input sequence is exhaustive too. That width still replays
// its tier-0 vectors and runs its poison trials. See isProven for why this
// reports exactly what the full run would.
func VerifyWidths(widths []int, opts Options, proof *Proof, inst func(w int) (src, tgt *ir.Func, err error)) []WidthResult {
	out := make([]WidthResult, 0, len(widths))
	var carry []PoolVector // falsifying vectors from earlier widths
	for _, w := range widths {
		src, tgt, err := inst(w)
		if err != nil {
			out = append(out, WidthResult{Width: w, Result: Result{Verdict: Unsupported, Err: err.Error()}})
			continue
		}
		c := NewChecker(src, tgt, opts)
		c.proven = isProven(proof, c)
		for _, cv := range carry {
			if rv, ok := RescaleVector(src.Params, cv); ok {
				c.Seed([]PoolVector{rv})
			}
		}
		r := c.Verify()
		if r.Verdict == Incorrect && r.CE != nil {
			carry = append(carry, PoolVector{Inputs: r.CE.Inputs, Mem: r.CE.Memory})
		}
		out = append(out, WidthResult{Width: w, Result: r})
	}
	return out
}

// isProven reports whether proof already covers c's exhaustive phase. The
// skip is exact: both checks compile through the same interp.Cache key
// (the structural hash), so they run the same Programs; without pointer
// parameters the exhaustive phase is the counter enumeration of the
// non-pointer input bits, identical under any Options and drawing nothing
// from the rng, so the poison trials after it see the same rng stream; and
// a Correct proof means none of those vectors violated. Pointer
// parameters are excluded because memory fills beyond the first two are
// drawn from the Options seed, which the proof may not share.
func isProven(proof *Proof, c *Checker) bool {
	return proof != nil && proof.Result.Verdict == Correct && proof.Result.Exhaustive &&
		c.sigErr == "" && len(c.ptrParams) == 0 &&
		ir.Hash(c.src) == proof.Src && ir.Hash(c.tgt) == proof.Tgt
}
