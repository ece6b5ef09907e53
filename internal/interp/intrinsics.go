package interp

import (
	"math"
	"math/bits"

	"repro/internal/ir"
)

// intrinsicOp is a supported intrinsic resolved from its callee name. Exec
// resolves it per call; Compile resolves it once per call instruction, so
// the compiled engine never parses a callee name while executing.
type intrinsicOp uint8

const (
	intrNone intrinsicOp = iota // not a supported intrinsic
	intrUMin
	intrUMax
	intrSMin
	intrSMax
	intrAbs
	intrCtpop
	intrCtlz
	intrCttz
	intrBswap
	intrBitreverse
	intrUAddSat
	intrUSubSat
	intrSAddSat
	intrSSubSat
	intrFshl
	intrFshr
	intrFabs
	intrMinnum
	intrMaxnum
)

var intrinsicByBase = map[string]intrinsicOp{
	"umin": intrUMin, "umax": intrUMax, "smin": intrSMin, "smax": intrSMax,
	"abs": intrAbs, "ctpop": intrCtpop, "ctlz": intrCtlz, "cttz": intrCttz,
	"bswap": intrBswap, "bitreverse": intrBitreverse,
	"uadd.sat": intrUAddSat, "usub.sat": intrUSubSat,
	"sadd.sat": intrSAddSat, "ssub.sat": intrSSubSat,
	"fshl": intrFshl, "fshr": intrFshr,
	"fabs": intrFabs, "minnum": intrMinnum, "maxnum": intrMaxnum,
}

// lookupIntrinsic resolves a callee name, intrNone when unsupported.
func lookupIntrinsic(callee string) intrinsicOp {
	return intrinsicByBase[ir.IntrinsicBase(callee)]
}

// arity is how many value operands the kernel reads per result lane.
func (op intrinsicOp) arity() int {
	switch op {
	case intrAbs, intrCtpop, intrCtlz, intrCttz, intrBswap, intrBitreverse, intrFabs:
		return 1
	case intrFshl, intrFshr:
		return 3
	}
	return 2
}

// flagged reports whether the intrinsic reads a trailing i1 immediate as
// operand 1 (abs: poison on INT_MIN; ctlz/cttz: poison on zero).
func (op intrinsicOp) flagged() bool {
	return op == intrAbs || op == intrCtlz || op == intrCttz
}

// evalCall evaluates the intrinsic subset, writing result lanes into dst.
// All supported intrinsics are pure. Exec and the compiled evaluator's
// per-vector path share it like the other kernels.
func evalCall(in *ir.Instr, dst []Word, args []RVal) (bool, string) {
	op := lookupIntrinsic(in.Callee)
	if op == intrNone {
		return true, "unsupported intrinsic @" + in.Callee
	}
	evalIntrinsic(op, ir.ScalarBits(ir.Elem(in.Ty)), dst, args)
	return false, ""
}

// evalIntrinsic writes the result lanes of a resolved intrinsic. A flagged
// intrinsic reads its flag from lane 0 of operand 1 (false when absent).
func evalIntrinsic(op intrinsicOp, w int, dst []Word, args []RVal) {
	flag := op.flagged() && len(args) > 1 && args[1].Lanes[0].V&1 == 1
	mask := ir.MaskW(w)
	n := op.arity()
	for i := range dst {
		var v [3]uint64
		poison := false
		for k := 0; k < n; k++ {
			l := args[k].Lanes[i]
			poison = poison || l.Poison
			v[k] = l.V
		}
		if poison {
			dst[i] = Word{Poison: true}
			continue
		}
		r, p := op.lane(w, mask, flag, v[0], v[1], v[2])
		dst[i] = Word{V: r, Poison: p}
	}
}

// lane computes one result lane from the raw words of the value operands,
// none of which is poison; operands past the arity are ignored. It is the
// single definition of every intrinsic's semantics: evalIntrinsic and the
// whole-batch kernel batchCall both call it.
func (op intrinsicOp) lane(w int, mask uint64, flag bool, x, y, z uint64) (uint64, bool) {
	switch op {
	case intrFshl, intrFshr:
		// Conceptual 2w-bit value hi:lo; the shift amount is taken modulo w.
		hi, lo := x&mask, y&mask
		sh := z % uint64(w)
		switch {
		case sh == 0 && op == intrFshl:
			return hi, false
		case sh == 0:
			return lo, false
		case op == intrFshl:
			return ((hi << sh) | (lo >> uint(uint64(w)-sh))) & mask, false
		}
		return ((lo >> sh) | (hi << uint(uint64(w)-sh))) & mask, false
	case intrFabs:
		return storeFloat(w, math.Abs(loadFloat(w, x))), false
	case intrMinnum, intrMaxnum:
		fx, fy := loadFloat(w, x), loadFloat(w, y)
		var r float64
		switch {
		case math.IsNaN(fx):
			r = fy
		case math.IsNaN(fy):
			r = fx
		case op == intrMinnum:
			r = math.Min(fx, fy)
		default:
			r = math.Max(fx, fy)
		}
		return storeFloat(w, r), false
	}
	// The integer intrinsics see masked operands and mask their result.
	x, y = x&mask, y&mask
	var v uint64
	poison := false
	switch op {
	case intrUMin:
		v = min(x, y)
	case intrUMax:
		v = max(x, y)
	case intrSMin:
		v = y
		if ir.SignExt(x, w) < ir.SignExt(y, w) {
			v = x
		}
	case intrSMax:
		v = y
		if ir.SignExt(x, w) > ir.SignExt(y, w) {
			v = x
		}
	case intrAbs:
		switch s := ir.SignExt(x, w); {
		case s == minSigned(w):
			v, poison = x, flag
		case s < 0:
			v = uint64(-s)
		default:
			v = x
		}
	case intrCtpop:
		v = uint64(bits.OnesCount64(x))
	case intrCtlz:
		v = uint64(w)
		if x != 0 {
			v = uint64(bits.LeadingZeros64(x) - (64 - w))
		} else {
			poison = flag
		}
	case intrCttz:
		v = uint64(w)
		if x != 0 {
			v = uint64(bits.TrailingZeros64(x))
		} else {
			poison = flag
		}
	case intrBswap:
		v = bits.ReverseBytes64(x) >> uint(64-w)
	case intrBitreverse:
		v = bits.Reverse64(x) >> uint(64-w)
	case intrUAddSat:
		v = (x + y) & mask
		if v < x {
			v = mask
		}
	case intrUSubSat:
		if y <= x {
			v = x - y
		}
	case intrSAddSat:
		v = clampSigned(ir.SignExt(x, w)+ir.SignExt(y, w), w)
	case intrSSubSat:
		v = clampSigned(ir.SignExt(x, w)-ir.SignExt(y, w), w)
	}
	return v & mask, poison
}

func clampSigned(s int64, w int) uint64 {
	lo, hi := minSigned(w), -minSigned(w)-1
	if s < lo {
		s = lo
	}
	if s > hi {
		s = hi
	}
	return uint64(s) & ir.MaskW(w)
}

// SupportedIntrinsic reports whether the interpreter can evaluate calls to
// the given callee.
func SupportedIntrinsic(callee string) bool {
	return lookupIntrinsic(callee) != intrNone
}
