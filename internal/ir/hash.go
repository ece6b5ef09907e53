package ir

import "strconv"

// Hash computes a structural 64-bit digest of f that is independent of value
// names: parameters and instruction results are numbered canonically in
// definition order, so two functions that differ only in naming hash equal.
// The paper's extractor (Alg. 2 line 9) uses exactly such an opcode+operand
// hash for deduplication.
//
// The digest is FNV-1a over a textual rendering of the function (types as
// the printer spells them, operands as "v<n>" or "c:<type> <ident>"). The
// digests key persistent store records, so that rendering is fixed; Hash
// feeds it to the hash piece by piece instead of building the strings, and
// allocates nothing for functions of up to len(valueIndex.small) values
// without float constants or forward references.
func Hash(f *Func) uint64 {
	h := newFNV()
	var idx valueIndex
	for _, p := range f.Params {
		idx.add(p)
		h.str("p:")
		h.typ(p.Ty)
		h.byte(';')
	}
	h.str("r:")
	h.typ(f.Ret)
	h.byte(';')
	for _, b := range f.Blocks {
		h.str("b;")
		for _, in := range b.Instrs {
			h.str(in.Op.Name())
			h.byte('/')
			h.uint(uint64(in.Flags), 16)
			h.byte('/')
			h.typ(in.Ty)
			if in.Op == OpICmp {
				h.byte('/')
				h.str(in.IPredV.Name())
			}
			if in.Op == OpFCmp {
				h.byte('/')
				h.str(in.FPredV.Name())
			}
			if in.Callee != "" {
				h.str("/@")
				h.str(in.Callee)
			}
			if in.ElemTy != nil {
				h.str("/e")
				h.typ(in.ElemTy)
			}
			for _, a := range in.Args {
				h.byte(',')
				if i, ok := idx.lookup(a); ok {
					h.byte('v')
					h.uint(uint64(i), 10)
					continue
				}
				h.str("c:")
				h.typ(a.Type())
				h.byte(' ')
				h.ident(a)
			}
			for _, l := range in.Labels {
				h.str(",%")
				h.str(l)
			}
			h.byte(';')
			if in.HasResult() {
				idx.add(in)
			}
		}
	}
	return uint64(h)
}

// fnv64 is an FNV-1a 64-bit hash state (hash/fnv's New64a, without the
// interface and the []byte conversions).
type fnv64 uint64

func newFNV() fnv64 { return 14695981039346656037 }

func (h *fnv64) byte(c byte) {
	*h ^= fnv64(c)
	*h *= 1099511628211
}

func (h *fnv64) str(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

func (h *fnv64) uint(v uint64, base int) {
	var buf [20]byte
	for _, c := range strconv.AppendUint(buf[:0], v, base) {
		h.byte(c)
	}
}

func (h *fnv64) int(v int64) {
	var buf [20]byte
	for _, c := range strconv.AppendInt(buf[:0], v, 10) {
		h.byte(c)
	}
}

// typ hashes t.String().
func (h *fnv64) typ(t Type) {
	switch t := t.(type) {
	case IntType:
		h.byte('i')
		h.int(int64(t.W))
	case VecType:
		h.byte('<')
		h.int(int64(t.N))
		h.str(" x ")
		h.typ(t.Elem)
		h.byte('>')
	default:
		h.str(t.String()) // a constant spelling
	}
}

// ident hashes v.Ident(), spelling integer constants without formatting
// a string.
func (h *fnv64) ident(v Value) {
	if c, ok := v.(*ConstInt); ok && c.Ty.W != 1 {
		h.int(SignExt(c.V, c.Ty.W))
		return
	}
	h.str(v.Ident())
}

// valueIndex numbers a function's values in definition order. Lookups scan
// the values defined so far, which for peephole windows is cheaper than a
// map; larger functions move to a map.
type valueIndex struct {
	small [32]Value
	n     int
	big   map[Value]int
}

func (x *valueIndex) add(v Value) {
	if x.n < len(x.small) {
		x.small[x.n] = v
	} else {
		if x.big == nil {
			x.big = make(map[Value]int)
		}
		x.big[v] = x.n
	}
	x.n++
}

func (x *valueIndex) lookup(v Value) (int, bool) {
	for i := range min(x.n, len(x.small)) {
		if x.small[i] == v {
			return i, true
		}
	}
	i, ok := x.big[v]
	return i, ok
}

// StructurallyEqual reports whether two functions are identical up to value
// naming.
func StructurallyEqual(a, b *Func) bool {
	return Hash(a) == Hash(b) && a.NumInstrs(false) == b.NumInstrs(false)
}
