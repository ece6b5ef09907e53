package wasm

import (
	"encoding/binary"
	"fmt"
)

var wasmMagic = [4]byte{0x00, 0x61, 0x73, 0x6D}

// IsWasm reports whether data starts with the wasm binary magic. Used by the
// cmds and the service to sniff binary modules out of otherwise textual
// inputs.
func IsWasm(data []byte) bool {
	return len(data) >= 4 &&
		data[0] == wasmMagic[0] && data[1] == wasmMagic[1] &&
		data[2] == wasmMagic[2] && data[3] == wasmMagic[3]
}

// decodeErrorf builds a structural decode error with a byte offset, so
// malformed-module reports point at the failing section.
func decodeErrorf(off int, format string, args ...any) error {
	return fmt.Errorf("wasm: offset %d: %s", off, fmt.Sprintf(format, args...))
}

// totalLocalsCap bounds the expanded local count per function. Local
// declarations are run-length encoded ((count, type) pairs with a u32
// count), so a 10-byte body can demand 2^32 locals — a classic decoder
// bomb. Functions beyond the cap fail to decode.
const totalLocalsCap = 1 << 16

// Decode parses a wasm binary module. Structural problems (bad magic,
// malformed sections, out-of-range indices) are errors; per-function body
// problems (unknown opcodes, truncated instructions) are tolerated and
// recorded as Function.BodyErr so the lifter can skip just that function
// with a counted reason.
func Decode(data []byte) (*Module, error) {
	if !IsWasm(data) {
		return nil, fmt.Errorf("wasm: bad magic")
	}
	if len(data) < 8 || binary.LittleEndian.Uint32(data[4:8]) != 1 {
		return nil, fmt.Errorf("wasm: unsupported version")
	}
	m := &Module{}
	var funcTypeIdxs []uint32 // function section, joined with code section
	pos := 8
	lastID := -1
	for pos < len(data) {
		id := data[pos]
		pos++
		size, n, err := readU(data[pos:], 32)
		if err != nil {
			return nil, decodeErrorf(pos, "section size: %v", err)
		}
		pos += n
		if uint64(len(data)-pos) < size {
			return nil, decodeErrorf(pos, "section 0x%02X overruns module (%d bytes declared, %d left)", id, size, len(data)-pos)
		}
		body := data[pos : pos+int(size)]
		pos += int(size)
		if id != 0 { // custom sections may appear anywhere
			if int(id) <= lastID {
				return nil, decodeErrorf(pos, "section 0x%02X out of order", id)
			}
			if id > 12 {
				return nil, decodeErrorf(pos, "unknown section id 0x%02X", id)
			}
			lastID = int(id)
		}
		switch id {
		case 1:
			if err := decodeTypeSection(m, body); err != nil {
				return nil, err
			}
		case 2:
			if err := decodeImportSection(m, body); err != nil {
				return nil, err
			}
		case 3:
			funcTypeIdxs, err = decodeFunctionSection(m, body)
			if err != nil {
				return nil, err
			}
		case 5:
			if err := decodeMemorySection(m, body); err != nil {
				return nil, err
			}
		case 7:
			if err := decodeExportSection(m, body); err != nil {
				return nil, err
			}
		case 10:
			if err := decodeCodeSection(m, body, funcTypeIdxs); err != nil {
				return nil, err
			}
		default:
			// Custom, table, global, start, elem, data, datacount: skipped
			// structurally (the size prefix already bounded them).
		}
	}
	if len(funcTypeIdxs) != len(m.Funcs) {
		return nil, fmt.Errorf("wasm: function section declares %d functions, code section has %d", len(funcTypeIdxs), len(m.Funcs))
	}
	// Attach export names to defined functions.
	imported := uint32(len(m.Imports))
	for _, e := range m.Exports {
		if e.Kind != 0 {
			continue
		}
		if e.Index >= imported && e.Index-imported < uint32(len(m.Funcs)) {
			f := m.Funcs[e.Index-imported]
			if f.Name == "" {
				f.Name = sanitizeName(e.Name)
			}
		}
	}
	for i, f := range m.Funcs {
		if f.Name == "" {
			f.Name = fmt.Sprintf("fn%d", int(imported)+i)
		}
	}
	return m, nil
}

func decodeTypeSection(m *Module, b []byte) error {
	count, n, err := readU(b, 32)
	if err != nil {
		return fmt.Errorf("wasm: type count: %v", err)
	}
	b = b[n:]
	for i := uint64(0); i < count; i++ {
		if len(b) == 0 || b[0] != 0x60 {
			return fmt.Errorf("wasm: type %d: expected functype tag 0x60", i)
		}
		b = b[1:]
		var ft FuncType
		ft.Params, b, err = decodeValTypeVec(b)
		if err != nil {
			return fmt.Errorf("wasm: type %d params: %v", i, err)
		}
		ft.Results, b, err = decodeValTypeVec(b)
		if err != nil {
			return fmt.Errorf("wasm: type %d results: %v", i, err)
		}
		m.Types = append(m.Types, ft)
	}
	return trailing("type", b)
}

func decodeValTypeVec(b []byte) ([]ValType, []byte, error) {
	count, n, err := readU(b, 32)
	if err != nil {
		return nil, b, err
	}
	b = b[n:]
	if uint64(len(b)) < count {
		return nil, b, errTruncated
	}
	var out []ValType
	for i := uint64(0); i < count; i++ {
		if !validValType(b[i]) {
			return nil, b, fmt.Errorf("invalid value type 0x%02X", b[i])
		}
		out = append(out, ValType(b[i]))
	}
	return out, b[count:], nil
}

func decodeName(b []byte) (string, []byte, error) {
	ln, n, err := readU(b, 32)
	if err != nil {
		return "", b, err
	}
	b = b[n:]
	if uint64(len(b)) < ln {
		return "", b, errTruncated
	}
	return string(b[:ln]), b[ln:], nil
}

func decodeLimits(b []byte) (MemType, []byte, error) {
	if len(b) == 0 {
		return MemType{}, b, errTruncated
	}
	flag := b[0]
	b = b[1:]
	if flag > 1 {
		return MemType{}, b, fmt.Errorf("invalid limits flag 0x%02X", flag)
	}
	mn, n, err := readU(b, 32)
	if err != nil {
		return MemType{}, b, err
	}
	b = b[n:]
	mt := MemType{Min: uint32(mn)}
	if flag == 1 {
		mx, n, err := readU(b, 32)
		if err != nil {
			return MemType{}, b, err
		}
		b = b[n:]
		mt.Max, mt.HasMax = uint32(mx), true
	}
	return mt, b, nil
}

func decodeImportSection(m *Module, b []byte) error {
	count, n, err := readU(b, 32)
	if err != nil {
		return fmt.Errorf("wasm: import count: %v", err)
	}
	b = b[n:]
	for i := uint64(0); i < count; i++ {
		var mod, name string
		mod, b, err = decodeName(b)
		if err != nil {
			return fmt.Errorf("wasm: import %d module: %v", i, err)
		}
		name, b, err = decodeName(b)
		if err != nil {
			return fmt.Errorf("wasm: import %d name: %v", i, err)
		}
		if len(b) == 0 {
			return errTruncated
		}
		kind := b[0]
		b = b[1:]
		switch kind {
		case 0x00: // function
			ti, n, err := readU(b, 32)
			if err != nil {
				return fmt.Errorf("wasm: import %d typeidx: %v", i, err)
			}
			b = b[n:]
			if ti >= uint64(len(m.Types)) {
				return fmt.Errorf("wasm: import %d: type index %d out of range", i, ti)
			}
			m.Imports = append(m.Imports, Import{Module: mod, Name: name, TypeIdx: uint32(ti)})
		case 0x01: // table: reftype + limits
			if len(b) == 0 {
				return errTruncated
			}
			b = b[1:]
			if _, b, err = decodeLimits(b); err != nil {
				return fmt.Errorf("wasm: import %d table: %v", i, err)
			}
		case 0x02: // memory
			var mt MemType
			if mt, b, err = decodeLimits(b); err != nil {
				return fmt.Errorf("wasm: import %d memory: %v", i, err)
			}
			m.Mems = append(m.Mems, mt)
		case 0x03: // global: valtype + mut
			if len(b) < 2 {
				return errTruncated
			}
			b = b[2:]
		default:
			return fmt.Errorf("wasm: import %d: unknown kind 0x%02X", i, kind)
		}
	}
	return trailing("import", b)
}

func decodeFunctionSection(m *Module, b []byte) ([]uint32, error) {
	count, n, err := readU(b, 32)
	if err != nil {
		return nil, fmt.Errorf("wasm: function count: %v", err)
	}
	b = b[n:]
	// Every entry takes at least one byte, so a count beyond the section's
	// length is malformed; capping the capacity keeps it from allocating.
	out := make([]uint32, 0, min(count, uint64(len(b))))
	for i := uint64(0); i < count; i++ {
		ti, n, err := readU(b, 32)
		if err != nil {
			return nil, fmt.Errorf("wasm: function %d typeidx: %v", i, err)
		}
		b = b[n:]
		if ti >= uint64(len(m.Types)) {
			return nil, fmt.Errorf("wasm: function %d: type index %d out of range", i, ti)
		}
		out = append(out, uint32(ti))
	}
	if err := trailing("function", b); err != nil {
		return nil, err
	}
	return out, nil
}

func trailing(section string, b []byte) error {
	if len(b) != 0 {
		return fmt.Errorf("wasm: %s section has %d trailing bytes", section, len(b))
	}
	return nil
}

func decodeMemorySection(m *Module, b []byte) error {
	count, n, err := readU(b, 32)
	if err != nil {
		return fmt.Errorf("wasm: memory count: %v", err)
	}
	b = b[n:]
	for i := uint64(0); i < count; i++ {
		var mt MemType
		if mt, b, err = decodeLimits(b); err != nil {
			return fmt.Errorf("wasm: memory %d: %v", i, err)
		}
		m.Mems = append(m.Mems, mt)
	}
	return trailing("memory", b)
}

func decodeExportSection(m *Module, b []byte) error {
	count, n, err := readU(b, 32)
	if err != nil {
		return fmt.Errorf("wasm: export count: %v", err)
	}
	b = b[n:]
	for i := uint64(0); i < count; i++ {
		var name string
		name, b, err = decodeName(b)
		if err != nil {
			return fmt.Errorf("wasm: export %d name: %v", i, err)
		}
		if len(b) == 0 {
			return errTruncated
		}
		kind := b[0]
		b = b[1:]
		if kind > 3 {
			return fmt.Errorf("wasm: export %d: unknown kind 0x%02X", i, kind)
		}
		idx, n, err := readU(b, 32)
		if err != nil {
			return fmt.Errorf("wasm: export %d index: %v", i, err)
		}
		b = b[n:]
		m.Exports = append(m.Exports, Export{Name: name, Kind: kind, Index: uint32(idx)})
	}
	return trailing("export", b)
}

func decodeCodeSection(m *Module, b []byte, typeIdxs []uint32) error {
	count, n, err := readU(b, 32)
	if err != nil {
		return fmt.Errorf("wasm: code count: %v", err)
	}
	b = b[n:]
	if count != uint64(len(typeIdxs)) {
		return fmt.Errorf("wasm: code section has %d entries, function section declares %d", count, len(typeIdxs))
	}
	for i := uint64(0); i < count; i++ {
		size, n, err := readU(b, 32)
		if err != nil {
			return fmt.Errorf("wasm: code %d size: %v", i, err)
		}
		b = b[n:]
		if uint64(len(b)) < size {
			return fmt.Errorf("wasm: code %d overruns section", i)
		}
		entry := b[:size]
		b = b[size:]
		f := &Function{TypeIdx: typeIdxs[i]}
		// Locals and body decode tolerantly: a failure poisons only this
		// function (the lifter skips it with a counted reason).
		f.Locals, f.Body, f.BodyErr = decodeFuncBody(entry)
		m.Funcs = append(m.Funcs, f)
	}
	return trailing("code", b)
}

// decodeFuncBody decodes one code-section entry: run-length local
// declarations followed by the body expression (terminated by end).
func decodeFuncBody(b []byte) (locals []ValType, body []Instr, err error) {
	runs, n, err := readU(b, 32)
	if err != nil {
		return nil, nil, fmt.Errorf("local runs: %v", err)
	}
	b = b[n:]
	for i := uint64(0); i < runs; i++ {
		cnt, n, err := readU(b, 32)
		if err != nil {
			return nil, nil, fmt.Errorf("local run %d count: %v", i, err)
		}
		b = b[n:]
		if len(b) == 0 {
			return nil, nil, errTruncated
		}
		t := b[0]
		b = b[1:]
		if !validValType(t) {
			return nil, nil, fmt.Errorf("local run %d: invalid value type 0x%02X", i, t)
		}
		if uint64(len(locals))+cnt > totalLocalsCap {
			return nil, nil, fmt.Errorf("local count exceeds cap (%d)", totalLocalsCap)
		}
		for j := uint64(0); j < cnt; j++ {
			locals = append(locals, ValType(t))
		}
	}
	for len(b) > 0 {
		in, n, err := decodeInstr(b)
		if err != nil {
			return locals, nil, err
		}
		b = b[n:]
		body = append(body, in)
	}
	if len(body) == 0 || body[len(body)-1].Op != OpEnd {
		return locals, nil, fmt.Errorf("body does not end with end opcode")
	}
	return locals, body, nil
}

// decodeInstr decodes one instruction, returning it and the bytes consumed.
func decodeInstr(b []byte) (Instr, int, error) {
	if len(b) == 0 {
		return Instr{}, 0, errTruncated
	}
	op := b[0]
	in := Instr{Op: op}
	pos := 1
	switch {
	case op == OpBlock || op == OpLoop || op == OpIf:
		bt, n, err := readS(b[pos:], 33)
		if err != nil {
			return in, 0, fmt.Errorf("blocktype: %w", err)
		}
		if bt < 0 && bt != BlockTypeEmpty && !validValType(byte(bt&0x7f)) {
			return in, 0, fmt.Errorf("invalid blocktype %d", bt)
		}
		in.BlockType = bt
		pos += n
	case op == OpBr || op == OpBrIf || op == OpCall ||
		(op >= OpLocalGet && op <= OpGlobalSet):
		x, n, err := readU(b[pos:], 32)
		if err != nil {
			return in, 0, fmt.Errorf("index: %w", err)
		}
		in.X = x
		pos += n
	case op == OpCallIndirect:
		ti, n, err := readU(b[pos:], 32)
		if err != nil {
			return in, 0, fmt.Errorf("call_indirect type: %w", err)
		}
		in.X = ti
		pos += n
		_, n, err = readU(b[pos:], 32) // table index
		if err != nil {
			return in, 0, fmt.Errorf("call_indirect table: %w", err)
		}
		pos += n
	case op == OpBrTable:
		cnt, n, err := readU(b[pos:], 32)
		if err != nil {
			return in, 0, fmt.Errorf("br_table count: %w", err)
		}
		pos += n
		if cnt > uint64(len(b)) { // each target is at least one byte
			return in, 0, errTruncated
		}
		for i := uint64(0); i <= cnt; i++ { // targets plus default
			t, n, err := readU(b[pos:], 32)
			if err != nil {
				return in, 0, fmt.Errorf("br_table target: %w", err)
			}
			in.Table = append(in.Table, uint32(t))
			pos += n
		}
	case op >= OpI32Load && op <= OpI64Store32:
		a, n, err := readU(b[pos:], 32)
		if err != nil {
			return in, 0, fmt.Errorf("memarg align: %w", err)
		}
		pos += n
		off, n, err := readU(b[pos:], 32)
		if err != nil {
			return in, 0, fmt.Errorf("memarg offset: %w", err)
		}
		pos += n
		in.Align, in.Offset = uint32(a), uint32(off)
	case op == OpMemorySize || op == OpMemoryGrow:
		x, n, err := readU(b[pos:], 32)
		if err != nil {
			return in, 0, fmt.Errorf("memory index: %w", err)
		}
		in.X = x
		pos += n
	case op == OpI32Const:
		v, n, err := readS(b[pos:], 32)
		if err != nil {
			return in, 0, fmt.Errorf("i32.const: %w", err)
		}
		in.X = uint64(v)
		pos += n
	case op == OpI64Const:
		v, n, err := readS(b[pos:], 64)
		if err != nil {
			return in, 0, fmt.Errorf("i64.const: %w", err)
		}
		in.X = uint64(v)
		pos += n
	case op == OpF32Const:
		if len(b) < pos+4 {
			return in, 0, errTruncated
		}
		in.X = uint64(binary.LittleEndian.Uint32(b[pos:]))
		pos += 4
	case op == OpF64Const:
		if len(b) < pos+8 {
			return in, 0, errTruncated
		}
		in.X = binary.LittleEndian.Uint64(b[pos:])
		pos += 8
	case op == 0x1C: // typed select: vec(valtype)
		cnt, n, err := readU(b[pos:], 32)
		if err != nil {
			return in, 0, fmt.Errorf("select types: %w", err)
		}
		pos += n
		if uint64(len(b)-pos) < cnt {
			return in, 0, errTruncated
		}
		pos += int(cnt)
		in.Op = OpSelect // same stack behavior once decoded
	case op == OpUnreachable || op == OpNop || op == OpElse || op == OpEnd ||
		op == OpReturn || op == OpDrop || op == OpSelect:
		// no immediates
	case op >= OpI32Eqz && op <= 0xBF:
		// numeric ops (including float arithmetic, compares, conversions,
		// and reinterprets): no immediates
	case op >= OpI32Extend8S && op <= OpI64Extend32S:
		// sign-extension ops: no immediates
	default:
		return in, 0, fmt.Errorf("unknown opcode 0x%02X", op)
	}
	return in, pos, nil
}

// sanitizeName maps an export name onto the identifier charset the ir
// printer/parser agree on.
func sanitizeName(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '.':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return ""
	}
	return string(out)
}
