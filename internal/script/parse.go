package script

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
)

// Instruction is one parsed script element: an opcode plus, for pushes,
// the pushed data.
type Instruction struct {
	Opcode byte
	Data   []byte // nil unless the opcode pushes literal data
}

// tokenizer walks a script one instruction at a time without building
// the instruction list: the matchers, the push-only scan and the engine
// all read scripts this way, so recognising a 25-byte template allocates
// nothing. It accepts and rejects exactly what Parse does (Parse is a
// loop over it), non-minimal push encodings included.
type tokenizer struct {
	s   []byte
	i   int
	in  Instruction
	err error
}

// next decodes the instruction at the cursor into t.in. It returns false
// at the end of the script and on a malformed push, which sets t.err.
func (t *tokenizer) next() bool {
	s, i := t.s, t.i
	if t.err != nil || i >= len(s) {
		return false
	}
	op := s[i]
	i++
	n, what := 0, ""
	switch {
	case op >= 1 && op <= 0x4b:
		n, what = int(op), "push"
	case op == OP_PUSHDATA1:
		if i+1 > len(s) {
			t.err = errors.New("script: truncated OP_PUSHDATA1")
			return false
		}
		n, what = int(s[i]), "OP_PUSHDATA1"
		i++
	case op == OP_PUSHDATA2:
		if i+2 > len(s) {
			t.err = errors.New("script: truncated OP_PUSHDATA2")
			return false
		}
		n, what = int(binary.LittleEndian.Uint16(s[i:])), "OP_PUSHDATA2"
		i += 2
	case op == OP_PUSHDATA4:
		if i+4 > len(s) {
			t.err = errors.New("script: truncated OP_PUSHDATA4")
			return false
		}
		v := binary.LittleEndian.Uint32(s[i:])
		if v > maxScriptElementSize*2 {
			t.err = fmt.Errorf("script: OP_PUSHDATA4 of %d bytes overruns script", v)
			return false
		}
		n, what = int(v), "OP_PUSHDATA4"
		i += 4
	default:
		t.in, t.i = Instruction{Opcode: op}, i
		return true
	}
	if i+n > len(s) {
		t.err = fmt.Errorf("script: %s of %d bytes overruns script", what, n)
		return false
	}
	t.in, t.i = Instruction{Opcode: op, Data: s[i : i+n]}, i+n
	return true
}

// atEnd reports whether the whole script has been read without error.
func (t *tokenizer) atEnd() bool { return t.err == nil && t.i >= len(t.s) }

// Parse splits a script into instructions, validating push lengths.
func Parse(s []byte) ([]Instruction, error) {
	var out []Instruction
	t := tokenizer{s: s}
	for t.next() {
		out = append(out, t.in)
	}
	if t.err != nil {
		return nil, t.err
	}
	return out, nil
}

// Disassemble renders a script in a human-readable one-line form.
func Disassemble(s []byte) string {
	instrs, err := Parse(s)
	if err != nil {
		return "[error: " + err.Error() + "]"
	}
	parts := make([]string, 0, len(instrs))
	for _, in := range instrs {
		switch {
		case in.Data != nil:
			parts = append(parts, hex.EncodeToString(in.Data))
		case in.Opcode == OP_0:
			parts = append(parts, "OP_0")
		default:
			if v, ok := smallInt(in.Opcode); ok {
				parts = append(parts, fmt.Sprintf("OP_%d", v))
			} else if name, ok := opName[in.Opcode]; ok {
				parts = append(parts, name)
			} else {
				parts = append(parts, fmt.Sprintf("OP_UNKNOWN_%#02x", in.Opcode))
			}
		}
	}
	return strings.Join(parts, " ")
}

// Builder incrementally assembles a script.
type Builder struct {
	script []byte
	err    error
}

// NewBuilder returns an empty script builder.
func NewBuilder() *Builder { return &Builder{} }

// AddOp appends a bare opcode.
func (b *Builder) AddOp(op byte) *Builder {
	if b.err != nil {
		return b
	}
	b.script = append(b.script, op)
	return b
}

// AddData appends a minimal push of data.
func (b *Builder) AddData(data []byte) *Builder {
	if b.err != nil {
		return b
	}
	n := len(data)
	switch {
	case n == 0:
		b.script = append(b.script, OP_0)
	case n == 1 && data[0] == 0:
		b.script = append(b.script, OP_0)
	case n == 1 && data[0] >= 1 && data[0] <= 16:
		b.script = append(b.script, OP_1+data[0]-1)
	case n <= 0x4b:
		b.script = append(b.script, byte(n))
		b.script = append(b.script, data...)
	case n <= 0xff:
		b.script = append(b.script, OP_PUSHDATA1, byte(n))
		b.script = append(b.script, data...)
	case n <= 0xffff:
		b.script = append(b.script, OP_PUSHDATA2, byte(n), byte(n>>8))
		b.script = append(b.script, data...)
	default:
		b.err = fmt.Errorf("script: push of %d bytes too large", n)
	}
	return b
}

// AddInt64 appends a push of the script-number encoding of v.
func (b *Builder) AddInt64(v int64) *Builder {
	if b.err != nil {
		return b
	}
	if v == 0 {
		b.script = append(b.script, OP_0)
		return b
	}
	if v == -1 {
		b.script = append(b.script, OP_1NEGATE)
		return b
	}
	if v >= 1 && v <= 16 {
		b.script = append(b.script, OP_1+byte(v)-1)
		return b
	}
	return b.AddData(encodeScriptNum(v))
}

// Script returns the assembled script or any accumulated error.
func (b *Builder) Script() ([]byte, error) {
	if b.err != nil {
		return nil, b.err
	}
	return b.script, nil
}

// MustScript is Script for statically correct builds; it panics on error
// and is intended for compile-time-constant scripts in tests and builders.
func (b *Builder) MustScript() []byte {
	s, err := b.Script()
	if err != nil {
		panic("script: " + err.Error())
	}
	return s
}

// encodeScriptNum encodes v in Bitcoin's little-endian sign-magnitude
// script-number format.
func encodeScriptNum(v int64) []byte {
	if v == 0 {
		return nil
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var out []byte
	for v > 0 {
		out = append(out, byte(v&0xff))
		v >>= 8
	}
	if out[len(out)-1]&0x80 != 0 {
		if neg {
			out = append(out, 0x80)
		} else {
			out = append(out, 0)
		}
	} else if neg {
		out[len(out)-1] |= 0x80
	}
	return out
}

// decodeScriptNum decodes Bitcoin's script-number format, rejecting
// encodings longer than 4 bytes as the interpreter does.
func decodeScriptNum(b []byte) (int64, error) {
	if len(b) > 4 {
		return 0, fmt.Errorf("script: numeric value %d bytes exceeds 4-byte limit", len(b))
	}
	if len(b) == 0 {
		return 0, nil
	}
	var v int64
	for i, c := range b {
		v |= int64(c) << (8 * i)
	}
	if b[len(b)-1]&0x80 != 0 {
		v &= ^(int64(0x80) << (8 * (len(b) - 1)))
		v = -v
	}
	return v, nil
}
