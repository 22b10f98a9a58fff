// Package wire implements the Bitcoin wire format: compact varints,
// transactions, block headers, blocks, merkle trees, and the framed
// message envelope used by the peer-to-peer protocol.
//
// The encodings follow Bitcoin's serialization rules so that hashing a
// serialized transaction yields its txid exactly as a Bitcoin node would
// compute it. This is the substrate on which Typecoin transactions are
// overlaid (paper, Section 3).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrVarIntTooBig is returned when a decoded varint exceeds sane limits.
var ErrVarIntTooBig = errors.New("wire: varint exceeds maximum allowed value")

// maxAllocation bounds any single length prefix so a malicious peer cannot
// make us allocate unbounded memory.
const maxAllocation = 1 << 26 // 64 MiB

// AppendVarInt appends n in Bitcoin's CompactSize encoding to dst.
func AppendVarInt(dst []byte, n uint64) []byte {
	switch {
	case n < 0xfd:
		return append(dst, byte(n))
	case n <= 0xffff:
		return binary.LittleEndian.AppendUint16(append(dst, 0xfd), uint16(n))
	case n <= 0xffffffff:
		return binary.LittleEndian.AppendUint32(append(dst, 0xfe), uint32(n))
	default:
		return binary.LittleEndian.AppendUint64(append(dst, 0xff), n)
	}
}

// AppendVarBytes appends b as a length-prefixed byte string to dst.
func AppendVarBytes(dst, b []byte) []byte {
	return append(AppendVarInt(dst, uint64(len(b))), b...)
}

// WriteVarInt writes n in Bitcoin's CompactSize encoding. Encoders that
// assemble a whole object use AppendVarInt: a scratch array handed to an
// io.Writer escapes, so this form allocates on every call.
func WriteVarInt(w io.Writer, n uint64) error {
	var buf [9]byte
	_, err := w.Write(AppendVarInt(buf[:0], n))
	return err
}

// ReadVarInt reads a CompactSize varint. It enforces canonical (minimal)
// encodings, as Bitcoin consensus does for most contexts.
func ReadVarInt(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:1]); err != nil {
		return 0, err
	}
	switch b[0] {
	case 0xfd:
		if _, err := io.ReadFull(r, b[:2]); err != nil {
			return 0, err
		}
		v := uint64(binary.LittleEndian.Uint16(b[:2]))
		if v < 0xfd {
			return 0, errors.New("wire: non-canonical varint")
		}
		return v, nil
	case 0xfe:
		if _, err := io.ReadFull(r, b[:4]); err != nil {
			return 0, err
		}
		v := uint64(binary.LittleEndian.Uint32(b[:4]))
		if v <= 0xffff {
			return 0, errors.New("wire: non-canonical varint")
		}
		return v, nil
	case 0xff:
		if _, err := io.ReadFull(r, b[:8]); err != nil {
			return 0, err
		}
		v := binary.LittleEndian.Uint64(b[:8])
		if v <= 0xffffffff {
			return 0, errors.New("wire: non-canonical varint")
		}
		return v, nil
	default:
		return uint64(b[0]), nil
	}
}

// VarIntSerializeSize returns the number of bytes WriteVarInt will emit.
func VarIntSerializeSize(n uint64) int {
	switch {
	case n < 0xfd:
		return 1
	case n <= 0xffff:
		return 3
	case n <= 0xffffffff:
		return 5
	default:
		return 9
	}
}

// WriteVarBytes writes a length-prefixed byte string.
func WriteVarBytes(w io.Writer, b []byte) error {
	if err := WriteVarInt(w, uint64(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// ReadVarBytes reads a length-prefixed byte string, refusing lengths above
// maxAllocation.
func ReadVarBytes(r io.Reader, what string) ([]byte, error) {
	n, err := ReadVarInt(r)
	if err != nil {
		return nil, err
	}
	if n > maxAllocation {
		return nil, fmt.Errorf("wire: %s length %d too large: %w", what, n, ErrVarIntTooBig)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

func readUint32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func readUint64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func readInt64(r io.Reader) (int64, error) {
	v, err := readUint64(r)
	return int64(v), err
}
