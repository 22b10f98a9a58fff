package wire

import (
	"bytes"
	"errors"
)

// Headers-first sync ships the header chain separately from block
// bodies: a getheaders request carries a block locator (see
// EncodeLocator) and the headers response returns up to
// MaxHeadersPerMsg 80-byte headers extending the sender's best chain
// past the locator's fork point.

// MaxHeadersPerMsg bounds one headers message, matching Bitcoin's 2000
// headers-per-message batch size.
const MaxHeadersPerMsg = 2000

// blockHeaderLen is the serialized size of a BlockHeader.
const blockHeaderLen = 80

// ErrTooManyHeaders marks a headers message exceeding MaxHeadersPerMsg.
// The p2p layer attributes it as an oversized-batch offense rather than
// a generic decode failure.
var ErrTooManyHeaders = errors.New("wire: too many headers in message")

// EncodeHeaders serializes a headers message: a varint count followed by
// the fixed-width headers.
func EncodeHeaders(headers []BlockHeader) []byte {
	out := make([]byte, 0, VarIntSerializeSize(uint64(len(headers)))+len(headers)*blockHeaderLen)
	out = AppendVarInt(out, uint64(len(headers)))
	for i := range headers {
		out = headers[i].appendTo(out)
	}
	return out
}

// DecodeHeaders parses a headers message. The count is capped at
// MaxHeadersPerMsg before any allocation (a declared count cannot force
// a large allocation), and trailing bytes are rejected so every accepted
// payload re-encodes canonically.
func DecodeHeaders(b []byte) ([]BlockHeader, error) {
	r := bytes.NewReader(b)
	n, err := ReadVarInt(r)
	if err != nil {
		return nil, err
	}
	if n > MaxHeadersPerMsg {
		return nil, ErrTooManyHeaders
	}
	if uint64(r.Len()) != n*blockHeaderLen {
		return nil, errors.New("wire: headers message length mismatch")
	}
	headers := make([]BlockHeader, n)
	for i := range headers {
		if err := headers[i].Deserialize(r); err != nil {
			return nil, err
		}
	}
	return headers, nil
}
