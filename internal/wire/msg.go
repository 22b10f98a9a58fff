package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"typecoin/internal/chainhash"
)

// The peer-to-peer protocol frames each message as:
//
//	magic (4) | command (12, NUL padded) | length (4) | checksum (4) | payload
//
// mirroring Bitcoin's envelope. The checksum is the first four bytes of the
// double SHA-256 of the payload.

// Network magic values distinguish chains.
const (
	MainNetMagic uint32 = 0xd9b4bef9
	RegTestMagic uint32 = 0xdab5bffa
)

// Command names.
const (
	CmdVersion    = "version"
	CmdVerAck     = "verack"
	CmdInv        = "inv"
	CmdGetData    = "getdata"
	CmdTx         = "tx"
	CmdBlock      = "block"
	CmdGetHeaders = "getheaders"
	CmdHeaders    = "headers"
	CmdPing       = "ping"
	CmdPong       = "pong"

	// Typecoin overlay gossip: the full Typecoin objects travel between
	// interested parties; the Bitcoin chain itself sees only hashes.
	CmdTcTx    = "tctx"
	CmdTcList  = "tclist"
	CmdTcBatch = "tcbatch"
	// CmdTcGet requests announced overlay objects by commitment hash
	// (inv-encoded); a node that saw a carrier confirm without ever
	// receiving the object re-requests it this way after a partition.
	CmdTcGet = "tcget"

	// CmdTrace carries an optional latency trace context alongside a tx
	// or block relay (see trace.go). Peers that predate it treat it as
	// an unknown command, which the protocol already tolerates.
	CmdTrace = "trace"
)

const commandSize = 12

// maxMessagePayload bounds a single message.
const maxMessagePayload = maxAllocation

// Framing errors, exported so the p2p layer can classify a failed read
// (peer-attributable garbage vs. a clean EOF) when scoring misbehavior.
var (
	// ErrBadMagic reports a frame whose magic does not match the network.
	ErrBadMagic = errors.New("wire: bad network magic")
	// ErrBadChecksum reports a payload that fails its frame checksum.
	ErrBadChecksum = errors.New("wire: bad message checksum")
	// ErrPayloadTooLarge reports a frame whose declared length exceeds
	// the protocol maximum.
	ErrPayloadTooLarge = errors.New("wire: message payload too large")
)

// Message is a framed p2p payload.
type Message struct {
	Command string
	Payload []byte
}

// WriteMessage frames and writes a message. The frame is emitted as a
// single Write so message-oriented transports (net Buffers, the netsim
// fault simulator) see exactly one frame per protocol message.
func WriteMessage(w io.Writer, magic uint32, msg *Message) error {
	if len(msg.Command) > commandSize {
		return fmt.Errorf("wire: command %q too long", msg.Command)
	}
	if len(msg.Payload) > maxMessagePayload {
		return ErrPayloadTooLarge
	}
	buf := make([]byte, 24+len(msg.Payload))
	buf[0] = byte(magic)
	buf[1] = byte(magic >> 8)
	buf[2] = byte(magic >> 16)
	buf[3] = byte(magic >> 24)
	copy(buf[4:16], msg.Command)
	n := uint32(len(msg.Payload))
	buf[16] = byte(n)
	buf[17] = byte(n >> 8)
	buf[18] = byte(n >> 16)
	buf[19] = byte(n >> 24)
	sum := chainhash.DoubleHashB(msg.Payload)
	copy(buf[20:24], sum[:4])
	copy(buf[24:], msg.Payload)
	_, err := w.Write(buf)
	return err
}

// ReadMessage reads one framed message, verifying magic and checksum.
func ReadMessage(r io.Reader, magic uint32) (*Message, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	got := uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24
	if got != magic {
		return nil, fmt.Errorf("%w: %08x", ErrBadMagic, got)
	}
	cmd := string(bytes.TrimRight(hdr[4:16], "\x00"))
	n := uint32(hdr[16]) | uint32(hdr[17])<<8 | uint32(hdr[18])<<16 | uint32(hdr[19])<<24
	if n > maxMessagePayload {
		return nil, ErrPayloadTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	sum := chainhash.DoubleHashB(payload)
	if !bytes.Equal(sum[:4], hdr[20:24]) {
		return nil, ErrBadChecksum
	}
	return &Message{Command: cmd, Payload: payload}, nil
}

// Inventory vector types.
const (
	InvTypeTx    uint32 = 1
	InvTypeBlock uint32 = 2
)

// InvVect names an object (transaction or block) by type and hash.
type InvVect struct {
	Type uint32
	Hash chainhash.Hash
}

// EncodeInv serializes an inventory list (shared by inv and getdata).
func EncodeInv(invs []InvVect) []byte {
	out := make([]byte, 0, VarIntSerializeSize(uint64(len(invs)))+len(invs)*(4+chainhash.HashSize))
	out = AppendVarInt(out, uint64(len(invs)))
	for _, iv := range invs {
		out = binary.LittleEndian.AppendUint32(out, iv.Type)
		out = append(out, iv.Hash[:]...)
	}
	return out
}

// DecodeInv parses an inventory list.
func DecodeInv(b []byte) ([]InvVect, error) {
	r := bytes.NewReader(b)
	n, err := ReadVarInt(r)
	if err != nil {
		return nil, err
	}
	if n > 50000 {
		return nil, errors.New("wire: too many inventory vectors")
	}
	invs := make([]InvVect, 0, n)
	for i := uint64(0); i < n; i++ {
		var iv InvVect
		if iv.Type, err = readUint32(r); err != nil {
			return nil, err
		}
		if _, err = io.ReadFull(r, iv.Hash[:]); err != nil {
			return nil, err
		}
		invs = append(invs, iv)
	}
	if r.Len() != 0 {
		return nil, errors.New("wire: trailing bytes after inventory")
	}
	return invs, nil
}

// EncodeLocator serializes a block locator: a list of block hashes from
// the sender's tip backwards, used by getheaders.
func EncodeLocator(hashes []chainhash.Hash, stop chainhash.Hash) []byte {
	out := make([]byte, 0, VarIntSerializeSize(uint64(len(hashes)))+(len(hashes)+1)*chainhash.HashSize)
	out = AppendVarInt(out, uint64(len(hashes)))
	for _, h := range hashes {
		out = append(out, h[:]...)
	}
	return append(out, stop[:]...)
}

// DecodeLocator parses a block locator.
func DecodeLocator(b []byte) (hashes []chainhash.Hash, stop chainhash.Hash, err error) {
	r := bytes.NewReader(b)
	n, err := ReadVarInt(r)
	if err != nil {
		return nil, stop, err
	}
	if n > 2000 {
		return nil, stop, errors.New("wire: locator too long")
	}
	hashes = make([]chainhash.Hash, n)
	for i := range hashes {
		if _, err = io.ReadFull(r, hashes[i][:]); err != nil {
			return nil, stop, err
		}
	}
	if _, err = io.ReadFull(r, stop[:]); err != nil {
		return nil, stop, err
	}
	if r.Len() != 0 {
		return nil, stop, errors.New("wire: trailing bytes after locator")
	}
	return hashes, stop, nil
}
