package index

// Key schema. Every index row lives under the 'i' byte, disjoint from
// the chain ('T','m','b','h'), wallet ("wk"), ledger ("ka"), mempool
// ("P") and banscore ("nb") families. Heights and transaction
// positions are big-endian in keys so lexicographic order is chain
// order — the property cursor pagination leans on.
//
//	iT                                  -> index tip: hash + height
//	ih + addr(20) + be32(h) + be32(tx)  -> address history row: txid,
//	                                       role flags, satoshi funded
//	                                       and spent by that tx
//	ip + addr(20) + be32(h) + be32(tx)  -> principal activity row: the
//	                                       metadata-bearing carrier and
//	                                       the Typecoin commitment hash
//	                                       it announces, with the
//	                                       principal's role
//
// One history row aggregates everything a single transaction does to a
// single address (multiple outputs to one principal coalesce), exactly
// the granularity Blockbook's address API exposes. Which transaction
// spent an outpoint is not stored: the chain's spend journal answers it
// (Outspend); the chain's load drops the "is" rows earlier releases kept.

import (
	"encoding/binary"
	"fmt"

	"typecoin/internal/bkey"
	"typecoin/internal/chainhash"
)

// Role flags in history and principal rows.
const (
	// RoleFunded marks a transaction that pays the address.
	RoleFunded byte = 1 << 0
	// RoleSpent marks a transaction that consumes an output of the
	// address.
	RoleSpent byte = 1 << 1
)

var keyTip = []byte("iT")

const addrKeyLen = 2 + bkey.PrincipalSize + 4 + 4

// ErrCorrupt reports an index row that fails to decode — the index is
// derived state, so the remedy is a rebuild, not a refusal to start.
var errCorrupt = fmt.Errorf("index: corrupt row")

func appendAddrKey(dst []byte, kind byte, p bkey.Principal, height, txIdx uint32) []byte {
	dst = append(dst, 'i', kind)
	dst = append(dst, p[:]...)
	var be [8]byte
	binary.BigEndian.PutUint32(be[:4], height)
	binary.BigEndian.PutUint32(be[4:], txIdx)
	return append(dst, be[:]...)
}

func histKey(p bkey.Principal, height, txIdx uint32) []byte {
	return appendAddrKey(make([]byte, 0, addrKeyLen), 'h', p, height, txIdx)
}

func prinKey(p bkey.Principal, height, txIdx uint32) []byte {
	return appendAddrKey(make([]byte, 0, addrKeyLen), 'p', p, height, txIdx)
}

func addrPrefix(kind byte, p bkey.Principal) []byte {
	dst := make([]byte, 0, 2+bkey.PrincipalSize)
	dst = append(dst, 'i', kind)
	return append(dst, p[:]...)
}

// decodeAddrKey recovers (height, txIdx) from a history/principal key.
func decodeAddrKey(k []byte) (height, txIdx uint32, err error) {
	if len(k) != addrKeyLen {
		return 0, 0, fmt.Errorf("%w: addr key is %d bytes", errCorrupt, len(k))
	}
	return binary.BigEndian.Uint32(k[22:26]), binary.BigEndian.Uint32(k[26:30]), nil
}

// Tip row: hash + uvarint height.

func encodeTip(h chainhash.Hash, height int) []byte {
	return binary.AppendUvarint(append([]byte(nil), h[:]...), uint64(height))
}

func decodeTip(b []byte) (chainhash.Hash, int, error) {
	var h chainhash.Hash
	if len(b) < 32 {
		return h, 0, fmt.Errorf("%w: tip row is %d bytes", errCorrupt, len(b))
	}
	copy(h[:], b[:32])
	v, n := binary.Uvarint(b[32:])
	if n <= 0 || n != len(b)-32 {
		return h, 0, fmt.Errorf("%w: bad tip height", errCorrupt)
	}
	return h, int(v), nil
}

// History row: txid + flags + uvarint funded + uvarint spent.

func encodeHist(txid chainhash.Hash, flags byte, funded, spent int64) []byte {
	out := make([]byte, 0, 32+1+2*binary.MaxVarintLen64)
	out = append(out, txid[:]...)
	out = append(out, flags)
	out = binary.AppendUvarint(out, uint64(funded))
	return binary.AppendUvarint(out, uint64(spent))
}

func decodeHist(b []byte) (txid chainhash.Hash, flags byte, funded, spent int64, err error) {
	if len(b) < 33 {
		return txid, 0, 0, 0, fmt.Errorf("%w: history row is %d bytes", errCorrupt, len(b))
	}
	copy(txid[:], b[:32])
	flags = b[32]
	rest := b[33:]
	f, n := binary.Uvarint(rest)
	if n <= 0 {
		return txid, 0, 0, 0, fmt.Errorf("%w: bad funded amount", errCorrupt)
	}
	rest = rest[n:]
	s, n := binary.Uvarint(rest)
	if n <= 0 || n != len(rest) {
		return txid, 0, 0, 0, fmt.Errorf("%w: bad spent amount", errCorrupt)
	}
	return txid, flags, int64(f), int64(s), nil
}

// Principal row: carrier txid + commitment hash + flags.

func encodePrin(carrier, commitment chainhash.Hash, flags byte) []byte {
	out := make([]byte, 0, 65)
	out = append(out, carrier[:]...)
	out = append(out, commitment[:]...)
	return append(out, flags)
}

func decodePrin(b []byte) (carrier, commitment chainhash.Hash, flags byte, err error) {
	if len(b) != 65 {
		return carrier, commitment, 0, fmt.Errorf("%w: principal row is %d bytes", errCorrupt, len(b))
	}
	copy(carrier[:], b[:32])
	copy(commitment[:], b[32:64])
	return carrier, commitment, b[64], nil
}
