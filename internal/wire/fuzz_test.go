package wire

import (
	"bytes"
	"testing"

	"typecoin/internal/chainhash"
)

// FuzzMsgTxDeserialize feeds arbitrary bytes to the transaction decoder.
// Decoding must never panic, and — because varints are canonical and all
// other fields are fixed-width or length-prefixed — any input that
// decodes successfully must re-serialize to exactly the bytes consumed.
func FuzzMsgTxDeserialize(f *testing.F) {
	// Seed with real encodings: an empty tx, a coinbase-ish tx, and a
	// two-in/two-out transfer.
	empty := NewMsgTx(TxVersion)
	f.Add(empty.Bytes())

	coinbase := NewMsgTx(TxVersion)
	coinbase.AddTxIn(&TxIn{
		PreviousOutPoint: OutPoint{Index: 0xffffffff},
		SignatureScript:  []byte{0x51},
		Sequence:         0xffffffff,
	})
	coinbase.AddTxOut(&TxOut{Value: 50_0000_0000, PkScript: []byte{0x76, 0xa9}})
	f.Add(coinbase.Bytes())

	transfer := NewMsgTx(TxVersion)
	transfer.AddTxIn(&TxIn{
		PreviousOutPoint: OutPoint{Hash: chainhash.HashB([]byte("prev")), Index: 1},
		SignatureScript:  bytes.Repeat([]byte{0xab}, 72),
		Sequence:         5,
	})
	transfer.AddTxIn(&TxIn{
		PreviousOutPoint: OutPoint{Hash: chainhash.HashB([]byte("other")), Index: 0},
	})
	transfer.AddTxOut(&TxOut{Value: 1234, PkScript: bytes.Repeat([]byte{0xcd}, 25)})
	transfer.AddTxOut(&TxOut{Value: 0, PkScript: []byte{0x6a, 0x20}})
	transfer.LockTime = 99
	f.Add(transfer.Bytes())

	// Hostile seeds: truncations, a giant claimed input count, and a
	// non-canonical varint.
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0x00, 0x00})
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0xfd, 0x01, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var tx MsgTx
		if err := tx.Deserialize(r); err != nil {
			return
		}
		consumed := data[:len(data)-r.Len()]
		var out bytes.Buffer
		if err := tx.Serialize(&out); err != nil {
			t.Fatalf("decoded tx fails to serialize: %v", err)
		}
		if !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("non-canonical decode:\n consumed % x\n reencoded % x",
				consumed, out.Bytes())
		}
		// The decoded tx must survive a second round trip with a stable
		// hash (exercises the memoized encoding path too).
		var back MsgTx
		if err := back.Deserialize(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("re-decode of canonical bytes failed: %v", err)
		}
		if back.TxHash() != tx.TxHash() {
			t.Fatal("round trip changed the transaction hash")
		}
	})
}

// FuzzReadMessage feeds arbitrary byte streams to the frame decoder —
// the first attacker-facing parser on every p2p connection. It must
// never panic regardless of input, and every frame it accepts must
// round-trip: re-framing the decoded message reproduces exactly the
// bytes consumed.
func FuzzReadMessage(f *testing.F) {
	const magic = 0xdab5bffa
	frame := func(cmd string, payload []byte) []byte {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, magic, &Message{Command: cmd, Payload: payload}); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}

	// Honest frames: handshake, ping, a one-entry inventory.
	f.Add(frame("version", nil))
	f.Add(frame("ping", []byte{1, 2, 3, 4, 5, 6, 7, 8}))
	f.Add(frame("inv", EncodeInv([]InvVect{{Type: InvTypeBlock, Hash: chainhash.HashB([]byte("b"))}})))

	// The garbage-sender's malformed-frame flood: well-framed,
	// correctly checksummed payloads that do not decode (an inv
	// claiming 32 entries with almost none attached), alone and
	// repeated back-to-back as a stream.
	junk := frame("inv", []byte{0x20, 0xde, 0xad})
	f.Add(junk)
	f.Add(bytes.Repeat(junk, 5))
	f.Add(append(frame("inv", []byte{0x20}), junk...))

	// Framing attacks: wrong magic, corrupted checksum, truncated
	// header, giant declared payload length.
	badMagic := frame("ping", []byte{9})
	badMagic[0] ^= 0xff
	f.Add(badMagic)
	badSum := frame("ping", []byte{9})
	badSum[20] ^= 0xff
	f.Add(badSum)
	f.Add(frame("tx", nil)[:10])
	huge := frame("block", nil)
	huge[19] = 0xff
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			start := len(data) - r.Len()
			msg, err := ReadMessage(r, magic)
			if err != nil {
				return
			}
			end := len(data) - r.Len()
			var out bytes.Buffer
			if err := WriteMessage(&out, magic, msg); err != nil {
				t.Fatalf("accepted frame does not re-encode: %v", err)
			}
			if !bytes.Equal(out.Bytes(), data[start:end]) {
				t.Fatalf("frame round-trip mismatch:\n consumed % x\n reencoded % x",
					data[start:end], out.Bytes())
			}
		}
	})
}

// FuzzMsgHeadersDecode feeds arbitrary bytes to the headers-batch
// decoder used by headers-first sync. The count cap must hold before any
// allocation (size bombs: a huge declared count must not allocate), the
// decoder must never panic, and every accepted payload must re-encode to
// exactly the input.
func FuzzMsgHeadersDecode(f *testing.F) {
	hdr := BlockHeader{Version: 1, Bits: 0x207fffff, Nonce: 7}
	hdr.PrevBlock = chainhash.HashB([]byte("prev"))
	hdr.MerkleRoot = chainhash.HashB([]byte("root"))

	f.Add(EncodeHeaders(nil))
	f.Add(EncodeHeaders([]BlockHeader{hdr}))
	many := make([]BlockHeader, 64)
	for i := range many {
		many[i] = hdr
		many[i].Nonce = uint32(i)
	}
	f.Add(EncodeHeaders(many))

	// Size bombs and truncations: a max-count message with no bodies, a
	// count one past the cap, a 9-byte varint claiming 2^64-1 headers,
	// a truncated header, and trailing garbage after a valid batch.
	f.Add([]byte{0xfd, 0xd0, 0x07})
	f.Add([]byte{0xfd, 0xd1, 0x07})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(EncodeHeaders([]BlockHeader{hdr})[:40])
	f.Add(append(EncodeHeaders([]BlockHeader{hdr}), 0x00))

	f.Fuzz(func(t *testing.T, data []byte) {
		headers, err := DecodeHeaders(data)
		if err != nil {
			return
		}
		if len(headers) > MaxHeadersPerMsg {
			t.Fatalf("decoded %d headers past the cap", len(headers))
		}
		if !bytes.Equal(EncodeHeaders(headers), data) {
			t.Fatal("headers round-trip mismatch")
		}
	})
}

// FuzzLocatorDecode feeds arbitrary bytes to the block-locator decoder,
// the request side of getheaders. Depth bombs (huge declared
// hash counts) must be rejected before allocation and accepted locators
// must round-trip canonically.
func FuzzLocatorDecode(f *testing.F) {
	var hashes []chainhash.Hash
	for i := 0; i < 12; i++ {
		hashes = append(hashes, chainhash.HashB([]byte{byte(i)}))
	}
	f.Add(EncodeLocator(nil, chainhash.Hash{}))
	f.Add(EncodeLocator(hashes[:1], hashes[1]))
	f.Add(EncodeLocator(hashes, chainhash.Hash{}))

	// Depth bombs and truncations: count past the cap, maximal varint
	// count, a truncated hash list, and trailing garbage.
	f.Add([]byte{0xfd, 0xd1, 0x07})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(EncodeLocator(hashes, chainhash.Hash{})[:50])
	f.Add(append(EncodeLocator(hashes[:2], chainhash.Hash{}), 0xaa))

	f.Fuzz(func(t *testing.T, data []byte) {
		hashes, stop, err := DecodeLocator(data)
		if err != nil {
			return
		}
		if len(hashes) > 2000 {
			t.Fatalf("decoded %d locator hashes past the cap", len(hashes))
		}
		if !bytes.Equal(EncodeLocator(hashes, stop), data) {
			t.Fatal("locator round-trip mismatch")
		}
	})
}
