package typecoin

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"typecoin/internal/chainhash"
	"typecoin/internal/logic"
	"typecoin/internal/proof"
	"typecoin/internal/wire"
)

// objectSeeds returns named overlay object encodings: three that
// DecodeObject accepts and two it rejects, a batch with a trailing byte
// and a list of 65 members. They seed FuzzOverlayObject, whose committed
// corpus (testdata/fuzz/FuzzOverlayObject) holds the same bytes.
func objectSeeds(t testing.TB) (accepted, rejected map[string][]byte) {
	member := func(i int) *Tx {
		tx := NewTx()
		tx.Proof = proof.V(fmt.Sprintf("m%d", i))
		return tx
	}
	list := func(n int) []byte {
		l := &FallbackList{}
		for i := 0; i < n; i++ {
			l.Txs = append(l.Txs, member(i))
		}
		// EncodeObject refuses a list past the member bound, so the list
		// is framed by hand here.
		out := []byte{objKindList, byte(n)}
		for _, tx := range l.Txs {
			b := tx.Bytes()
			out = append(out, byte(len(b)), byte(len(b)>>8), byte(len(b)>>16))
			out = append(out, b...)
		}
		return out
	}
	owner := newKey(t, "owner").PubKey()
	batch, err := EncodeObject(&Batch{
		Sources:     []Input{{Source: wire.OutPoint{Hash: chainhash.HashB([]byte("deposit"))}, Type: logic.One, Amount: 300}},
		Seq:         []*Tx{member(0)},
		Leaves:      []Output{{Type: logic.One, Amount: 300, Owner: owner}},
		LeafSources: []wire.OutPoint{{Hash: chainhash.HashB([]byte("leaf"))}},
	})
	if err != nil {
		t.Fatal(err)
	}
	accepted = map[string][]byte{
		"singleton-list":    list(1),
		"three-member-list": list(3),
		"batch":             batch,
	}
	rejected = map[string][]byte{
		"batch-trailing-byte": append(append([]byte(nil), batch...), 0),
		"list-65-members":     list(65),
	}
	return accepted, rejected
}

// FuzzOverlayObject runs the one overlay object codec, the p2p overlay
// payload and the ledger's ka row, on arbitrary bytes: it must not
// panic, and whatever it accepts must encode back to the same bytes.
func FuzzOverlayObject(f *testing.F) {
	accepted, rejected := objectSeeds(f)
	for _, seeds := range []map[string][]byte{accepted, rejected} {
		for _, b := range seeds {
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		obj, err := DecodeObject(data)
		if err != nil {
			return
		}
		enc, err := EncodeObject(obj)
		if err != nil {
			t.Fatalf("accepted object does not encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted %x, re-encodes as %x", data, enc)
		}
	})
}

// TestDecodeObjectChecks: the codec accepts the well-formed seeds and
// rejects a batch with a trailing byte, a list past 64 members and a
// list whose members do not share a carrier; EncodeObject refuses the
// last two as well.
func TestDecodeObjectChecks(t *testing.T) {
	accepted, rejected := objectSeeds(t)
	for name, b := range accepted {
		if _, err := DecodeObject(b); err != nil {
			t.Errorf("%s rejected: %v", name, err)
		}
	}
	for name, b := range rejected {
		if _, err := DecodeObject(b); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	obj, err := DecodeObject(accepted["three-member-list"])
	if err != nil {
		t.Fatal(err)
	}
	list := obj.(*FallbackList)
	list.Txs[2].Outputs = []Output{{Type: logic.One, Amount: 1, Owner: newKey(t, "owner").PubKey()}}
	if _, err := EncodeObject(list); !errors.Is(err, ErrListShape) {
		t.Errorf("EncodeObject of a list of mixed shapes: %v, want %v", err, ErrListShape)
	}
	mixed := list.Txs[2].Bytes()
	b := append([]byte{objKindList, 2}, accepted["singleton-list"][2:]...)
	b = append(b, byte(len(mixed)), byte(len(mixed)>>8), byte(len(mixed)>>16))
	if _, err := DecodeObject(append(b, mixed...)); !errors.Is(err, ErrListShape) {
		t.Errorf("DecodeObject of a list of mixed shapes: %v, want %v", err, ErrListShape)
	}

	list = &FallbackList{}
	for i := 0; i <= maxListMembers; i++ {
		list.Txs = append(list.Txs, NewTx())
		list.Txs[i].Proof = proof.Unit{}
	}
	if _, err := EncodeObject(list); err == nil {
		t.Errorf("EncodeObject accepted a list of %d members", len(list.Txs))
	}
}
