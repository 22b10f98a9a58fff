package script

// The allocation-free kernels against the code they replaced: the
// copy-based signature hash and the Parse-then-match matchers live on here
// as references, and the kernels must agree with them byte for byte.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"typecoin/internal/bkey"
	"typecoin/internal/chainhash"
	"typecoin/internal/wire"
)

// refCalcSignatureHash is CalcSignatureHash as it was before the erased
// encoding was written directly: deep-copy the transaction, erase on the
// copy, serialize the copy.
func refCalcSignatureHash(subscript []byte, hashType SigHashType, tx *wire.MsgTx, idx int) (chainhash.Hash, error) {
	if hashType&sigHashMask == SigHashSingle && idx >= len(tx.TxOut) {
		return chainhash.Hash{}, ErrSigHashSingleIndex
	}
	txCopy := tx.Copy()
	for i := range txCopy.TxIn {
		if i == idx {
			txCopy.TxIn[i].SignatureScript = subscript
		} else {
			txCopy.TxIn[i].SignatureScript = nil
		}
	}
	switch hashType & sigHashMask {
	case SigHashNone:
		txCopy.TxOut = nil
		for i := range txCopy.TxIn {
			if i != idx {
				txCopy.TxIn[i].Sequence = 0
			}
		}
	case SigHashSingle:
		txCopy.TxOut = txCopy.TxOut[:idx+1]
		for i := 0; i < idx; i++ {
			txCopy.TxOut[i] = &wire.TxOut{Value: -1, PkScript: nil}
		}
		for i := range txCopy.TxIn {
			if i != idx {
				txCopy.TxIn[i].Sequence = 0
			}
		}
	}
	if hashType&SigHashAnyOneCanPay != 0 {
		txCopy.TxIn = txCopy.TxIn[idx : idx+1]
	}
	var buf bytes.Buffer
	if err := txCopy.Serialize(&buf); err != nil {
		return chainhash.Hash{}, err
	}
	var ht [4]byte
	binary.LittleEndian.PutUint32(ht[:], uint32(hashType))
	buf.Write(ht[:])
	return chainhash.DoubleHashB(buf.Bytes()), nil
}

func randBytes(rng *rand.Rand, max int) []byte {
	b := make([]byte, rng.Intn(max+1))
	rng.Read(b)
	return b
}

// randTx draws a transaction with 1-8 inputs, 0-8 outputs and scripts of
// up to 600 bytes (past the 1024-byte stack buffer of the kernel once
// there are a few of them).
func randTx(rng *rand.Rand) *wire.MsgTx {
	tx := wire.NewMsgTx(rng.Uint32())
	for i, n := 0, 1+rng.Intn(8); i < n; i++ {
		in := &wire.TxIn{SignatureScript: randBytes(rng, 600), Sequence: rng.Uint32()}
		rng.Read(in.PreviousOutPoint.Hash[:])
		in.PreviousOutPoint.Index = rng.Uint32()
		tx.AddTxIn(in)
	}
	for i, n := 0, rng.Intn(9); i < n; i++ {
		tx.AddTxOut(&wire.TxOut{Value: rng.Int63n(wire.MaxSatoshi), PkScript: randBytes(rng, 600)})
	}
	tx.LockTime = rng.Uint32()
	return tx
}

func TestCalcSignatureHashMatchesCopyBasedReference(t *testing.T) {
	hashTypes := []SigHashType{
		SigHashAll, SigHashNone, SigHashSingle,
		SigHashAll | SigHashAnyOneCanPay, SigHashNone | SigHashAnyOneCanPay, SigHashSingle | SigHashAnyOneCanPay,
		0, 0x04, 0x1f01, // unassigned modes and high bits hash as SigHashAll with the type appended
	}
	sawSingleErr := false
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 10; round++ {
			tx := randTx(rng)
			before := tx.Bytes()
			subscript := randBytes(rng, 600)
			for idx := range tx.TxIn {
				for _, ht := range hashTypes {
					want, wantErr := refCalcSignatureHash(subscript, ht, tx, idx)
					got, gotErr := CalcSignatureHash(subscript, ht, tx, idx)
					if wantErr != gotErr {
						t.Fatalf("seed %d round %d input %d type %#x: error %v, reference %v", seed, round, idx, ht, gotErr, wantErr)
					}
					if got != want {
						t.Fatalf("seed %d round %d input %d type %#x: digest %s, reference %s", seed, round, idx, ht, got, want)
					}
					sawSingleErr = sawSingleErr || gotErr == ErrSigHashSingleIndex
				}
			}
			tx.InvalidateCache()
			if !bytes.Equal(tx.Bytes(), before) {
				t.Fatalf("seed %d round %d: CalcSignatureHash wrote to the transaction", seed, round)
			}
		}
	}
	if !sawSingleErr {
		t.Error("no draw exercised the SigHashSingle index-out-of-range error")
	}
	tx := randTx(rand.New(rand.NewSource(1)))
	for _, idx := range []int{-1, len(tx.TxIn)} {
		if _, err := CalcSignatureHash(nil, SigHashAll, tx, idx); err == nil {
			t.Errorf("input index %d accepted", idx)
		}
	}
}

// The matchers as they were: Parse the script, then match the list.

func refIsPubKeyHash(instrs []Instruction) bool {
	return len(instrs) == 5 &&
		instrs[0].Opcode == OP_DUP &&
		instrs[1].Opcode == OP_HASH160 &&
		len(instrs[2].Data) == bkey.PrincipalSize &&
		instrs[3].Opcode == OP_EQUALVERIFY &&
		instrs[4].Opcode == OP_CHECKSIG
}

func refIsPubKey(instrs []Instruction) bool {
	return len(instrs) == 2 &&
		len(instrs[0].Data) == bkey.SerializedPubKeySize &&
		instrs[1].Opcode == OP_CHECKSIG
}

func refIsMultiSig(instrs []Instruction) bool {
	if len(instrs) < 4 {
		return false
	}
	m, ok := smallInt(instrs[0].Opcode)
	if !ok || m < 1 {
		return false
	}
	last := len(instrs) - 1
	if instrs[last].Opcode != OP_CHECKMULTISIG {
		return false
	}
	n, ok := smallInt(instrs[last-1].Opcode)
	if !ok || n < m || n != len(instrs)-3 {
		return false
	}
	for _, in := range instrs[1 : last-1] {
		if len(in.Data) != bkey.SerializedPubKeySize {
			return false
		}
	}
	return true
}

func refIsNullData(instrs []Instruction) bool {
	if len(instrs) == 1 && instrs[0].Opcode == OP_RETURN {
		return true
	}
	return len(instrs) == 2 && instrs[0].Opcode == OP_RETURN &&
		len(instrs[1].Data) <= maxNullDataSize
}

func refClassify(s []byte) ScriptClass {
	instrs, err := Parse(s)
	switch {
	case err != nil:
		return NonStandardTy
	case refIsPubKeyHash(instrs):
		return PubKeyHashTy
	case refIsPubKey(instrs):
		return PubKeyTy
	case refIsMultiSig(instrs):
		return MultiSigTy
	case refIsNullData(instrs):
		return NullDataTy
	}
	return NonStandardTy
}

func refIsPushOnly(s []byte) bool {
	instrs, err := Parse(s)
	if err != nil {
		return false
	}
	for _, in := range instrs {
		if in.Opcode > OP_16 {
			return false
		}
	}
	return true
}

// push encodes data behind the given push opcode, minimal or not.
func push(op byte, data []byte) []byte {
	var out []byte
	switch op {
	case OP_PUSHDATA1:
		out = []byte{op, byte(len(data))}
	case OP_PUSHDATA2:
		out = binary.LittleEndian.AppendUint16([]byte{op}, uint16(len(data)))
	case OP_PUSHDATA4:
		out = binary.LittleEndian.AppendUint32([]byte{op}, uint32(len(data)))
	default:
		out = []byte{byte(len(data))}
	}
	return append(out, data...)
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

func TestMatchersAgreeWithParseBasedReference(t *testing.T) {
	key := newKey(t, "matcher")
	prin := key.Principal()
	pk := key.PubKey().Serialize()
	meta := MetadataKeySlot(chainhash.HashB([]byte("typecoin tx")))
	data := bytes.Repeat([]byte{0xab}, 40)
	pushOps := []byte{0, OP_PUSHDATA1, OP_PUSHDATA2, OP_PUSHDATA4}

	scripts := map[string][]byte{
		"empty":                 nil,
		"op_return alone":       {OP_RETURN},
		"op_return then opcode": {OP_RETURN, OP_DUP},
		"op_return 81 bytes":    cat([]byte{OP_RETURN}, push(OP_PUSHDATA1, bytes.Repeat([]byte{1}, 81))),
		"op_return two pushes":  cat([]byte{OP_RETURN}, push(0, data), push(0, data)),
		"p2pkh 19-byte hash":    cat([]byte{OP_DUP, OP_HASH160}, push(0, prin[:19]), []byte{OP_EQUALVERIFY, OP_CHECKSIG}),
		"p2pkh trailing op":     append(PayToPubKeyHash(prin), OP_NOP),
		"p2pk 64-byte key":      cat(push(0, pk[:64]), []byte{OP_CHECKSIG}),
		"multisig 0-of-1":       cat([]byte{OP_0}, push(0, pk), []byte{OP_1, OP_CHECKMULTISIG}),
		"multisig 2-of-1":       cat([]byte{OP_2}, push(0, pk), []byte{OP_1, OP_CHECKMULTISIG}),
		"multisig n mismatch":   cat([]byte{OP_1}, push(0, pk), push(0, meta), []byte{OP_3, OP_CHECKMULTISIG}),
		"multisig no keys":      {OP_1, OP_0, OP_CHECKMULTISIG},
		"multisig ends in keys": cat([]byte{OP_1}, push(0, pk), push(0, meta)),
		"multisig verify":       cat([]byte{OP_1}, push(0, pk), []byte{OP_1, OP_CHECKMULTISIGVERIFY}),
		"multisig short slot":   cat([]byte{OP_1}, push(0, pk), push(0, meta[:33]), []byte{OP_2, OP_CHECKMULTISIG}),
		"multisig 1negate":      cat([]byte{OP_1NEGATE}, push(0, pk), []byte{OP_1, OP_CHECKMULTISIG}),
		"pushdata4 oversize":    {OP_PUSHDATA4, 0xff, 0xff, 0xff, 0xff},
		"pushdata4 just over":   binary.LittleEndian.AppendUint32([]byte{OP_PUSHDATA4}, maxScriptElementSize*2+1),
		"pushes only":           cat(push(0, data), []byte{OP_0, OP_1NEGATE, OP_16}, push(OP_PUSHDATA2, data)),
		"10000 nops":            bytes.Repeat([]byte{OP_NOP}, 10000),
		"10000 bytes of pushes": bytes.Repeat(push(0, bytes.Repeat([]byte{7}, 9)), 1000),
		"p2pkh then 10000":      append(PayToPubKeyHash(prin), bytes.Repeat([]byte{OP_NOP}, 10000)...),
	}
	// Every schema under every encoding of its pushes, whole and cut short
	// at every length (each truncation ends inside a push or between
	// instructions).
	for _, op := range pushOps {
		name := map[byte]string{0: "direct", OP_PUSHDATA1: "pushdata1", OP_PUSHDATA2: "pushdata2", OP_PUSHDATA4: "pushdata4"}[op]
		scripts["p2pkh "+name] = cat([]byte{OP_DUP, OP_HASH160}, push(op, prin[:]), []byte{OP_EQUALVERIFY, OP_CHECKSIG})
		scripts["p2pk "+name] = cat(push(op, pk), []byte{OP_CHECKSIG})
		scripts["1-of-2 metadata "+name] = cat([]byte{OP_1}, push(op, pk), push(op, meta), []byte{OP_2, OP_CHECKMULTISIG})
		scripts["2-of-3 "+name] = cat([]byte{OP_2}, push(op, pk), push(op, pk), push(op, pk), []byte{OP_3, OP_CHECKMULTISIG})
		scripts["nulldata "+name] = cat([]byte{OP_RETURN}, push(op, data))
		scripts["nulldata empty "+name] = cat([]byte{OP_RETURN}, push(op, nil))
	}
	cuts := make(map[string][]byte)
	for name, s := range scripts {
		if len(s) < 300 {
			for cut := 1; cut < len(s); cut++ {
				cuts[fmt.Sprintf("%s cut at %d", name, cut)] = s[:cut]
			}
		}
	}
	for name, s := range cuts {
		scripts[name] = s
	}

	classes := make(map[ScriptClass]int)
	for name, s := range scripts {
		instrs, perr := Parse(s)
		want := refClassify(s)
		classes[want]++
		if got := Classify(s); got != want {
			t.Errorf("%s: Classify = %v, reference %v", name, got, want)
		}
		if got := IsStandard(s); got != (want != NonStandardTy) {
			t.Errorf("%s: IsStandard = %v, reference class %v", name, got, want)
		}
		if got, want := IsPushOnly(s), refIsPushOnly(s); got != want {
			t.Errorf("%s: IsPushOnly = %v, reference %v", name, got, want)
		}
		if _, err := scan(s); (err != nil) != (perr != nil) {
			t.Errorf("%s: scan error %v, Parse error %v", name, err, perr)
		}

		p, ok := ExtractPubKeyHash(s)
		if ok != (want == PubKeyHashTy) || (ok && !bytes.Equal(p[:], instrs[2].Data)) {
			t.Errorf("%s: ExtractPubKeyHash = %x, %v", name, p, ok)
		}
		m, slots, ok := ExtractMultiSig(s)
		if ok != (want == MultiSigTy) {
			t.Errorf("%s: ExtractMultiSig ok = %v, reference class %v", name, ok, want)
		} else if ok {
			wantM, _ := smallInt(instrs[0].Opcode)
			if m != wantM || len(slots) != len(instrs)-3 {
				t.Errorf("%s: ExtractMultiSig = %d-of-%d, reference %d-of-%d", name, m, len(slots), wantM, len(instrs)-3)
			}
			for i, slot := range slots {
				if !bytes.Equal(slot, instrs[1+i].Data) {
					t.Errorf("%s: ExtractMultiSig slot %d differs", name, i)
				}
			}
		}
		payload, ok := ExtractNullData(s)
		if ok != (perr == nil && refIsNullData(instrs)) {
			t.Errorf("%s: ExtractNullData ok = %v", name, ok)
		} else if ok && len(instrs) == 2 && !bytes.Equal(payload, instrs[1].Data) {
			t.Errorf("%s: ExtractNullData payload differs", name)
		}
	}
	for _, c := range []ScriptClass{NonStandardTy, PubKeyTy, PubKeyHashTy, MultiSigTy, NullDataTy} {
		if classes[c] < 4 {
			t.Errorf("only %d table scripts of class %v", classes[c], c)
		}
	}
}

func TestKernelsDoNotAllocate(t *testing.T) {
	key := newKey(t, "allocs")
	p2pkh := PayToPubKeyHash(key.Principal())
	multisig, err := MultiSigScript(1, key.PubKey().Serialize(), MetadataKeySlot(chainhash.HashB([]byte("m"))))
	if err != nil {
		t.Fatal(err)
	}
	sigScript := NewBuilder().AddData(bytes.Repeat([]byte{1}, 72)).AddData(key.PubKey().Serialize()).MustScript()
	tx := wire.NewMsgTx(wire.TxVersion)
	for i := 0; i < 2; i++ {
		tx.AddTxIn(&wire.TxIn{SignatureScript: sigScript, Sequence: wire.MaxTxInSequenceNum})
	}
	tx.AddTxOut(&wire.TxOut{Value: 1, PkScript: multisig})
	tx.AddTxOut(&wire.TxOut{Value: 2, PkScript: p2pkh})

	pins := []struct {
		name string
		max  float64
		f    func()
	}{
		{"Classify(p2pkh)", 0, func() { Classify(p2pkh) }},
		{"Classify(multisig)", 0, func() { Classify(multisig) }},
		{"IsPushOnly", 0, func() { IsPushOnly(sigScript) }},
		{"ExtractPubKeyHash", 0, func() { ExtractPubKeyHash(p2pkh) }},
		{"CalcSignatureHash", 2, func() { CalcSignatureHash(multisig, SigHashAll, tx, 1) }},
	}
	for _, pin := range pins {
		if got := testing.AllocsPerRun(100, pin.f); got > pin.max {
			t.Errorf("%s allocates %v times per run, want at most %v", pin.name, got, pin.max)
		}
	}
}
