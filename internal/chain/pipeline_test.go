package chain

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"typecoin/internal/bkey"
	"typecoin/internal/clock"
	"typecoin/internal/script"
	"typecoin/internal/wire"
)

// TestScriptFailureRollsBackConnect mines a block of several
// transactions in which two inputs at different positions fail their
// scripts, and delivers it to fresh chains under one and four CPUs. The
// fan-out must report the input earliest in block order whatever the
// interleaving, the connect must leave no trace in the UTXO table, the
// spend journal or the tx index, and the failed flag must answer a
// re-delivery.
func TestScriptFailureRollsBackConnect(t *testing.T) {
	donor, clk := newTestChain(t)
	prefix := extend(t, donor, clk, 11, 0)

	// Height 12: split a mature coinbase into eight outputs. Output 2 is
	// locked to a key and will carry a signature over the wrong input,
	// so its check fails only after a full ECDSA verification; output 6
	// is locked by OP_0 and fails at once. The later failure usually
	// finishes first under the fan-out, which is the case the "earliest
	// in block order" rule exists for.
	key, err := bkey.NewPrivateKey(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	keyScript := script.PayToPubKeyHash(key.Principal())
	cb := prefix[0].Transactions[0]
	value := cb.TxOut[0].Value
	per := (value - 1000) / 8
	fund := wire.NewMsgTx(wire.TxVersion)
	fund.AddTxIn(&wire.TxIn{PreviousOutPoint: wire.OutPoint{Hash: cb.TxHash()}, Sequence: wire.MaxTxInSequenceNum})
	for i := 0; i < 8; i++ {
		pk := []byte{0x51} // OP_1
		switch i {
		case 2:
			pk = keyScript
		case 6:
			pk = []byte{0x00} // OP_0
		}
		fund.AddTxOut(&wire.TxOut{Value: per, PkScript: pk})
	}
	fundBlk := mineBlock(t, donor, donor.BestHash(), 12, clk.Advance(time.Minute), 0, value-8*per, fund)
	prefix = append(prefix, fundBlk)
	fundID := fund.TxHash()

	// Height 13: six transactions, one spending an output created
	// earlier in the same block. Transaction 2 fails at input 1,
	// transaction 4 at input 0.
	spend := func(value int64, ins ...wire.OutPoint) *wire.MsgTx {
		tx := wire.NewMsgTx(wire.TxVersion)
		for _, op := range ins {
			tx.AddTxIn(&wire.TxIn{PreviousOutPoint: op, Sequence: wire.MaxTxInSequenceNum})
		}
		tx.AddTxOut(&wire.TxOut{Value: value - 100, PkScript: []byte{0x51}})
		return tx
	}
	out := func(i uint32) wire.OutPoint { return wire.OutPoint{Hash: fundID, Index: i} }
	tx1 := spend(per, out(0))
	tx2 := spend(2*per, out(1), out(2))
	if tx2.TxIn[1].SignatureScript, err = script.SignatureScript(tx2, 0, keyScript, script.SigHashAll, key); err != nil {
		t.Fatal(err)
	}
	tx2.InvalidateCache()
	tx3 := spend(per-100, wire.OutPoint{Hash: tx1.TxHash()})
	tx4 := spend(2*per, out(6), out(3))
	tx5 := spend(2*per, out(4), out(5))
	tx6 := spend(per, out(7))
	txs := []*wire.MsgTx{tx1, tx2, tx3, tx4, tx5, tx6}
	bad := mineBlock(t, donor, fundBlk.BlockHash(), 13, clk.Advance(time.Minute), 0, 600, txs...)
	wantErr := fmt.Sprintf("input 1 of %s", tx2.TxHash())

	spentOps := []wire.OutPoint{out(0), out(1), out(2), out(3), out(4), out(5), out(6), out(7), {Hash: tx1.TxHash()}}
	type state struct {
		outpoints []wire.OutPoint
		size      int
		spent     []bool
		txs       []bool
	}
	capture := func(c *Chain) state {
		s := state{outpoints: c.UtxoOutpoints(), size: c.UtxoSize()}
		for _, op := range spentOps {
			_, ok := c.IsSpent(op)
			s.spent = append(s.spent, ok)
		}
		for _, tx := range txs {
			_, ok := c.TxByID(tx.TxHash())
			s.txs = append(s.txs, ok)
		}
		return s
	}

	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for run := 0; run < 20; run++ {
				c := New(RegTestParams(), clock.NewSimulated(clk.Now()))
				mustProcessBlocks(t, c, prefix)
				before := capture(c)

				status, err := c.ProcessBlock(bad)
				if status != StatusInvalid || err == nil {
					t.Fatalf("run %d: status=%v err=%v, want invalid", run, status, err)
				}
				if !strings.Contains(err.Error(), wantErr) {
					t.Fatalf("run %d: error %q does not name %q", run, err, wantErr)
				}
				if got := capture(c); !reflect.DeepEqual(got, before) {
					t.Fatalf("run %d: state after the failed connect differs:\n got %+v\nwant %+v", run, got, before)
				}
				if got := c.BestHash(); got != fundBlk.BlockHash() {
					t.Fatalf("run %d: tip moved to %s", run, got)
				}
				status, err = c.ProcessBlock(bad)
				if status != StatusInvalid || !errors.Is(err, errKnownInvalid) {
					t.Fatalf("run %d: re-delivery: status=%v err=%v, want invalid/errKnownInvalid", run, status, err)
				}
			}
		})
	}
}
