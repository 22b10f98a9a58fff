package mempool_test

import (
	"testing"

	"typecoin/internal/bkey"
	"typecoin/internal/script"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

// TestEverySignatureVerifiedOnce admits a block's worth of P2PKH spends
// under three keys, then mines them. Admission must fully verify each
// signature once, through crypto/ecdsa or the key's precomputed table,
// exactly as often as the signature cache misses; the block connect must
// then be answered wholly from the signature cache, with no verification.
func TestEverySignatureVerifiedOnce(t *testing.T) {
	const perKey = 3
	h := fundedHarness(t)
	var keys []bkey.Principal
	var outs []wallet.Output
	for i := 0; i < 3; i++ {
		k, err := h.Wallet.NewKey()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
		for j := 0; j < perKey; j++ {
			outs = append(outs, wallet.Output{Value: 1_0000_0000, PkScript: script.PayToPubKeyHash(k)})
		}
	}
	fanout, err := h.Wallet.Build(outs, wallet.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Pool.Accept(fanout); err != nil {
		t.Fatal(err)
	}
	h.MineBlocks(t, 1)

	sc := h.Chain.SigCache()
	cache0, verify0 := sc.Stats(), bkey.ReadVerifyStats()
	for i := range outs {
		tx, err := h.Wallet.Build([]wallet.Output{
			{Value: 5000_0000, PkScript: script.PayToPubKeyHash(keys[i%len(keys)])},
		}, wallet.BuildOptions{ExtraInputs: []wire.OutPoint{{Hash: fanout.TxHash(), Index: uint32(i)}}})
		if err != nil {
			t.Fatal(err)
		}
		if len(tx.TxIn) != 1 {
			t.Fatalf("spend %d has %d inputs, want 1", i, len(tx.TxIn))
		}
		if _, err := h.Pool.Accept(tx); err != nil {
			t.Fatalf("Accept spend %d: %v", i, err)
		}
	}
	cache1, verify1 := sc.Stats(), bkey.ReadVerifyStats()
	misses := cache1.Misses - cache0.Misses
	verified := verify1.ColdVerifies - verify0.ColdVerifies + verify1.TableVerifies - verify0.TableVerifies
	if misses != uint64(len(outs)) || verified != misses {
		t.Errorf("admitting %d spends: %d sigcache misses, %d full verifications; want %d of each",
			len(outs), misses, verified, len(outs))
	}
	if verify1.TableVerifies == verify0.TableVerifies {
		t.Errorf("no spend under a repeated key used its table: %+v -> %+v", verify0, verify1)
	}

	h.MineBlocks(t, 1)
	if n := h.Pool.Size(); n != 0 {
		t.Fatalf("%d spends still pooled after mining", n)
	}
	cache2, verify2 := sc.Stats(), bkey.ReadVerifyStats()
	if cache2.Misses != cache1.Misses || cache2.Hits-cache1.Hits != uint64(len(outs)) {
		t.Errorf("block connect: %d sigcache misses and %d hits, want 0 and %d",
			cache2.Misses-cache1.Misses, cache2.Hits-cache1.Hits, len(outs))
	}
	if verify2.ColdVerifies != verify1.ColdVerifies || verify2.TableVerifies != verify1.TableVerifies {
		t.Errorf("block connect verified signatures: %+v -> %+v", verify1, verify2)
	}
}
