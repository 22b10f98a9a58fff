package bkey

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// detEntropy is a tiny deterministic reader (testutil would import cycle).
type detEntropy struct{ state [32]byte }

func (d *detEntropy) Read(p []byte) (int, error) {
	for i := range p {
		if i%32 == 0 {
			d.state = sha256.Sum256(d.state[:])
		}
		p[i] = d.state[i%32]
	}
	return len(p), nil
}

func newKey(t *testing.T) *PrivateKey {
	t.Helper()
	k, err := NewPrivateKey(&detEntropy{state: sha256.Sum256([]byte(t.Name()))})
	if err != nil {
		t.Fatalf("NewPrivateKey: %v", err)
	}
	return k
}

func TestSignVerify(t *testing.T) {
	k := newKey(t)
	digest := sha256.Sum256([]byte("message"))
	sig, err := k.Sign(digest[:])
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if !k.PubKey().Verify(digest[:], sig) {
		t.Error("valid signature rejected")
	}
	other := sha256.Sum256([]byte("other"))
	if k.PubKey().Verify(other[:], sig) {
		t.Error("signature verified for wrong digest")
	}
}

func TestVerifyWrongKey(t *testing.T) {
	k1 := newKey(t)
	k2, err := NewPrivateKey(&detEntropy{state: sha256.Sum256([]byte("second"))})
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("message"))
	sig, err := k1.Sign(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	if k2.PubKey().Verify(digest[:], sig) {
		t.Error("signature verified under wrong key")
	}
}

func TestSignRejectsBadDigestLength(t *testing.T) {
	k := newKey(t)
	if _, err := k.Sign([]byte("short")); err == nil {
		t.Error("short digest accepted")
	}
}

func TestVerifyNilSignature(t *testing.T) {
	k := newKey(t)
	digest := sha256.Sum256([]byte("m"))
	if k.PubKey().Verify(digest[:], nil) {
		t.Error("nil signature verified")
	}
}

func TestPrivateKeyRoundTrip(t *testing.T) {
	k := newKey(t)
	ser := k.Serialize()
	if len(ser) != 32 {
		t.Fatalf("serialized key length %d", len(ser))
	}
	back, err := ParsePrivateKey(ser)
	if err != nil {
		t.Fatalf("ParsePrivateKey: %v", err)
	}
	if back.Principal() != k.Principal() {
		t.Error("round-tripped key has different principal")
	}
	digest := sha256.Sum256([]byte("m"))
	sig, err := back.Sign(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	if !k.PubKey().Verify(digest[:], sig) {
		t.Error("round-tripped key signs invalidly")
	}
}

func TestParsePrivateKeyErrors(t *testing.T) {
	if _, err := ParsePrivateKey(make([]byte, 31)); err == nil {
		t.Error("short key accepted")
	}
	if _, err := ParsePrivateKey(make([]byte, 32)); err == nil {
		t.Error("zero scalar accepted")
	}
	all := bytes.Repeat([]byte{0xff}, 32)
	if _, err := ParsePrivateKey(all); err == nil {
		t.Error("out-of-range scalar accepted")
	}
}

func TestPubKeyRoundTrip(t *testing.T) {
	k := newKey(t)
	ser := k.PubKey().Serialize()
	if len(ser) != SerializedPubKeySize {
		t.Fatalf("pubkey length %d", len(ser))
	}
	back, err := ParsePubKey(ser)
	if err != nil {
		t.Fatalf("ParsePubKey: %v", err)
	}
	if back.Principal() != k.Principal() {
		t.Error("round-tripped pubkey has different principal")
	}
}

func TestParsePubKeyErrors(t *testing.T) {
	if _, err := ParsePubKey(nil); err == nil {
		t.Error("nil accepted")
	}
	bad := make([]byte, SerializedPubKeySize)
	bad[0] = 0x04
	if _, err := ParsePubKey(bad); err == nil {
		t.Error("off-curve point accepted")
	}
	// The metadata prefix 0x02 must never parse as a key: the 1-of-2
	// encoding depends on this (script.MetadataKeySlot).
	k := newKey(t)
	meta := k.PubKey().Serialize()
	meta[0] = 0x02
	if _, err := ParsePubKey(meta); err == nil {
		t.Error("metadata-prefixed slot parsed as key")
	}
}

func TestPrincipalRoundTrip(t *testing.T) {
	p := newKey(t).Principal()
	back, err := ParsePrincipal(p.String())
	if err != nil {
		t.Fatalf("ParsePrincipal: %v", err)
	}
	if back != p {
		t.Error("principal round trip mismatch")
	}
	if _, err := ParsePrincipal("xyz"); err == nil {
		t.Error("bad hex accepted")
	}
	if _, err := ParsePrincipal("abcd"); err == nil {
		t.Error("short principal accepted")
	}
}

func TestPrincipalIsHashOfKey(t *testing.T) {
	k := newKey(t)
	sum := sha256.Sum256(k.PubKey().Serialize())
	var want Principal
	copy(want[:], sum[:PrincipalSize])
	if k.Principal() != want {
		t.Error("principal is not truncated sha256 of serialized key")
	}
}

func TestSignatureSerializeRoundTrip(t *testing.T) {
	k := newKey(t)
	digest := sha256.Sum256([]byte("m"))
	sig, err := k.Sign(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSignature(sig.Serialize())
	if err != nil {
		t.Fatalf("ParseSignature: %v", err)
	}
	if !bytes.Equal(back.r, sig.r) || !bytes.Equal(back.s, sig.s) {
		t.Error("signature round trip mismatch")
	}
}

func TestParseSignatureErrors(t *testing.T) {
	if _, err := ParseSignature(nil); err == nil {
		t.Error("empty signature accepted")
	}
	if _, err := ParseSignature([]byte{0x30, 0x00, 0xff}); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestPropertySignVerifyDistinctDigests(t *testing.T) {
	k := newKey(t)
	f := func(msg []byte) bool {
		digest := sha256.Sum256(msg)
		sig, err := k.Sign(digest[:])
		if err != nil {
			return false
		}
		return k.PubKey().Verify(digest[:], sig)
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestSignDeterministic: the same key and digest must always produce the
// same signature (RFC 6979 nonces) — transaction ids are replayable.
func TestSignDeterministic(t *testing.T) {
	k := newKey(t)
	digest := sha256.Sum256([]byte("replay me"))
	first, err := k.Sign(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		sig, err := k.Sign(digest[:])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sig.Serialize(), first.Serialize()) {
			t.Fatalf("signature %d differs: %x vs %x", i, sig.Serialize(), first.Serialize())
		}
	}
	// Distinct digests still get distinct nonces (r components differ).
	other := sha256.Sum256([]byte("different"))
	sig2, err := k.Sign(other[:])
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(sig2.r, first.r) {
		t.Fatal("distinct digests reused a nonce")
	}
}

// TestSignRFC6979Vector checks the P-256/SHA-256 test vector from RFC
// 6979 appendix A.2.5 (message "sample").
func TestSignRFC6979Vector(t *testing.T) {
	kb, _ := hex.DecodeString("C9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721")
	k, err := ParsePrivateKey(kb)
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("sample"))
	sig, err := k.Sign(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	wantR := "EFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716"
	wantS := "F7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8"
	r, s := sigInts(sig)
	if got := fmt.Sprintf("%064X", r); got != wantR {
		t.Errorf("r = %s, want %s", got, wantR)
	}
	if got := fmt.Sprintf("%064X", s); got != wantS {
		t.Errorf("s = %s, want %s", got, wantS)
	}
	if !k.PubKey().Verify(digest[:], sig) {
		t.Error("vector signature does not verify")
	}
	// A key's second verification is its first through the table path.
	c := newKeyCache(maxKeyTables)
	for i := 0; i < 2; i++ {
		if !c.verifySig(k.PubKey(), digest[:], sig) {
			t.Errorf("vector signature rejected on verification %d", i+1)
		}
	}
	if st := c.stats(); st.ColdVerifies != 1 || st.TableVerifies != 1 {
		t.Errorf("vector verified %d times cold and %d through the table, want 1 and 1", st.ColdVerifies, st.TableVerifies)
	}
}

// TestNonceMACMatchesCryptoHMAC holds the generator's stack-computed HMAC
// to crypto/hmac over the three message shapes RFC 6979 uses: V alone,
// V || sep (a retry after an out-of-range candidate, which the vectors
// never reach), and V || sep || x || h1.
func TestNonceMACMatchesCryptoHMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(6979))
	for i := 0; i < 200; i++ {
		var g nonceRFC6979
		rng.Read(g.k[:])
		rng.Read(g.v[:])
		tail := make([]byte, []int{0, 1, 65}[i%3])
		rng.Read(tail)
		ref := hmac.New(sha256.New, g.k[:])
		ref.Write(g.v[:])
		ref.Write(tail)
		if got := g.mac(tail); !bytes.Equal(got[:], ref.Sum(nil)) {
			t.Fatalf("mac over a %d-byte tail differs from crypto/hmac", len(tail))
		}
	}
}
