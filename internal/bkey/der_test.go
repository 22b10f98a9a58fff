package bkey

import (
	"bytes"
	"crypto/sha256"
	"encoding/asn1"
	"encoding/hex"
	"errors"
	"math/big"
	"testing"
)

// asn1Sig and refParseSignature are ParseSignature as it was on
// encoding/asn1, kept as the reference the hand codec must equal.
type asn1Sig struct {
	R, S *big.Int
}

func refParseSignature(b []byte) (r, s *big.Int, ok bool) {
	var raw asn1Sig
	rest, err := asn1.Unmarshal(b, &raw)
	if err != nil || len(rest) != 0 || raw.R.Sign() <= 0 || raw.S.Sign() <= 0 {
		return nil, nil, false
	}
	return raw.R, raw.S, true
}

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// vectorDER is the RFC 6979 A.2.5 signature of "sample" (see
// TestSignRFC6979Vector). Both integers have their high bit set, so
// each carries a zero sign byte.
const vectorDER = "3046" +
	"022100efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716" +
	"022100f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8"

// TestParseSignature holds the codec to encoding/asn1's verdicts on the
// shapes the DER rules distinguish, and checks that zero and negative
// values keep the non-positive error.
func TestParseSignature(t *testing.T) {
	wide := "01" + hex.EncodeToString(bytes.Repeat([]byte{0x5a}, 69)) // 70 bytes
	cases := []struct {
		name, der string
		ok        bool
		err       error
	}{
		{"vector", vectorDER, true, nil},
		{"small", "3006020101020102", true, nil},
		// Bytes after s inside the SEQUENCE are ignored, as encoding/asn1
		// ignores elements after a struct's last field: the padded
		// signature parses to the vector's (r, s) and verifies, while its
		// bytes, and so a carrier's txid, differ. A malleability vector
		// that consensus keeps for now (ROADMAP item 3).
		{"padded-inside-sequence", "3049" + vectorDER[4:] + "050000", true, nil},
		{"trailing-after-sequence", vectorDER + "00", false, errDERTrailing},
		{"empty", "", false, errDERTruncated},
		{"one-byte", "30", false, errDERTruncated},
		{"sequence-truncated", "3008020101020102", false, errDERTruncated},
		{"missing-s", "3003020101", false, errDERTruncated},
		{"indefinite-length", "3080020101020102" + "0000", false, errDERLength},
		{"long-form-below-128", "308106020101020102", false, errDERLength},
		{"long-form-leading-zero", "30820006020101020102", false, errDERLength},
		{"long-form-wide", "308190" + "0246" + wide + "0246" + wide, true, nil},
		{"long-form-wide-non-minimal", "30820090" + "0246" + wide + "0246" + wide, false, errDERLength},
		{"integer-33-bytes", "3026" + "022101" + vectorDER[10:74] + "020101", true, nil},
		{"integer-40-bytes", "302d" + "022801" + hex.EncodeToString(bytes.Repeat([]byte{0xab}, 39)) + "020101", true, nil},
		{"empty-integer", "30050200020101", false, errDERInteger},
		{"non-minimal-integer", "300702020001020101", false, errDERInteger},
		{"non-minimal-negative", "30070202ff80020101", false, errDERInteger},
		{"zero-r", "3006020100020101", false, errNonPositive},
		{"zero-s", "3006020101020100", false, errNonPositive},
		{"negative-r", "30060201ff020101", false, errNonPositive},
		{"negative-s", "3006020101020180", false, errNonPositive},
		{"set-tag", "3106020101020102", false, errDERTag},
		{"primitive-sequence", "1006020101020102", false, errDERTag},
		{"compound-integer", "3006220101020102", false, errDERTag},
		{"high-tag-form", "3f10060201010201020000", false, errDERTag},
		{"bit-string-integer", "3006030101020102", false, errDERTag},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := mustHex(c.der)
			wantR, wantS, refOK := refParseSignature(b)
			if refOK != c.ok {
				t.Fatalf("encoding/asn1 accepts: %v, table says %v", refOK, c.ok)
			}
			sig, err := ParseSignature(b)
			if !errors.Is(err, c.err) {
				t.Fatalf("error %v, want %v", err, c.err)
			}
			if !c.ok {
				return
			}
			if r, s := sigInts(sig); r.Cmp(wantR) != 0 || s.Cmp(wantS) != 0 {
				t.Errorf("(r, s) = (%x, %x), want (%x, %x)", r, s, wantR, wantS)
			}
			want, _ := asn1.Marshal(asn1Sig{R: wantR, S: wantS})
			if got := sig.Serialize(); !bytes.Equal(got, want) {
				t.Errorf("Serialize = %x, want %x", got, want)
			}
		})
	}
}

// TestPaddedSignatureVerifies shows the padded-DER malleability end to
// end: the RFC 6979 vector, re-encoded with bytes appended inside its
// SEQUENCE, still verifies under the vector's key (ROADMAP item 3).
func TestPaddedSignatureVerifies(t *testing.T) {
	k, err := ParsePrivateKey(mustHex("c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721"))
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("sample"))
	padded := mustHex("3049" + vectorDER[4:] + "050000")
	if !VerifyBytes(k.PubKey().Serialize(), digest[:], padded) {
		t.Error("padded signature rejected")
	}
	sig, err := ParseSignature(padded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sig.Serialize(), mustHex(vectorDER)) {
		t.Errorf("padded signature re-encodes as %x", sig.Serialize())
	}
}

// FuzzParseSignatureMatchesASN1 holds ParseSignature and Serialize to
// encoding/asn1 on every input: the same accept or reject, the same
// (r, s), and the same re-encoding. The named seeds in testdata/fuzz
// cover long-form and non-minimal lengths, the indefinite form, zero,
// negative, 33- and 40-byte integers, bytes trailing inside the
// SEQUENCE (the padded-DER malleability, ROADMAP item 3) and after
// it, and wrong tags.
func FuzzParseSignatureMatchesASN1(f *testing.F) {
	f.Add(mustHex(vectorDER))
	f.Fuzz(func(t *testing.T, b []byte) {
		wantR, wantS, ok := refParseSignature(b)
		sig, err := ParseSignature(b)
		if (err == nil) != ok {
			t.Fatalf("%x: ParseSignature error %v, encoding/asn1 accepts: %v", b, err, ok)
		}
		if !ok {
			return
		}
		if r, s := sigInts(sig); r.Cmp(wantR) != 0 || s.Cmp(wantS) != 0 {
			t.Fatalf("%x: (r, s) = (%x, %x), encoding/asn1 (%x, %x)", b, r, s, wantR, wantS)
		}
		want, err := asn1.Marshal(asn1Sig{R: wantR, S: wantS})
		if err != nil {
			t.Fatal(err)
		}
		if got := sig.Serialize(); !bytes.Equal(got, want) {
			t.Fatalf("%x: Serialize = %x, encoding/asn1 %x", b, got, want)
		}
	})
}

// BenchmarkParseSignature parses a signature as the proof decoder does.
func BenchmarkParseSignature(b *testing.B) {
	der := mustHex(vectorDER)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseSignature(der); err != nil {
			b.Fatal(err)
		}
	}
}
