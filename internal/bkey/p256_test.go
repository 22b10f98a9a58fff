package bkey

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/sha256"
	"encoding/asn1"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// toAffine returns p's affine coordinates, or nil, nil for infinity.
func (p *jacobianPoint) toAffine() (x, y *big.Int) {
	if p.z.IsZero() == 1 {
		return nil, nil
	}
	var zinv, zinv2, ax, ay fe
	zinv.Invert(&p.z)
	zinv2.Square(&zinv)
	ax.Mul(&p.x, &zinv2)
	ay.Mul(&p.y, &zinv2)
	ay.Mul(&ay, &zinv)
	return new(big.Int).SetBytes(ax.Bytes()), new(big.Int).SetBytes(ay.Bytes())
}

func affineOf(x, y *big.Int) affinePoint {
	return affinePoint{x: *feFromInt(x), y: *feFromInt(y)}
}

func jacobianOf(x, y *big.Int) jacobianPoint {
	p := jacobianPoint{x: *feFromInt(x), y: *feFromInt(y)}
	p.z.One()
	return p
}

func scalarBytes(k *big.Int) []byte { return k.FillBytes(make([]byte, 32)) }

// scalarOf converts v ∈ [0, 2^256) to a scalar.
func scalarOf(v *big.Int) scalar {
	return scalarFromBytes((*[32]byte)(scalarBytes(v)))
}

// intOf converts s to a big.Int.
func intOf(s *scalar) *big.Int {
	var b [32]byte
	s.fillBytes(&b)
	return new(big.Int).SetBytes(b[:])
}

// sigInts returns sig's r and s.
func sigInts(sig *Signature) (r, s *big.Int) {
	return new(big.Int).SetBytes(sig.r), new(big.Int).SetBytes(sig.s)
}

// sigOf returns the signature (r, s) for r, s > 0.
func sigOf(r, s *big.Int) *Signature { return &Signature{r: r.Bytes(), s: s.Bytes()} }

// ecdsaPub returns p as a crypto/ecdsa key.
func ecdsaPub(p *PublicKey) *ecdsa.PublicKey {
	return &ecdsa.PublicKey{
		Curve: elliptic.P256(),
		X:     new(big.Int).SetBytes(p.xy[:32]),
		Y:     new(big.Int).SetBytes(p.xy[32:]),
	}
}

// verifyInts runs the table path on (r, s), for r, s ≥ 0.
func (q *combTable) verifyInts(digest []byte, r, s *big.Int) bool {
	return q.verify(digest, r.Bytes(), s.Bytes())
}

func samePoint(t *testing.T, what string, gx, gy, wx, wy *big.Int) {
	t.Helper()
	if (gx == nil) != (wx == nil) || (gx != nil && (gx.Cmp(wx) != 0 || gy.Cmp(wy) != 0)) {
		t.Errorf("%s = (%v, %v), want (%v, %v)", what, gx, gy, wx, wy)
	}
}

// combScalar returns Σ_i (2·bit_i(col) − 1)·2^(26·i), the multiple of
// P that column index col names.
func combScalar(col uint) *big.Int {
	m := new(big.Int)
	for i := 0; i < teeth; i++ {
		term := new(big.Int).Lsh(big.NewInt(1), uint(columns*i))
		if col>>i&1 == 1 {
			m.Add(m, term)
		} else {
			m.Sub(m, term)
		}
	}
	return m
}

// TestBaseTableMatchesScalarBaseMult checks all 512 entries of G's
// table, T[low] = m·G with m = 2^234 + Σ_(i<9) ±2^(26·i), against the
// standard library's base multiplication.
func TestBaseTableMatchesScalarBaseMult(t *testing.T) {
	curve := elliptic.P256()
	for low := uint(0); low < combPoints; low++ {
		wx, wy := curve.ScalarBaseMult(scalarBytes(combScalar(low | combPoints)))
		e := baseTable[low]
		gx, gy := new(big.Int).SetBytes(e.x.Bytes()), new(big.Int).SetBytes(e.y.Bytes())
		samePoint(t, fmt.Sprintf("table[%d]", low), gx, gy, wx, wy)
	}
}

// all260 is 2^260 − 1, the offset of the comb's recoding.
var all260 = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), teeth*columns), big.NewInt(1))

// recode returns e = (u + 2^260 − 1)/2 mod n, the recoding verify folds
// into its scalars.
func recode(u *big.Int) *big.Int {
	n := p256Params.N
	e := new(big.Int).ModInverse(big.NewInt(2), n)
	return e.Mul(e, u).Add(e, intOf(&combOffset)).Mod(e, n)
}

// unrecode returns u = 2e − (2^260 − 1) mod n, whose recoding is e.
func unrecode(e *big.Int) *big.Int {
	u := new(big.Int).Lsh(e, 1)
	return u.Sub(u, all260).Mod(u, p256Params.N)
}

// TestAddCombMatchesScalarBaseMult holds the comb multiplication, with
// G's table on the u1 side and a key's table (of G, and of an ordinary
// key) on the u2 side, to the standard library's base multiplication.
// The scalars include those whose recoding e is 0 or n−1, and those
// whose every column takes the negated lookup (e < 2^234) or, for the
// 22 columns that can, the positive one (bits 234–255 of e set).
// Columns 22–25 read bits 256–259 of e < n, which are zero, so they
// always take the negated lookup.
func TestAddCombMatchesScalarBaseMult(t *testing.T) {
	curve := elliptic.P256()
	n := p256Params.N
	one := big.NewInt(1)
	pow2 := func(k uint) *big.Int { return new(big.Int).Lsh(one, k) }
	halfN := new(big.Int).Rsh(n, 1)
	scalars := []*big.Int{
		big.NewInt(0), one, big.NewInt(2), new(big.Int).Sub(n, one),
		halfN, new(big.Int).Add(halfN, one), pow2(255),
	}
	// Recodings e: 0 and n−1; below 2^234, so that every column is
	// negated (−T[0] throughout for 2^234 − 1); and with bits 234–255
	// set, so that columns 0–21 are positive (+T[0] for 2^256 − 2^234).
	for _, e := range []*big.Int{
		big.NewInt(0), new(big.Int).Sub(n, one),
		new(big.Int).Sub(pow2(234), one),
		new(big.Int).Rsh(new(big.Int).SetBytes(bytes.Repeat([]byte{0x5a}, 32)), 22),
		new(big.Int).Sub(pow2(256), pow2(234)),
		new(big.Int).Sub(n, pow2(233)),
	} {
		u := unrecode(e)
		if recode(u).Cmp(e) != 0 {
			t.Fatalf("recode(unrecode(%x)) = %x", e, recode(u))
		}
		scalars = append(scalars, u)
	}
	zero := scalarOf(recode(new(big.Int)))
	d := big.NewInt(0x5eed)
	g := affineOf(p256Params.Gx, p256Params.Gy)
	q := keyFromScalar(t, d).PubKey()
	keys := []struct {
		name  string
		table *combTable
		d     *big.Int
	}{
		{"G", newCombTable(&g.x, &g.y), one},
		{"Q", tableOf(q), d},
	}
	mul := func(what string, p jacobianPoint, k *big.Int) {
		t.Helper()
		gx, gy := p.toAffine()
		var wx, wy *big.Int
		if k.Sign() != 0 {
			wx, wy = curve.ScalarBaseMult(scalarBytes(k))
		}
		samePoint(t, what, gx, gy, wx, wy)
	}
	for _, u := range scalars {
		e := scalarOf(recode(u))
		mul(fmt.Sprintf("%x·G through G's table", u), keys[1].table.mulAdd(&e, &zero), u)
		for _, k := range keys {
			want := new(big.Int).Mul(u, k.d)
			mul(fmt.Sprintf("%x·%s through its table", u, k.name), k.table.mulAdd(&zero, &e), want.Mod(want, n))
		}
	}
}

// TestPointAdditionEdgeCases holds mixed addition to elliptic.P256's Add
// and Double when P = ∞, P = Q, P = −Q, and for distinct points, with P
// at Z = 1 and scaled to Z = 2.
func TestPointAdditionEdgeCases(t *testing.T) {
	curve := elliptic.P256()
	px, py := curve.ScalarBaseMult(scalarBytes(big.NewInt(7)))
	qx, qy := curve.ScalarBaseMult(scalarBytes(big.NewInt(11)))
	negPy := new(big.Int).Sub(p256Params.P, py)
	dx, dy := curve.Double(px, py)
	sx, sy := curve.Add(px, py, qx, qy)

	cases := []struct {
		name         string
		p            jacobianPoint
		qx, qy       *big.Int
		wantX, wantY *big.Int
	}{
		{"∞+Q", jacobianPoint{}, qx, qy, qx, qy},
		{"P+P", jacobianOf(px, py), px, py, dx, dy},
		{"P+(−P)", jacobianOf(px, py), px, negPy, nil, nil},
		{"P+Q", jacobianOf(px, py), qx, qy, sx, sy},
	}
	for _, c := range cases {
		q := affineOf(c.qx, c.qy)
		scaled := c.p
		scaled.x.Mul(&scaled.x, feFromInt(big.NewInt(4)))
		scaled.y.Mul(&scaled.y, feFromInt(big.NewInt(8)))
		scaled.z.Mul(&scaled.z, feFromInt(big.NewInt(2)))
		for _, p := range []jacobianPoint{c.p, scaled} {
			p.addAffine(&q)
			gx, gy := p.toAffine()
			samePoint(t, "addAffine "+c.name, gx, gy, c.wantX, c.wantY)
		}
	}

	// Doubling ∞ stays at ∞.
	var inf jacobianPoint
	inf.double()
	if inf.z.IsZero() != 1 {
		t.Error("2·∞ is finite")
	}
}

// keyFromScalar returns the key pair with private scalar d.
func keyFromScalar(t testing.TB, d *big.Int) *PrivateKey {
	t.Helper()
	k, err := ParsePrivateKey(scalarBytes(d))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// tableOf builds p's comb table directly, bypassing the cache.
func tableOf(p *PublicKey) *combTable {
	var x, y fe
	x.SetBytes(p.xy[:32])
	y.SetBytes(p.xy[32:])
	return newCombTable(&x, &y)
}

// TestVerifyZeroU1 covers digests whose integer value is 0 mod n (the
// all-zero digest and the digest equal to n), where u1 = 0 and R is u2·Q
// alone.
func TestVerifyZeroU1(t *testing.T) {
	k := keyFromScalar(t, big.NewInt(0x5eed))
	pub := k.PubKey()
	table := tableOf(pub)
	for _, digest := range [][]byte{make([]byte, 32), scalarBytes(p256Params.N)} {
		sig, err := k.Sign(digest)
		if err != nil {
			t.Fatal(err)
		}
		r, s := sigInts(sig)
		if !ecdsa.Verify(ecdsaPub(pub), digest, r, s) {
			t.Fatalf("crypto/ecdsa rejects the signature over %x", digest)
		}
		if !table.verifyInts(digest, r, s) {
			t.Errorf("table path rejects the signature over %x", digest)
		}
		wrong := new(big.Int).Add(s, big.NewInt(1))
		if table.verifyInts(digest, r, wrong) {
			t.Errorf("table path accepts a wrong s over %x", digest)
		}
	}
}

// xAboveN returns a public key Q whose x-coordinate lies in [n, p) and
// the signature (r, r) with r = x(Q) − n over the all-zero digest: there
// u1 = 0 and u2 = r·r⁻¹ = 1, so R = Q and only the x(R) = r + n case of
// the final comparison accepts.
func xAboveN() (*PublicKey, *Signature) {
	for x := new(big.Int).Set(p256Params.N); x.Cmp(p256Params.P) < 0; x.Add(x, big.NewInt(1)) {
		rhs := new(big.Int).Exp(x, big.NewInt(3), p256Params.P)
		rhs.Sub(rhs, new(big.Int).Mul(big.NewInt(3), x))
		rhs.Add(rhs, p256Params.B).Mod(rhs, p256Params.P)
		y := new(big.Int).ModSqrt(rhs, p256Params.P)
		if y == nil {
			continue
		}
		pub, err := ParsePubKey(append(append([]byte{0x04}, scalarBytes(x)...), scalarBytes(y)...))
		if err != nil {
			panic(err)
		}
		r := new(big.Int).Sub(x, p256Params.N)
		return pub, sigOf(r, r)
	}
	panic("no curve point with x in [n, p)")
}

func TestVerifyXAboveN(t *testing.T) {
	pub, sig := xAboveN()
	digest := make([]byte, 32)
	r, s := sigInts(sig)
	if !ecdsa.Verify(ecdsaPub(pub), digest, r, s) {
		t.Fatal("crypto/ecdsa rejects the x(R) = r + n signature")
	}
	if !tableOf(pub).verifyInts(digest, r, s) {
		t.Error("table path rejects the x(R) = r + n signature")
	}
	wrong := new(big.Int).Add(r, big.NewInt(1))
	if tableOf(pub).verifyInts(digest, wrong, s) {
		t.Error("table path accepts r + 1")
	}
}

// TestVerifyRejectsInfinity signs nothing: under the key G, digest n−1
// and r = s = 1 give u1 = n−1 and u2 = 1, so R = (n−1)·G + G = ∞, which
// crypto/ecdsa and the table path must both refuse.
func TestVerifyRejectsInfinity(t *testing.T) {
	pub := keyFromScalar(t, big.NewInt(1)).PubKey()
	digest := scalarBytes(new(big.Int).Sub(p256Params.N, big.NewInt(1)))
	one := big.NewInt(1)
	if ecdsa.Verify(ecdsaPub(pub), digest, one, one) {
		t.Fatal("crypto/ecdsa accepts R = ∞")
	}
	if tableOf(pub).verifyInts(digest, one, one) {
		t.Error("table path accepts R = ∞")
	}
}

// TestKeyCacheSecondSighting checks the cache rule: a key's first
// verification runs crypto/ecdsa and, as it accepts, records the key;
// its second builds the table, later ones reuse it, and every
// verification counts on exactly one path.
func TestKeyCacheSecondSighting(t *testing.T) {
	k := newKey(t)
	digest := sha256.Sum256([]byte("sighting"))
	sig, err := k.Sign(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	c := newKeyCache(maxKeyTables)
	want := []VerifyStats{
		{KeyTables: 0, TableBuilds: 0, TableVerifies: 0, ColdVerifies: 1},
		{KeyTables: 1, TableBuilds: 1, TableVerifies: 1, ColdVerifies: 1},
		{KeyTables: 1, TableBuilds: 1, TableVerifies: 2, ColdVerifies: 1},
	}
	for i, w := range want {
		if !c.verifySig(k.PubKey(), digest[:], sig) {
			t.Fatalf("verification %d rejected a valid signature", i+1)
		}
		if got := c.stats(); got != w {
			t.Errorf("after verification %d: stats %+v, want %+v", i+1, got, w)
		}
	}
}

// TestKeyCacheInvalidSignaturesNeverBuild checks that a signature which
// fails to verify leaves no trace in the cache: under a fresh key it
// costs one crypto/ecdsa verification, as before tables, and neither
// builds a table nor evicts a tabled key at the bound.
func TestKeyCacheInvalidSignaturesNeverBuild(t *testing.T) {
	honest := newKey(t)
	digest := sha256.Sum256([]byte("honest"))
	sig, err := honest.Sign(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	c := newKeyCache(1)
	for i := 0; i < 2; i++ {
		if !c.verifySig(honest.PubKey(), digest[:], sig) {
			t.Fatal("valid signature rejected")
		}
	}
	garbage := sigOf(big.NewInt(1), big.NewInt(1))
	for i := 0; i < 3; i++ {
		fresh := keyFromScalar(t, big.NewInt(int64(77+i))).PubKey()
		for j := 0; j < 2; j++ {
			if c.verifySig(fresh, digest[:], garbage) {
				t.Fatal("garbage signature accepted")
			}
		}
	}
	want := VerifyStats{KeyTables: 1, TableBuilds: 1, TableVerifies: 1, ColdVerifies: 7}
	if got := c.stats(); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
	if !c.verifySig(honest.PubKey(), digest[:], sig) || c.stats().TableVerifies != 2 {
		t.Errorf("honest key no longer verifies through its table: %+v", c.stats())
	}
}

// TestKeyCacheConcurrentAtBound has eight goroutines verify valid and
// invalid signatures under five keys through a cache bounded at two, so
// cold verifications, builds and evictions interleave. Run under -race.
func TestKeyCacheConcurrentAtBound(t *testing.T) {
	const nKeys, bound, goroutines, rounds = 5, 2, 8, 12
	type signed struct {
		pub    *PublicKey
		digest [32]byte
		sig    *Signature
	}
	var set []signed
	for i := 0; i < nKeys; i++ {
		k := keyFromScalar(t, big.NewInt(int64(1000+i)))
		digest := sha256.Sum256([]byte{byte(i)})
		sig, err := k.Sign(digest[:])
		if err != nil {
			t.Fatal(err)
		}
		set = append(set, signed{k.PubKey(), digest, sig})
	}
	c := newKeyCache(bound)
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*rounds*2)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s := set[(g+r)%nKeys]
				if !c.verifySig(s.pub, s.digest[:], s.sig) {
					errs <- fmt.Sprintf("goroutine %d round %d: valid signature rejected", g, r)
				}
				other := set[(g+r+1)%nKeys]
				if c.verifySig(s.pub, other.digest[:], s.sig) {
					errs <- fmt.Sprintf("goroutine %d round %d: signature accepted for another digest", g, r)
				}
				if n := c.stats().KeyTables; n > bound {
					errs <- fmt.Sprintf("cache holds %d tables, bound %d", n, bound)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	st := c.stats()
	if total := st.TableVerifies + st.ColdVerifies; total != goroutines*rounds*2 {
		t.Errorf("%d verifications counted, want %d", total, goroutines*rounds*2)
	}
	if st.TableBuilds == 0 || st.TableVerifies == 0 {
		t.Errorf("no table path exercised: %+v", st)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.keys) > bound {
		t.Errorf("cache remembers %d keys, bound %d", len(c.keys), bound)
	}
}

// TestKeyCacheOneBuildPerKey holds the first build of a recorded key's
// table and verifies under the key from a second goroutine meanwhile:
// that verification must run cold, not build the table a second time.
func TestKeyCacheOneBuildPerKey(t *testing.T) {
	k := newKey(t)
	digest := sha256.Sum256([]byte("one build"))
	sig, err := k.Sign(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	c := newKeyCache(maxKeyTables)
	if !c.verifySig(k.PubKey(), digest[:], sig) {
		t.Fatal("valid signature rejected")
	}
	started, release := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	c.onBuild = func() {
		if held.CompareAndSwap(false, true) {
			close(started)
			<-release
		}
	}
	first := make(chan bool)
	go func() { first <- c.verifySig(k.PubKey(), digest[:], sig) }()
	<-started
	second := make(chan bool)
	go func() { second <- c.verifySig(k.PubKey(), digest[:], sig) }()
	if !<-second {
		t.Error("valid signature rejected while its key's table is built")
	}
	close(release)
	if !<-first {
		t.Error("valid signature rejected by the build's verifier")
	}
	want := VerifyStats{KeyTables: 1, TableBuilds: 1, TableVerifies: 1, ColdVerifies: 2}
	if got := c.stats(); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
}

// FuzzVerifyMatchesStdlib checks that the table verifier and the cache
// in front of it, entered through the raw bytes as VerifyBytes and the
// script engine enter it, return crypto/ecdsa.Verify's verdict on every
// (key, digest, r, s). The inputs choose one of four keys, a digest (padded
// or cut to 32 bytes), and r and s as big-endian values of up to 32
// bytes, so 0, n, and everything up to 2^256 − 1 are reachable. The seed
// corpus in testdata/fuzz holds, for each key, a valid signature, its
// (r, n−s) twin, r taken from another message's signature, and valid
// signatures over the all-zero digest and the digest equal to n; for the
// ordinary key it also holds r or s set to 0, 1, n−1, n, n+1 and 2^256−1;
// for xAboveN's key, its x(R) = r + n signature; for G, an input whose
// R is the point at infinity; and for the ordinary key, valid signatures
// whose e1 or e2, the comb's recoding of u1 or u2, is 0 or n−1.
func FuzzVerifyMatchesStdlib(f *testing.F) {
	// G itself, −G, an ordinary key, and xAboveN's key. One cache serves
	// the whole run, so each key's inputs take the cold path until a
	// valid signature under it (the seed corpus has one per key) has
	// verified, and the table path afterwards.
	var keys []*PublicKey
	for _, d := range []*big.Int{big.NewInt(1), new(big.Int).Sub(p256Params.N, big.NewInt(1)), big.NewInt(0x5eed)} {
		keys = append(keys, keyFromScalar(f, d).PubKey())
	}
	pub, _ := xAboveN()
	keys = append(keys, pub)
	tables := make([]*combTable, len(keys))
	for i, k := range keys {
		tables[i] = tableOf(k)
	}
	cache := newKeyCache(maxKeyTables)

	f.Fuzz(func(t *testing.T, key uint8, digest, rb, sb []byte) {
		i := int(key) % len(keys)
		pub := keys[i]
		d := make([]byte, 32)
		copy(d, digest)
		if len(rb) > 32 {
			rb = rb[:32]
		}
		if len(sb) > 32 {
			sb = sb[:32]
		}
		r, s := new(big.Int).SetBytes(rb), new(big.Int).SetBytes(sb)
		want := ecdsa.Verify(ecdsaPub(pub), d, r, s)
		if got := tables[i].verifyInts(d, r, s); got != want {
			t.Fatalf("key %d digest %x r %x s %x: table path %v, crypto/ecdsa %v", i, d, r, s, got, want)
		}
		der, err := asn1.Marshal(asn1Sig{R: r, S: s})
		if err != nil {
			t.Fatal(err)
		}
		if got := cache.verifyBytes(pub.Serialize(), d, der); got != want {
			t.Fatalf("key %d digest %x r %x s %x: cache %v, crypto/ecdsa %v", i, d, r, s, got, want)
		}
	})
}

// benchSigned returns a serialized key, digest and serialized signature.
func benchSigned(b *testing.B) (pk, digest, sig []byte) {
	k := keyFromScalar(b, big.NewInt(0xbe4c))
	d := sha256.Sum256([]byte("bench"))
	s, err := k.Sign(d[:])
	if err != nil {
		b.Fatal(err)
	}
	return k.PubKey().Serialize(), d[:], s.Serialize()
}

// benchVerify verifies the serialized key and signature through c, as
// the script engine does on a signature-cache miss (VerifyBytes).
func benchVerify(b *testing.B, c *keyCache, pk, digest, sig []byte) {
	if !c.verifyBytes(pk, digest, sig) {
		b.Fatal("valid signature rejected")
	}
}

// BenchmarkVerifyColdKey is a verification under a key not yet tabled:
// crypto/ecdsa.
func BenchmarkVerifyColdKey(b *testing.B) {
	pk, digest, sig := benchSigned(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchVerify(b, newKeyCache(maxKeyTables), pk, digest, sig)
	}
}

// BenchmarkVerifyWarmKey is a verification under a key already tabled.
func BenchmarkVerifyWarmKey(b *testing.B) {
	pk, digest, sig := benchSigned(b)
	c := newKeyCache(maxKeyTables)
	benchVerify(b, c, pk, digest, sig)
	benchVerify(b, c, pk, digest, sig)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchVerify(b, c, pk, digest, sig)
	}
}

// BenchmarkVerifyManyKeys verifies under 256 tabled keys in a shuffled
// order, as a workload's payers do. Their 8 MiB of tables do not stay in
// a core's cache, so a verification here costs more than in
// BenchmarkVerifyWarmKey, where one table stays hot.
func BenchmarkVerifyManyKeys(b *testing.B) {
	const keys = 256
	type signed struct{ pk, digest, sig []byte }
	set := make([]signed, keys)
	c := newKeyCache(maxKeyTables)
	for i := range set {
		k := keyFromScalar(b, big.NewInt(int64(0xbe4c+i)))
		d := sha256.Sum256([]byte{byte(i)})
		sig, err := k.Sign(d[:])
		if err != nil {
			b.Fatal(err)
		}
		set[i] = signed{k.PubKey().Serialize(), d[:], sig.Serialize()}
		benchVerify(b, c, set[i].pk, set[i].digest, set[i].sig)
		benchVerify(b, c, set[i].pk, set[i].digest, set[i].sig)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &set[rng.Intn(keys)]
		benchVerify(b, c, s.pk, s.digest, s.sig)
	}
}

var tableSink *combTable

// BenchmarkBuildKeyTable is the cost a key pays once, when it is seen
// again after a signature under it verified.
func BenchmarkBuildKeyTable(b *testing.B) {
	pub := keyFromScalar(b, big.NewInt(0xbe4c)).PubKey()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tableSink = tableOf(pub)
	}
}
