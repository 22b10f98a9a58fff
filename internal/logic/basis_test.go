package logic

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"typecoin/internal/chainhash"
	"typecoin/internal/lf"
)

// refChain is the accumulation SubstRef is checked against: one layer per
// push, empty or not, and every look-up a walk of all of them.
type refChain struct {
	parent *refChain
	fams   map[lf.Ref]lf.Kind
	terms  map[lf.Ref]lf.Family
	props  map[lf.Ref]Prop
}

func (c *refChain) fam(r lf.Ref) (lf.Kind, bool) {
	for ; c != nil; c = c.parent {
		if k, ok := c.fams[r]; ok {
			return k, true
		}
	}
	return lf.Globals.LookupFamConst(r)
}

func (c *refChain) term(r lf.Ref) (lf.Family, bool) {
	for ; c != nil; c = c.parent {
		if f, ok := c.terms[r]; ok {
			return f, true
		}
	}
	return lf.Globals.LookupTermConst(r)
}

func (c *refChain) prop(r lf.Ref) (Prop, bool) {
	for ; c != nil; c = c.parent {
		if p, ok := c.props[r]; ok {
			return p, true
		}
	}
	return nil, false
}

func (c *refChain) has(r lf.Ref) bool {
	_, f := c.fam(r)
	_, t := c.term(r)
	_, p := c.prop(r)
	return f || t || p
}

// testDecl is one declaration of a generated local basis.
type testDecl struct {
	ref  lf.Ref
	sort int // 0 family, 1 term, 2 proposition
	kind lf.Kind
	fam  lf.Family
	prop Prop
}

// push layers decls over c with this.l renamed to txid.l, refusing a
// constant any layer below (or the globals) already declares.
func (c *refChain) push(txid chainhash.Hash, decls []testDecl) (*refChain, bool) {
	out := &refChain{parent: c, fams: map[lf.Ref]lf.Kind{}, terms: map[lf.Ref]lf.Family{}, props: map[lf.Ref]Prop{}}
	for _, d := range decls {
		r := d.ref
		if r.Kind == lf.RefThis {
			r = lf.TxRef(txid, r.Label)
		}
		if out.has(r) {
			return c, false
		}
		switch d.sort {
		case 0:
			out.fams[r] = d.kind
		case 1:
			out.terms[r] = d.fam
		default:
			out.props[r] = d.prop
		}
	}
	return out, true
}

// agree compares every look-up of got and want on refs.
func agree(t *testing.T, when string, got *Basis, want *refChain, refs []lf.Ref) {
	t.Helper()
	for _, r := range refs {
		gk, gok := got.LookupFamConst(r)
		wk, wok := want.fam(r)
		if gok != wok || !reflect.DeepEqual(gk, wk) {
			t.Fatalf("%s: LookupFamConst(%s) = %v, %v; want %v, %v", when, r, gk, gok, wk, wok)
		}
		gf, gok := got.LookupTermConst(r)
		wf, wok := want.term(r)
		if gok != wok || !reflect.DeepEqual(gf, wf) {
			t.Fatalf("%s: LookupTermConst(%s) = %v, %v; want %v, %v", when, r, gf, gok, wf, wok)
		}
		gp, gok := got.LookupProp(r)
		wp, wok := want.prop(r)
		if gok != wok || !reflect.DeepEqual(gp, wp) {
			t.Fatalf("%s: LookupProp(%s) = %v, %v; want %v, %v", when, r, gp, gok, wp, wok)
		}
	}
}

// TestSubstRefAgainstParentChain drives seeded sequences of empty and
// declaring local bases through SubstRef and through refChain. Hits,
// misses and refused redeclarations agree after every push, the depth
// stays logarithmic, an empty push returns its parent, and every basis
// handed out on the way still answers at the end as it did then.
func TestSubstRefAgainstParentChain(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			global, ref := NewBasis(nil), (*refChain)(nil)
			// Probes that are never declared, and the built-ins.
			refs := []lf.Ref{lf.This("coin"), lf.Global("nat"), lf.Global("add"), lf.Global("nothing"),
				lf.TxRef(chainhash.HashB([]byte("nobody")), "l0")}
			var declared []lf.Ref
			type snapshot struct {
				got  *Basis
				want *refChain
			}
			var snaps []snapshot
			total := 0
			for step := 0; step < 400; step++ {
				txid := chainhash.HashB([]byte(fmt.Sprint(seed, "/", step)))
				var decls []testDecl
				local := NewBasis(nil)
				if rng.Intn(2) == 0 {
					n := 1 + rng.Intn(3)
					if rng.Intn(10) == 0 {
						n = 1 + rng.Intn(40) // now and then a layer larger than those below
					}
					inLayer := make(map[lf.Ref]bool)
					for i := 0; i < n; i++ {
						d := testDecl{ref: lf.This(fmt.Sprint("l", i)), sort: rng.Intn(3),
							kind: []lf.Kind{lf.KType{}, lf.KProp{}}[rng.Intn(2)],
							fam:  []lf.Family{lf.NatFam, lf.PrincipalFam}[rng.Intn(2)],
							prop: []Prop{One, Zero}[rng.Intn(2)]}
						// Redeclare a constant of some earlier layer, or a built-in.
						if len(declared) > 0 && rng.Intn(12) == 0 {
							d.ref = declared[rng.Intn(len(declared))]
						} else if rng.Intn(60) == 0 {
							d.ref = lf.Global("nat")
						}
						var err error
						switch d.sort {
						case 0:
							err = local.DeclareFam(d.ref, d.kind)
						case 1:
							err = local.DeclareTerm(d.ref, d.fam)
						default:
							err = local.DeclareProp(d.ref, d.prop)
						}
						// A local basis refuses a built-in and a repeat within
						// itself; everything else is for the push to judge.
						if refused := d.ref.Kind == lf.RefGlobal || inLayer[d.ref]; refused != (err != nil) {
							t.Fatalf("step %d: local declaration of %s: %v", step, d.ref, err)
						} else if !refused {
							inLayer[d.ref] = true
							decls = append(decls, d)
						}
					}
				}
				next, err := local.SubstRef(lf.TxRef(txid, ""), global)
				wantNext, ok := ref.push(txid, decls)
				if (err == nil) != ok {
					t.Fatalf("step %d: SubstRef error %v, reference accepted %v", step, err, ok)
				}
				if len(decls) == 0 && next != global {
					t.Fatalf("step %d: an empty push returned a new basis", step)
				}
				if err == nil {
					global, ref = next, wantNext
					total += len(decls)
					for _, d := range decls {
						r := d.ref
						if r.Kind == lf.RefThis {
							r = lf.TxRef(txid, r.Label)
						}
						declared = append(declared, r)
					}
				}
				// Every constant now and then, the newest and a sample each step.
				check := append(refs, declared...)
				if step%50 != 0 {
					check = append(refs, declared[max(0, len(declared)-len(decls)-8):]...)
					for i := 0; i < 24 && len(declared) > 0; i++ {
						check = append(check, declared[rng.Intn(len(declared))])
					}
				}
				agree(t, fmt.Sprint("step ", step), global, ref, check)
				// floor(log2(n+1)) layers, which is within the ceil(log2 n)+1
				// the design asks for; the empty root counts while n is 0.
				if bound := max(bits.Len(uint(total+1))-1, 1); global.Depth() > bound {
					t.Fatalf("step %d: depth %d with %d declarations, bound %d", step, global.Depth(), total, bound)
				}
				if step%40 == 0 {
					snaps = append(snaps, snapshot{global, ref})
				}
			}
			if total < 200 {
				t.Fatalf("only %d declarations were pushed", total)
			}
			for i, s := range snaps {
				agree(t, fmt.Sprint("snapshot ", i, " at the end"), s.got, s.want, append(refs, declared...))
			}
		})
	}
}

// TestRebaseEmptyIsParent pins the other half of the empty-layer rule: a
// transaction declaring nothing is checked against the global basis
// itself, not against a new layer over it.
func TestRebaseEmptyIsParent(t *testing.T) {
	parent := newcoinBasis(t)
	got, err := NewBasis(nil).Rebase(parent)
	if err != nil || got != parent {
		t.Fatalf("Rebase of an empty basis = %p, %v; want the parent %p", got, err, parent)
	}
}
