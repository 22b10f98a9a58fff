package logic

import (
	"fmt"
	"slices"

	"typecoin/internal/lf"
)

// Basis is a Typecoin basis: constant declarations of all three sorts —
// kinds (family constants), types (term constants) and propositions
// (persistent proof constants such as the newcoin merge/split rules).
// It layers over a parent basis; the chain's global basis is the
// accumulation of all prior transactions' local bases (Section 4).
//
// A constant is declared at most once in a chain of layers, whatever its
// sort, so each layer keeps one map and a look-up of any sort (and the
// duplicate check of a declaration) is one walk of the chain. A layer
// that has become a parent is never written again: SubstRef grows the
// global basis by building new layers over shared old ones, so a *Basis
// handed out earlier keeps answering as it did.
type Basis struct {
	parent *Basis
	decls  map[lf.Ref]decl
	// This layer's declarations by sort, in declaration order.
	fams, terms, props []lf.Ref
}

// decl is one declaration c:k, c:tau or c:A; exactly one field is set.
type decl struct {
	kind lf.Kind
	fam  lf.Family
	prop Prop
}

// NewBasis creates an empty basis over parent (which may be nil for the
// built-in globals only).
func NewBasis(parent *Basis) *Basis { return &Basis{parent: parent} }

// lookup resolves r in this layer or the nearest one below declaring it.
func (b *Basis) lookup(r lf.Ref) (decl, bool) {
	for ; b != nil; b = b.parent {
		if d, ok := b.decls[r]; ok {
			return d, true
		}
	}
	return decl{}, false
}

// declare adds r to this layer unless the chain or the built-in globals
// already declare it, in any sort.
func (b *Basis) declare(r lf.Ref, d decl) error {
	_, dup := b.lookup(r)
	_, globalFam := lf.Globals.LookupFamConst(r)
	_, globalTerm := lf.Globals.LookupTermConst(r)
	if dup || globalFam || globalTerm {
		return fmt.Errorf("logic: constant %s already declared", r)
	}
	if b.decls == nil {
		b.decls = make(map[lf.Ref]decl)
	}
	b.decls[r] = d
	switch {
	case d.kind != nil:
		b.fams = append(b.fams, r)
	case d.fam != nil:
		b.terms = append(b.terms, r)
	default:
		b.props = append(b.props, r)
	}
	return nil
}

// DeclareFam declares a family constant c : k.
func (b *Basis) DeclareFam(r lf.Ref, k lf.Kind) error { return b.declare(r, decl{kind: k}) }

// DeclareTerm declares a term constant c : tau.
func (b *Basis) DeclareTerm(r lf.Ref, f lf.Family) error { return b.declare(r, decl{fam: f}) }

// DeclareProp declares a persistent proof constant c : A.
func (b *Basis) DeclareProp(r lf.Ref, a Prop) error { return b.declare(r, decl{prop: a}) }

// LookupFamConst implements lf.Signature.
func (b *Basis) LookupFamConst(r lf.Ref) (lf.Kind, bool) {
	if d, ok := b.lookup(r); ok {
		return d.kind, d.kind != nil
	}
	return lf.Globals.LookupFamConst(r)
}

// LookupTermConst implements lf.Signature.
func (b *Basis) LookupTermConst(r lf.Ref) (lf.Family, bool) {
	if d, ok := b.lookup(r); ok {
		return d.fam, d.fam != nil
	}
	return lf.Globals.LookupTermConst(r)
}

// LookupProp resolves a persistent proof constant.
func (b *Basis) LookupProp(r lf.Ref) (Prop, bool) {
	d, _ := b.lookup(r)
	return d.prop, d.prop != nil
}

// LocalFamRefs, LocalTermRefs and LocalPropRefs expose this layer's
// declarations in declaration order (used by the canonical encoder, the
// freshness check and [txid/this] accumulation). The slices are the
// layer's own: callers read them and do not write them.
func (b *Basis) LocalFamRefs() []lf.Ref { return b.fams }

// LocalTermRefs lists term-constant declarations in this layer.
func (b *Basis) LocalTermRefs() []lf.Ref { return b.terms }

// LocalPropRefs lists proof-constant declarations in this layer.
func (b *Basis) LocalPropRefs() []lf.Ref { return b.props }

// LocalFam returns the kind declared for r in this layer.
func (b *Basis) LocalFam(r lf.Ref) (lf.Kind, bool) {
	d := b.decls[r]
	return d.kind, d.kind != nil
}

// LocalTerm returns the family declared for r in this layer.
func (b *Basis) LocalTerm(r lf.Ref) (lf.Family, bool) {
	d := b.decls[r]
	return d.fam, d.fam != nil
}

// LocalProp returns the proposition declared for r in this layer.
func (b *Basis) LocalProp(r lf.Ref) (Prop, bool) {
	d := b.decls[r]
	return d.prop, d.prop != nil
}

// Depth reports how many layers a look-up that misses visits.
func (b *Basis) Depth() int {
	n := 0
	for ; b != nil; b = b.parent {
		n++
	}
	return n
}

// Rebase returns a basis answering for parent's declarations and this
// basis's local ones, checked for duplicates against parent. CheckTx uses
// it to see a transaction's local basis (shipped standalone) over the
// verifier's global basis. A basis declaring nothing rebases to parent
// itself.
func (b *Basis) Rebase(parent *Basis) (*Basis, error) {
	return b.over(parent, func(r lf.Ref, d decl) (lf.Ref, decl) { return r, d })
}

// SubstRef returns parent extended by this basis's local declarations
// with this.l references (including the declared names themselves)
// replaced by txid.l: the accumulation step of chain formation. parent is
// not modified. A basis declaring nothing leaves parent as it is; a
// declaring one becomes a new layer, merged with the layers below it
// while they are less than twice its size, so that every layer is at
// least twice the one above it and n declarations sit in at most
// log2(n+1) layers, each copied O(log n) times over the chain's life.
func (b *Basis) SubstRef(txid lf.Ref, parent *Basis) (*Basis, error) {
	out, err := b.over(parent, func(r lf.Ref, d decl) (lf.Ref, decl) {
		if r.Kind == lf.RefThis {
			r = lf.Ref{Kind: txid.Kind, Tx: txid.Tx, Label: r.Label}
		}
		switch {
		case d.kind != nil:
			d.kind = lf.SubstRefKind(d.kind, txid)
		case d.fam != nil:
			d.fam = lf.SubstRefFamily(d.fam, txid)
		default:
			d.prop = SubstRefProp(d.prop, txid)
		}
		return r, d
	})
	if err != nil || out == parent {
		return out, err
	}
	// out is not shared yet, so the layers below fold into it in place.
	for p := out.parent; p != nil && len(p.decls) < 2*len(out.decls); p = out.parent {
		for r, d := range p.decls {
			out.decls[r] = d
		}
		out.fams = slices.Concat(p.fams, out.fams)
		out.terms = slices.Concat(p.terms, out.terms)
		out.props = slices.Concat(p.props, out.props)
		out.parent = p.parent
	}
	return out, nil
}

// over declares this layer's declarations, each passed through f, in a
// new layer over parent. With nothing to declare it returns parent.
func (b *Basis) over(parent *Basis, f func(lf.Ref, decl) (lf.Ref, decl)) (*Basis, error) {
	if len(b.decls) == 0 && parent != nil {
		return parent, nil
	}
	out := NewBasis(parent)
	for _, refs := range [][]lf.Ref{b.fams, b.terms, b.props} {
		for _, r := range refs {
			if err := out.declare(f(r, b.decls[r])); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
