package lf

import "fmt"

// Signature resolves constants to their classifiers. The logic package's
// Basis implements this interface (adding proposition-sorted constants,
// which LF itself does not know about).
type Signature interface {
	// LookupFamConst returns the kind of a family constant.
	LookupFamConst(Ref) (Kind, bool)
	// LookupTermConst returns the type of a term constant.
	LookupTermConst(Ref) (Family, bool)
}

// globalSig carries the built-in constants.
type globalSig struct{}

// Globals is the signature of built-in constants: principal, nat, add,
// plus, plus_intro.
var Globals Signature = globalSig{}

func (globalSig) LookupFamConst(r Ref) (Kind, bool) {
	if r.Kind != RefGlobal {
		return nil, false
	}
	switch r.Label {
	case "principal", "nat":
		return KType{}, true
	case "plus":
		// plus : nat -> nat -> nat -> type
		return KArrow(NatFam, KArrow(NatFam, KArrow(NatFam, KType{}))), true
	}
	return nil, false
}

func (globalSig) LookupTermConst(r Ref) (Family, bool) {
	if r.Kind != RefGlobal {
		return nil, false
	}
	switch r.Label {
	case "add":
		// add : nat -> nat -> nat
		return Arrow(NatFam, Arrow(NatFam, NatFam)), true
	case "plus_intro":
		// plus_intro : Pi n:nat. Pi m:nat. plus n m (add n m)
		return Pi("n", NatFam,
			Pi("m", NatFam,
				FamApp(PlusFam, Var(1, "n"), Var(0, "m"), Add(Var(1, "n"), Var(0, "m"))))), true
	}
	return nil, false
}

// Basis is a concrete, extendable signature: one layer of family and
// term constant declarations over a parent signature. (The Typecoin
// bases, which add proposition-sorted constants and accumulate into the
// chain's global basis, are logic.Basis.)
type Basis struct {
	parent Signature
	fams   map[Ref]Kind
	terms  map[Ref]Family
}

// NewBasis creates an empty basis over parent (Globals when nil).
func NewBasis(parent Signature) *Basis {
	if parent == nil {
		parent = Globals
	}
	return &Basis{
		parent: parent,
		fams:   make(map[Ref]Kind),
		terms:  make(map[Ref]Family),
	}
}

// DeclareFam adds a family constant declaration.
func (b *Basis) DeclareFam(r Ref, k Kind) error {
	if b.has(r) {
		return fmt.Errorf("lf: constant %s already declared", r)
	}
	b.fams[r] = k
	return nil
}

// DeclareTerm adds a term constant declaration.
func (b *Basis) DeclareTerm(r Ref, f Family) error {
	if b.has(r) {
		return fmt.Errorf("lf: constant %s already declared", r)
	}
	b.terms[r] = f
	return nil
}

func (b *Basis) has(r Ref) bool {
	_, fam := b.LookupFamConst(r)
	_, term := b.LookupTermConst(r)
	return fam || term
}

// LookupFamConst implements Signature.
func (b *Basis) LookupFamConst(r Ref) (Kind, bool) {
	if k, ok := b.fams[r]; ok {
		return k, true
	}
	return b.parent.LookupFamConst(r)
}

// LookupTermConst implements Signature.
func (b *Basis) LookupTermConst(r Ref) (Family, bool) {
	if f, ok := b.terms[r]; ok {
		return f, true
	}
	return b.parent.LookupTermConst(r)
}
