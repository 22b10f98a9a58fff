// Quickstart: the paper's running example (Section 2). Alice grants Bob
// a single-use may-write credential as an affine resource; Bob commits to
// one specific write by infusing the fileserver's nonce; the fileserver
// verifies the claim trust-free; and the spent credential cannot be used
// again.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"typecoin/internal/client"
	"typecoin/internal/demo"
	"typecoin/internal/lf"
	"typecoin/internal/logic"
	"typecoin/internal/node"
	"typecoin/internal/proof"
	"typecoin/internal/surface"
	"typecoin/internal/testutil"
	"typecoin/internal/typecoin"
	"typecoin/internal/wire"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- A single-node regtest network with a funded wallet. ---
	clk := node.SimClock()
	nd, err := node.Open(node.Config{Clock: clk, Entropy: testutil.NewEntropy("quickstart")})
	if err != nil {
		return err
	}
	defer nd.Close()
	params, w := nd.Chain.Params(), nd.Wallet
	minerKey, err := w.NewKey()
	if err != nil {
		return err
	}
	mine := func(n int) error {
		for i := 0; i < n; i++ {
			clk.Advance(params.TargetSpacing)
			if _, _, err := nd.Miner.Mine(minerKey); err != nil {
				return err
			}
		}
		return nil
	}
	if err := mine(params.CoinbaseMaturity + 1); err != nil {
		return err
	}
	cl := client.New(nd.Chain, nd.Pool, w, nd.Ledger)

	alice, err := w.NewKey()
	if err != nil {
		return err
	}
	aliceKey, err := w.Key(alice)
	if err != nil {
		return err
	}
	bob, err := w.NewKey()
	if err != nil {
		return err
	}
	bobKey, err := w.Key(bob)
	if err != nil {
		return err
	}
	fmt.Println("Alice:", alice)
	fmt.Println("Bob:  ", bob)

	// --- T1: Alice issues the affine credential. ---
	t1 := typecoin.NewTx()
	b := t1.Basis
	if err := b.DeclareFam(lf.This("may-write"), lf.KArrow(lf.PrincipalFam, lf.KProp{})); err != nil {
		return err
	}
	if err := b.DeclareFam(lf.This("may-write-this"),
		lf.KArrow(lf.PrincipalFam, lf.KArrow(lf.NatFam, lf.KProp{}))); err != nil {
		return err
	}
	// use : all K. <Alice>(may-write K) -o may-write K
	use := logic.Forall("K", lf.PrincipalFam,
		logic.Lolli(
			logic.Says(lf.Principal(alice), logic.Atom(lf.This("may-write"), lf.Var(0, "K"))),
			logic.Atom(lf.This("may-write"), lf.Var(0, "K"))))
	if err := b.DeclareProp(lf.This("use"), use); err != nil {
		return err
	}
	// commit : all K. all n. may-write K -o may-write-this K n
	commit := logic.Forall("K", lf.PrincipalFam, logic.Forall("n", lf.NatFam,
		logic.Lolli(
			logic.Atom(lf.This("may-write"), lf.Var(1, "K")),
			logic.Atom(lf.This("may-write-this"), lf.Var(1, "K"), lf.Var(0, "n")))))
	if err := b.DeclareProp(lf.This("commit"), commit); err != nil {
		return err
	}
	credential := logic.Atom(lf.This("may-write"), lf.Principal(bob))
	t1.Outputs = []typecoin.Output{{Type: credential, Amount: 10_000, Owner: bobKey.PubKey()}}

	fmt.Println("\nAlice issues the affine credential:")
	fmt.Println("   ", surface.PrintProp(credential))

	sig, err := proof.SignAffine(aliceKey, credential, t1.SigPayload())
	if err != nil {
		return err
	}
	t1.Proof = demo.WithDomain(t1.Domain(),
		proof.Apply(
			proof.TApp{Fn: proof.Const{Ref: lf.This("use")}, Arg: lf.Principal(bob)},
			proof.Assert{Key: aliceKey.PubKey(), Prop: credential, Sig: sig}))

	carrier1, err := cl.Submit(t1)
	if err != nil {
		return err
	}
	if err := mine(1); err != nil {
		return err
	}
	fmt.Println("  carried by", carrier1.TxHash())

	credOut := wire.OutPoint{Hash: carrier1.TxHash(), Index: 0}
	credGlobal := logic.SubstRefProp(credential, lf.TxRef(carrier1.TxHash(), ""))

	// --- The fileserver issues a nonce; Bob commits to the write. ---
	const nonce = 48879
	fmt.Printf("\nThe fileserver challenges Bob with nonce %d.\n", nonce)
	t2 := typecoin.NewTx()
	t2.Inputs = []typecoin.Input{{Source: credOut, Type: credGlobal, Amount: 10_000}}
	committed := logic.Atom(lf.TxRef(carrier1.TxHash(), "may-write-this"),
		lf.Principal(bob), lf.Nat(nonce))
	t2.Outputs = []typecoin.Output{{Type: committed, Amount: 10_000, Owner: bobKey.PubKey()}}
	t2.Proof = demo.WithDomain(t2.Domain(),
		proof.Apply(
			proof.TApply(proof.Const{Ref: lf.TxRef(carrier1.TxHash(), "commit")},
				lf.Principal(bob), lf.Nat(nonce)),
			proof.V("a")))
	carrier2, err := cl.Submit(t2)
	if err != nil {
		return err
	}
	if err := mine(1); err != nil {
		return err
	}
	fmt.Println("Bob converts his credential:")
	fmt.Println("   ", surface.PrintProp(committed))
	fmt.Println("  carried by", carrier2.TxHash())

	// --- The fileserver verifies trust-free. ---
	commitOut := wire.OutPoint{Hash: carrier2.TxHash(), Index: 0}
	if err := cl.VerifyClaim(commitOut, committed); err != nil {
		return fmt.Errorf("fileserver verification failed: %w", err)
	}
	fmt.Println("\nThe fileserver verified Bob's commitment (upstream set re-checked). Write performed.")

	// --- The credential is spent: a second use fails. ---
	if err := cl.VerifyClaim(credOut, credGlobal); err != nil {
		fmt.Println("Replaying the spent credential fails, as it must:")
		fmt.Println("   ", err)
	} else {
		return fmt.Errorf("spent credential verified: affine invariant broken")
	}
	return nil
}
