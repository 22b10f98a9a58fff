// Options: Section 5's financial contracts. Alice sells an option on a
// commodity:
//
//	receipt(payment ->> Alice) -o if(before(t), commodity)
//
// — the buyer may exercise until time t, after which the conditional is
// worthless. Alice's offer is also revocable via ~spent(R). Because a
// conditional transaction that misses its window SPOILS its inputs, the
// exerciser attaches a fallback transaction that returns everything to
// its owners (the carrier commits to the whole fallback list).
//
// Run with: go run ./examples/options
package main

import (
	"fmt"
	"log"
	"time"

	"typecoin/internal/demo"
	"typecoin/internal/lf"
	"typecoin/internal/logic"
	"typecoin/internal/proof"
	"typecoin/internal/script"
	"typecoin/internal/surface"
	"typecoin/internal/typecoin"
	"typecoin/internal/wallet"
	"typecoin/internal/wire"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	env, err := demo.NewEnv("options")
	if err != nil {
		return err
	}
	cl := env.Client

	alice, aliceKey, err := env.NewActor()
	if err != nil {
		return err
	}
	_, buyerKey, err := env.NewActor()
	if err != nil {
		return err
	}

	// Revocation anchor R, controlled by Alice.
	anchorTx, err := env.Wallet.Build([]wallet.Output{
		{Value: 5_000, PkScript: script.PayToPubKeyHash(alice)},
	}, wallet.BuildOptions{})
	if err != nil {
		return err
	}
	if _, err := env.Pool.Accept(anchorTx); err != nil {
		return err
	}
	if err := env.Mine(1); err != nil {
		return err
	}
	anchor := wire.OutPoint{Hash: anchorTx.TxHash(), Index: 0}

	// --- T0: Alice publishes the contract basis and issues two option
	// tokens (one exercised in time, one too late). ---
	expiry := env.Now() + 3*600 // three block intervals from now
	t0 := typecoin.NewTx()
	if err := t0.Basis.DeclareFam(lf.This("option"), lf.KProp{}); err != nil {
		return err
	}
	if err := t0.Basis.DeclareFam(lf.This("commodity"), lf.KProp{}); err != nil {
		return err
	}
	option := logic.Atom(lf.This("option"))
	commodity := logic.Atom(lf.This("commodity"))
	const paymentSat = 25_000
	// exercise : option -o receipt(1/payment ->> Alice)
	//            -o if(before(expiry) /\ ~spent(R), commodity)
	phi := logic.And(logic.Before(expiry), logic.Unspent(anchor))
	exercise := logic.Lolli(option,
		logic.Receipt(logic.One, paymentSat, lf.Principal(alice)),
		logic.If(phi, commodity))
	if err := t0.Basis.DeclareProp(lf.This("exercise"), exercise); err != nil {
		return err
	}
	t0.Grant = logic.Tensor(option, option)
	t0.Outputs = []typecoin.Output{
		{Type: option, Amount: 10_000, Owner: buyerKey.PubKey()},
		{Type: option, Amount: 10_000, Owner: buyerKey.PubKey()},
	}
	t0.Proof = demo.ProjectGrant(t0.Domain())
	carrier0, err := cl.Submit(t0)
	if err != nil {
		return err
	}
	if err := env.Mine(1); err != nil {
		return err
	}
	t0id := carrier0.TxHash()
	optionG := logic.Atom(lf.TxRef(t0id, "option"))
	commodityG := logic.Atom(lf.TxRef(t0id, "commodity"))
	fmt.Println("Alice sold two option tokens under the contract:")
	fmt.Println("   ", surface.PrintProp(
		logic.SubstRefProp(exercise, lf.TxRef(t0id, ""))))
	fmt.Printf("  (expiry t=%d, revocable via %s)\n", expiry, anchor)

	// exerciseTx builds the exercising transaction for option output idx,
	// with a fallback that simply returns the option to the buyer.
	exerciseTx := func(idx uint32) (*typecoin.FallbackList, *wire.MsgTx, error) {
		op := wire.OutPoint{Hash: t0id, Index: idx}
		primary := typecoin.NewTx()
		primary.Inputs = []typecoin.Input{{Source: op, Type: optionG, Amount: 10_000}}
		primary.Outputs = []typecoin.Output{
			{Type: commodityG, Amount: 10_000, Owner: buyerKey.PubKey()},
			{Type: logic.One, Amount: paymentSat, Owner: aliceKey.PubKey()},
		}
		primary.Proof = demo.WithDomain(primary.Domain(),
			proof.LetPair{LName: "rc", RName: "rpay", Of: proof.V("r"),
				Body: proof.IfBind{Name: "v",
					Of: proof.Apply(proof.Const{Ref: lf.TxRef(t0id, "exercise")},
						proof.V("a"), proof.V("rpay")),
					Body: proof.IfReturn{Cond: phi,
						Of: proof.Pair{L: proof.V("v"), R: proof.Unit{}}}}})
		// Fallback: same carrier shape (same inputs, owners, amounts),
		// but merely returns the option to the buyer and the payment
		// value to Alice as plain bitcoin.
		fallback := typecoin.NewTx()
		fallback.Inputs = primary.Inputs
		fallback.Outputs = []typecoin.Output{
			{Type: optionG, Amount: 10_000, Owner: buyerKey.PubKey()},
			{Type: logic.One, Amount: paymentSat, Owner: aliceKey.PubKey()},
		}
		fallback.Proof = demo.WithDomain(fallback.Domain(),
			proof.Pair{L: proof.V("a"), R: proof.Unit{}})
		list := &typecoin.FallbackList{Txs: []*typecoin.Tx{primary, fallback}}
		if err := list.Validate(); err != nil {
			return nil, nil, err
		}
		outs, err := typecoin.CarrierOutputsList(list)
		if err != nil {
			return nil, nil, err
		}
		outputs := make([]wallet.Output, len(outs))
		for i, o := range outs {
			outputs[i] = wallet.Output{Value: o.Value, PkScript: o.PkScript}
		}
		carrier, err := env.Wallet.Build(outputs, wallet.BuildOptions{
			ExtraInputs: []wire.OutPoint{op},
		})
		if err != nil {
			return nil, nil, err
		}
		if err := typecoin.VerifyListEmbedding(list, list.Hash(), carrier); err != nil {
			return nil, nil, err
		}
		if _, err := env.Pool.Accept(carrier); err != nil {
			return nil, nil, err
		}
		cl.Ledger.AnnounceList(list)
		return list, carrier, nil
	}

	// --- The buyer exercises the first option in time. ---
	_, carrier1, err := exerciseTx(0)
	if err != nil {
		return fmt.Errorf("exercise: %w", err)
	}
	if err := env.Mine(1); err != nil {
		return err
	}
	if !cl.Ledger.Applied(carrier1.TxHash()) {
		return fmt.Errorf("timely exercise not applied")
	}
	got, _ := cl.Ledger.ResolveOutput(wire.OutPoint{Hash: carrier1.TxHash(), Index: 0})
	fmt.Println("\nThe buyer exercised option #0 in time and received:", surface.PrintProp(got))

	// --- Time passes; the second option expires. ---
	for env.Now() < expiry {
		env.Clock.Advance(10 * time.Minute)
	}
	if err := env.Mine(1); err != nil { // a block whose timestamp is past expiry
		return err
	}
	fmt.Printf("\nTime advanced past the expiry (now=%d > t=%d).\n", env.Now(), expiry)

	_, carrier2, err := exerciseTx(1)
	if err != nil {
		return fmt.Errorf("late exercise: %w", err)
	}
	if err := env.Mine(1); err != nil {
		return err
	}
	if !cl.Ledger.Applied(carrier2.TxHash()) {
		return fmt.Errorf("late exercise carrier not applied at all")
	}
	// The primary was invalid (expired); the FALLBACK was selected, so
	// the buyer keeps the option token instead of losing it.
	salvaged := wire.OutPoint{Hash: carrier2.TxHash(), Index: 0}
	gotLate, ok := cl.Ledger.ResolveOutput(salvaged)
	if !ok {
		return fmt.Errorf("fallback output missing")
	}
	if eq, _ := logic.PropEqual(gotLate, optionG); !eq {
		return fmt.Errorf("fallback produced %s, want the returned option", gotLate)
	}
	fmt.Println("The late exercise missed the window: the primary transaction was invalid,")
	fmt.Println("and the FALLBACK transaction returned the (expired) option to the buyer:")
	fmt.Println("   ", surface.PrintProp(gotLate), "at", salvaged)
	fmt.Println("\nWithout the fallback, the option token would have been spoiled (Section 5).")
	return nil
}
