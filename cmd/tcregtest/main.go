// Command tcregtest runs a self-contained three-node regtest network and
// replays the paper's homework scenario across it: node A mines and
// issues the credential, the transactions gossip to nodes B and C, and
// every node's view converges. The Typecoin transactions travel on a
// gossip overlay alongside the Bitcoin traffic (the chain itself still
// sees only their hashes), so every interested party can interpret the
// carriers it observes.
//
// Run with: go run ./cmd/tcregtest
package main

import (
	"fmt"
	"log"
	"time"

	"typecoin/internal/lf"
	"typecoin/internal/logic"
	"typecoin/internal/node"
	"typecoin/internal/p2p"
	"typecoin/internal/proof"
	"typecoin/internal/surface"
	"typecoin/internal/testutil"
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
	clk := node.SimClock()
	// Every node has the Typecoin overlay on: announcements gossip with
	// the Bitcoin traffic. Only node A's wallet makes keys.
	var nodes [3]*node.Node
	for i := range nodes {
		nd, err := node.Open(node.Config{Clock: clk, Entropy: testutil.NewEntropy("tcregtest")})
		if err != nil {
			return err
		}
		defer nd.Close()
		nodes[i] = nd
	}
	a, b, c := nodes[0], nodes[1], nodes[2]
	// Line topology: A - B - C.
	p2p.ConnectPipe(a.P2P, b.P2P)
	p2p.ConnectPipe(b.P2P, c.P2P)
	fmt.Println("Started 3-node regtest network: A - B - C")

	params, w := a.Chain.Params(), a.Wallet
	minerKey, err := w.NewKey()
	if err != nil {
		return err
	}
	mine := func(n int) error {
		for i := 0; i < n; i++ {
			clk.Advance(params.TargetSpacing)
			blk, _, err := a.Miner.Mine(minerKey)
			if err != nil {
				return err
			}
			a.P2P.BroadcastBlock(blk)
		}
		return nil
	}
	waitSync := func() error {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if a.Chain.BestHash() == b.Chain.BestHash() &&
				b.Chain.BestHash() == c.Chain.BestHash() {
				return nil
			}
			time.Sleep(2 * time.Millisecond)
		}
		return fmt.Errorf("nodes did not converge")
	}

	if err := mine(params.CoinbaseMaturity + 1); err != nil {
		return err
	}
	if err := waitSync(); err != nil {
		return err
	}
	fmt.Printf("Node A mined %d blocks; all nodes at height %d.\n",
		params.CoinbaseMaturity+1, c.Chain.BestHeight())

	// Alice issues Bob's may-write credential on node A.
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

	t1 := typecoin.NewTx()
	if err := t1.Basis.DeclareFam(lf.This("may-write"),
		lf.KArrow(lf.PrincipalFam, lf.KProp{})); err != nil {
		return err
	}
	use := logic.Forall("K", lf.PrincipalFam,
		logic.Lolli(
			logic.Says(lf.Principal(alice), logic.Atom(lf.This("may-write"), lf.Var(0, "K"))),
			logic.Atom(lf.This("may-write"), lf.Var(0, "K"))))
	if err := t1.Basis.DeclareProp(lf.This("use"), use); err != nil {
		return err
	}
	credential := logic.Atom(lf.This("may-write"), lf.Principal(bob))
	t1.Outputs = []typecoin.Output{{Type: credential, Amount: 10_000, Owner: bobKey.PubKey()}}
	sig, err := proof.SignAffine(aliceKey, credential, t1.SigPayload())
	if err != nil {
		return err
	}
	t1.Proof = proof.Lam{Name: "d", Ty: t1.Domain(),
		Body: proof.Apply(
			proof.TApp{Fn: proof.Const{Ref: lf.This("use")}, Arg: lf.Principal(bob)},
			proof.Assert{Key: aliceKey.PubKey(), Prop: credential, Sig: sig})}

	carrierOuts, err := typecoin.CarrierOutputs(t1)
	if err != nil {
		return err
	}
	outputs := make([]wallet.Output, len(carrierOuts))
	for i, o := range carrierOuts {
		outputs[i] = wallet.Output{Value: o.Value, PkScript: o.PkScript}
	}
	carrier, err := w.Build(outputs, wallet.BuildOptions{})
	if err != nil {
		return err
	}
	if err := a.P2P.BroadcastTx(carrier); err != nil {
		return err
	}
	// The Typecoin transaction itself travels on the overlay: one
	// broadcast reaches every interested party.
	a.P2P.BroadcastTypecoinTx(t1)
	if err := mine(1); err != nil {
		return err
	}
	if err := waitSync(); err != nil {
		return err
	}
	fmt.Printf("\nAlice issued %s\n  carried by %s; the typecoin tx gossiped on the overlay.\n",
		surface.PrintProp(credential), carrier.TxHash())

	op := wire.OutPoint{Hash: carrier.TxHash(), Index: 0}
	credG := logic.SubstRefProp(credential, lf.TxRef(carrier.TxHash(), ""))
	for i, name := range []string{"A", "B", "C"} {
		got, ok := nodes[i].Ledger.ResolveOutput(op)
		if !ok {
			return fmt.Errorf("node %s: credential not applied", name)
		}
		eq, err := logic.PropEqual(got, credG)
		if err != nil || !eq {
			return fmt.Errorf("node %s: wrong type %s", name, got)
		}
		fmt.Printf("Node %s resolves %s -> %s\n", name, op, surface.PrintProp(got))
	}

	// Node C (which never spoke to node A directly) verifies trust-free.
	bundles, err := c.Ledger.UpstreamBundles(op)
	if err != nil {
		return err
	}
	if _, err := typecoin.Verify(c.Chain, op, credG, bundles, 1); err != nil {
		return fmt.Errorf("node C verification: %w", err)
	}
	fmt.Println("\nNode C verified Bob's credential trust-free against its own chain copy.")
	fmt.Println("Ledger state is consistent across the network. Done.")
	return nil
}
