package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// plain_pay sizes. A round is plainPayments P2PKH payments then one mined
// block; the coin population is twice what a round spends.
const (
	plainPayments = 200
	plainCoins    = 1024
	plainKeys     = 256
	plainRounds   = 27
	plainWarmup   = 16
)

// fileWorld is one node on a file store in a scratch directory, and the
// writer against it.
type fileWorld struct {
	baseWorld
	dir string
	n   *node
	w   *writer
	tr  *tracer
}

func (f *fileWorld) nodes() []*node { return []*node{f.n} }

func (f *fileWorld) close() error {
	err := f.n.close()
	removeTempDir(f.dir)
	return err
}

func openFileWorld(name string, cfg runConfig) (fileWorld, error) {
	dir, err := tempDir(name)
	if err != nil {
		return fileWorld{}, err
	}
	n, err := openNode(dir, newClock(), rand.New(rand.NewSource(cfg.seed^0x5eed)), cfg.tr)
	if err != nil {
		removeTempDir(dir)
		return fileWorld{}, err
	}
	return fileWorld{dir: dir, n: n, w: &writer{n: n, tr: cfg.tr}, tr: cfg.tr}, nil
}

// singleWorld is a file world with the payment generator. plain_pay is
// exactly this; query_mix builds on it.
type singleWorld struct {
	fileWorld
	payer *payer
	// payments per round.
	perRound int
}

// openSingle composes a file-backed node and its funded payer.
func openSingle(name string, cfg runConfig, coins, perRound int, zipf bool) (*singleWorld, error) {
	fw, err := openFileWorld(name, cfg)
	if err != nil {
		return nil, err
	}
	s := &singleWorld{fileWorld: fw, perRound: perRound}
	rng := rand.New(rand.NewSource(cfg.seed))
	if s.payer, err = newPayer(rng, s.n.wallet, plainKeys, zipf); err == nil {
		err = s.w.fund(&s.payer.coins, rng, s.payer.keys, coins, 64)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func setupPlain(_ context.Context, cfg runConfig) (world, error) {
	return openSingle("plain_pay", cfg, plainCoins, plainPayments, false)
}

// round submits the round's payments and commits them in one block.
func (s *singleWorld) round(_ context.Context, ep *epoch) error {
	s.w.ep = ep
	sent := 0
	for _, k := range s.payer.inputCounts(s.perRound) {
		ep.attempted++
		if _, err := s.w.pay(s.payer, k, time.Time{}); err != nil {
			ep.failed++
			continue
		}
		sent++
	}
	return s.commit(ep, sent)
}

// commit mines one block and requires it to hold exactly the sent
// transactions.
func (s *singleWorld) commit(ep *epoch, sent int) error {
	m, err := s.w.mine()
	if err != nil {
		return err
	}
	ep.add("block_commit", m.returned.Sub(m.start))
	if got := len(m.blk.Transactions) - 1; got != sent {
		return fmt.Errorf("block holds %d transactions, %d were submitted", got, sent)
	}
	s.payer.confirmed()
	ep.committed += sent
	ep.blocks++
	return nil
}

// finish is the correctness gate.
func (s *singleWorld) finish(_ context.Context, r *report) error {
	r.gate(auditNode(s.n))
	return nil
}

// auditNode runs the from-genesis audits of one node.
func auditNode(n *node) []error {
	var errs []error
	if err := n.chain.AuditFromGenesis(); err != nil {
		errs = append(errs, fmt.Errorf("chain audit: %w", err))
	}
	if err := n.ledger.AuditAffine(); err != nil {
		errs = append(errs, fmt.Errorf("ledger audit: %w", err))
	}
	if err := n.index.AuditRebuild(); err != nil {
		errs = append(errs, fmt.Errorf("index audit: %w", err))
	}
	if n.pool.Size() != 0 {
		errs = append(errs, errors.New("mempool not empty after the last block"))
	}
	return errs
}
