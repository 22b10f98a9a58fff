package typecoin

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"typecoin/internal/bkey"
	"typecoin/internal/chainhash"
	"typecoin/internal/logic"
	"typecoin/internal/wire"
)

// Batch is the on-chain form of a batch-mode withdrawal (Section 3.2):
// "the server batches together all the transactions upstream of the
// resource in question, routing that resource to its owner's key and the
// rest back to its own key. (This will likely be a large Typecoin
// transaction, but the Bitcoin network sees only its hash.)"
//
// A Batch consumes on-chain typed outputs (Sources), replays a sequence
// of recorded off-chain transactions (Seq, each valid under the
// CheckTxOffChain restrictions), and materializes the surviving resources
// (Leaves) as carrier outputs. Because the constituents are included
// verbatim, their affine assert signatures remain bound to the
// constituent that carries them.
type Batch struct {
	// Sources are the on-chain typed outputs the batch consumes, with
	// their global types and amounts.
	Sources []Input
	// Seq is the recorded off-chain history in dependency order.
	Seq []*Tx
	// Leaves are the carrier outputs: the resources that survive the
	// off-chain history. LeafSources names the (virtual) outpoint each
	// leaf materializes.
	Leaves      []Output
	LeafSources []wire.OutPoint
}

// Batch errors.
var (
	ErrBatchEmpty     = errors.New("typecoin: batch has no constituents")
	ErrBatchUnbalance = errors.New("typecoin: batch leaves do not match surviving resources")
	ErrBatchSource    = errors.New("typecoin: batch source not consumed by any constituent")
)

// Encode writes the batch canonically.
func (b *Batch) Encode(w io.Writer) error {
	if err := wire.WriteVarInt(w, uint64(len(b.Sources))); err != nil {
		return err
	}
	for _, in := range b.Sources {
		if _, err := w.Write(in.Source.Hash[:]); err != nil {
			return err
		}
		if err := wire.WriteVarInt(w, uint64(in.Source.Index)); err != nil {
			return err
		}
		if err := logic.EncodeProp(w, in.Type); err != nil {
			return err
		}
		if err := wire.WriteVarInt(w, uint64(in.Amount)); err != nil {
			return err
		}
	}
	if err := wire.WriteVarInt(w, uint64(len(b.Seq))); err != nil {
		return err
	}
	for _, tx := range b.Seq {
		raw := tx.Bytes()
		if err := wire.WriteVarBytes(w, raw); err != nil {
			return err
		}
	}
	if len(b.Leaves) != len(b.LeafSources) {
		return errors.New("typecoin: batch leaves/sources length mismatch")
	}
	if err := wire.WriteVarInt(w, uint64(len(b.Leaves))); err != nil {
		return err
	}
	for i, leaf := range b.Leaves {
		if leaf.Owner == nil {
			return errors.New("typecoin: batch leaf without owner")
		}
		if err := logic.EncodeProp(w, leaf.Type); err != nil {
			return err
		}
		if err := wire.WriteVarInt(w, uint64(leaf.Amount)); err != nil {
			return err
		}
		if _, err := w.Write(leaf.Owner.Serialize()); err != nil {
			return err
		}
		if _, err := w.Write(b.LeafSources[i].Hash[:]); err != nil {
			return err
		}
		if err := wire.WriteVarInt(w, uint64(b.LeafSources[i].Index)); err != nil {
			return err
		}
	}
	return nil
}

// Bytes returns the canonical encoding.
func (b *Batch) Bytes() []byte {
	var buf bytes.Buffer
	if err := b.Encode(&buf); err != nil {
		panic("typecoin: impossible encode failure: " + err.Error())
	}
	return buf.Bytes()
}

// Hash is the commitment the carrier's metadata slot carries.
func (b *Batch) Hash() chainhash.Hash {
	return chainhash.TaggedHash("typecoin/batch", b.Bytes())
}

// DecodeBatch reads a batch.
func DecodeBatch(r io.Reader) (*Batch, error) {
	b := &Batch{}
	nSrc, err := wire.ReadVarInt(r)
	if err != nil {
		return nil, err
	}
	if nSrc > 10000 {
		return nil, fmt.Errorf("typecoin: implausible source count %d", nSrc)
	}
	for i := uint64(0); i < nSrc; i++ {
		var in Input
		if _, err := io.ReadFull(r, in.Source.Hash[:]); err != nil {
			return nil, err
		}
		idx, err := wire.ReadVarInt(r)
		if err != nil {
			return nil, err
		}
		in.Source.Index = uint32(idx)
		if in.Type, err = logic.DecodeProp(r); err != nil {
			return nil, err
		}
		amount, err := wire.ReadVarInt(r)
		if err != nil {
			return nil, err
		}
		in.Amount = int64(amount)
		b.Sources = append(b.Sources, in)
	}
	nSeq, err := wire.ReadVarInt(r)
	if err != nil {
		return nil, err
	}
	if nSeq > 100000 {
		return nil, fmt.Errorf("typecoin: implausible batch length %d", nSeq)
	}
	for i := uint64(0); i < nSeq; i++ {
		raw, err := wire.ReadVarBytes(r, "batch constituent")
		if err != nil {
			return nil, err
		}
		tx, err := DecodeBytes(raw)
		if err != nil {
			return nil, err
		}
		b.Seq = append(b.Seq, tx)
	}
	nLeaf, err := wire.ReadVarInt(r)
	if err != nil {
		return nil, err
	}
	if nLeaf > 10000 {
		return nil, fmt.Errorf("typecoin: implausible leaf count %d", nLeaf)
	}
	for i := uint64(0); i < nLeaf; i++ {
		var leaf Output
		if leaf.Type, err = logic.DecodeProp(r); err != nil {
			return nil, err
		}
		amount, err := wire.ReadVarInt(r)
		if err != nil {
			return nil, err
		}
		leaf.Amount = int64(amount)
		keyBytes := make([]byte, bkey.SerializedPubKeySize)
		if _, err := io.ReadFull(r, keyBytes); err != nil {
			return nil, err
		}
		if leaf.Owner, err = bkey.ParsePubKey(keyBytes); err != nil {
			return nil, err
		}
		var src wire.OutPoint
		if _, err := io.ReadFull(r, src.Hash[:]); err != nil {
			return nil, err
		}
		idx, err := wire.ReadVarInt(r)
		if err != nil {
			return nil, err
		}
		src.Index = uint32(idx)
		b.Leaves = append(b.Leaves, leaf)
		b.LeafSources = append(b.LeafSources, src)
	}
	return b, nil
}

// CheckBatch validates a batch against the state: the sources resolve
// with the claimed types, the off-chain history replays under the batch
// restrictions, every source is consumed, and the leaves are exactly the
// surviving resources.
func (s *State) CheckBatch(b *Batch) error {
	if len(b.Seq) == 0 || len(b.Leaves) == 0 {
		return ErrBatchEmpty
	}
	if len(b.Leaves) != len(b.LeafSources) {
		return errors.New("typecoin: batch leaves/sources length mismatch")
	}
	// Temporary state seeded with just the sources, sharing the global
	// basis.
	tmp := &State{
		global:   s.global,
		outTypes: make(map[wire.OutPoint]outRecord, len(b.Sources)),
		txs:      make(map[chainhash.Hash]*Tx),
		carriers: make(map[chainhash.Hash]chainhash.Hash),
		origin:   make(map[wire.OutPoint]chainhash.Hash),
		batches:  make(map[chainhash.Hash]*Batch),
	}
	for i, src := range b.Sources {
		rec, ok := s.outTypes[src.Source]
		if !ok {
			return fmt.Errorf("%w: source %v", ErrInputUnknown, src.Source)
		}
		eq, err := logic.PropEqual(src.Type, rec.prop)
		if err != nil {
			return err
		}
		if !eq {
			return fmt.Errorf("%w: source %d claims %s, chain has %s",
				ErrInputTypeWrong, i, src.Type, rec.prop)
		}
		if src.Amount != rec.amount {
			return fmt.Errorf("typecoin: source %d claims %d satoshi, chain has %d",
				i, src.Amount, rec.amount)
		}
		tmp.outTypes[src.Source] = rec
	}
	for i, tx := range b.Seq {
		if err := tmp.CheckTxOffChain(tx); err != nil {
			return fmt.Errorf("typecoin: batch constituent %d: %w", i, err)
		}
		if _, err := tmp.ApplyOffChain(tx); err != nil {
			return fmt.Errorf("typecoin: batch constituent %d: %w", i, err)
		}
	}
	for _, src := range b.Sources {
		if _, live := tmp.outTypes[src.Source]; live {
			return fmt.Errorf("%w: %v", ErrBatchSource, src.Source)
		}
	}
	// Leaves must cover the surviving resources exactly.
	if len(b.Leaves) != len(tmp.outTypes) {
		return fmt.Errorf("%w: %d leaves, %d survivors", ErrBatchUnbalance,
			len(b.Leaves), len(tmp.outTypes))
	}
	seen := make(map[wire.OutPoint]bool, len(b.LeafSources))
	for i, src := range b.LeafSources {
		if seen[src] {
			return fmt.Errorf("%w: leaf source %v repeated", ErrBatchUnbalance, src)
		}
		seen[src] = true
		rec, ok := tmp.outTypes[src]
		if !ok {
			return fmt.Errorf("%w: leaf source %v is not a survivor", ErrBatchUnbalance, src)
		}
		eq, err := logic.PropEqual(b.Leaves[i].Type, rec.prop)
		if err != nil {
			return err
		}
		if !eq {
			return fmt.Errorf("%w: leaf %d type %s, survivor has %s",
				ErrBatchUnbalance, i, b.Leaves[i].Type, rec.prop)
		}
		if b.Leaves[i].Amount != rec.amount {
			return fmt.Errorf("%w: leaf %d amount %d, survivor has %d",
				ErrBatchUnbalance, i, b.Leaves[i].Amount, rec.amount)
		}
	}
	return nil
}

// ApplyBatch incorporates a checked batch: the sources are consumed and
// the leaves appear at the carrier's outpoints. (Constituents introduce
// no basis declarations, so the global basis is unchanged.)
func (s *State) ApplyBatch(b *Batch, carrierID chainhash.Hash) error {
	bh := b.Hash()
	if _, dup := s.batches[bh]; dup {
		return fmt.Errorf("typecoin: batch %s already applied", bh)
	}
	for _, src := range b.Sources {
		if by, spent := s.spends[src.Source]; spent {
			return fmt.Errorf("typecoin: affine violation: source %v already consumed by %s", src.Source, by)
		}
	}
	s.batches[bh] = b
	s.carriers[bh] = carrierID
	s.byCarrier[carrierID] = bh
	for _, src := range b.Sources {
		delete(s.outTypes, src.Source)
		s.spends[src.Source] = bh
	}
	for i, leaf := range b.Leaves {
		op := wire.OutPoint{Hash: carrierID, Index: uint32(i)}
		s.outTypes[op] = outRecord{prop: leaf.Type, amount: leaf.Amount, owner: leaf.OwnerPrincipal()}
		s.origin[op] = bh
	}
	return nil
}

// BatchByHash returns an applied batch.
func (s *State) BatchByHash(h chainhash.Hash) (*Batch, bool) {
	b, ok := s.batches[h]
	return b, ok
}

// CarrierOutputsBatch builds the carrier output prefix for a batch: the
// metadata-bearing 1-of-2 (committing to the batch hash) followed by
// P2PKH leaves.
func CarrierOutputsBatch(b *Batch) ([]*wire.TxOut, error) {
	if len(b.Leaves) == 0 {
		return nil, ErrBatchEmpty
	}
	pseudo := &Tx{Outputs: b.Leaves}
	return carrierOutputsWithHash(pseudo, b.Hash())
}

// VerifyBatchEmbedding checks a carrier against a batch: metadata and
// typed output prefix, plus the source spends in order.
func VerifyBatchEmbedding(b *Batch, carrier *wire.MsgTx) error {
	pseudo := &Tx{Outputs: b.Leaves}
	for _, src := range b.Sources {
		pseudo.Inputs = append(pseudo.Inputs, Input{Source: src.Source, Type: src.Type, Amount: src.Amount})
	}
	return verifyEmbeddingWithHash(pseudo, b.Hash(), carrier)
}
