package store

import "sync"

// Mem is the in-memory engine: File's resident table without the
// journal under it, and the same atomicity contract. It is the default
// for tests and non-persistent nodes; "durability" lasts exactly as long
// as the process.
type Mem struct {
	mu     sync.RWMutex
	tab    *table
	blobs  map[uint64][]byte
	nextBl uint64
	closed bool
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{
		tab:   newTable(),
		blobs: make(map[uint64][]byte),
	}
}

// Get implements Store.
func (m *Mem) Get(key []byte) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return nil, ErrClosed
	}
	v, ok := m.tab.get(key)
	if !ok {
		return nil, ErrNotFound
	}
	return append([]byte(nil), v...), nil
}

// Has implements Store.
func (m *Mem) Has(key []byte) (bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return false, ErrClosed
	}
	_, ok := m.tab.get(key)
	return ok, nil
}

// Iterate implements Store.
func (m *Mem) Iterate(prefix []byte, fn func(key, value []byte) error) error {
	return m.IterateFrom(prefix, prefix, fn)
}

// IterateFrom is the seek form of Iterate: only keys >= start within
// the prefix are snapshotted and visited.
func (m *Mem) IterateFrom(prefix, start []byte, fn func(key, value []byte) error) error {
	m.mu.RLock()
	if m.closed {
		m.mu.RUnlock()
		return ErrClosed
	}
	pairs := m.tab.scan(prefix, start)
	m.mu.RUnlock()
	return visit(pairs, fn)
}

// Apply implements Store.
func (m *Mem) Apply(b *Batch) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.tab.apply(b.ops)
	return nil
}

// AppendBlock implements Store.
func (m *Mem) AppendBlock(data []byte) (BlockRef, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return BlockRef{}, ErrClosed
	}
	ref := BlockRef{Offset: m.nextBl, Len: uint32(len(data))}
	m.blobs[m.nextBl] = append([]byte(nil), data...)
	m.nextBl += uint64(len(data)) + 1 // +1 keeps offsets unique for empty blobs
	return ref, nil
}

// ReadBlock implements Store.
func (m *Mem) ReadBlock(ref BlockRef) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return nil, ErrClosed
	}
	b, ok := m.blobs[ref.Offset]
	if !ok || uint32(len(b)) != ref.Len {
		return nil, ErrNotFound
	}
	return append([]byte(nil), b...), nil
}

// Flush implements Store (a no-op for memory).
func (m *Mem) Flush() error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return ErrClosed
	}
	return nil
}

// Close implements Store.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
