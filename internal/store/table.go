package store

import (
	"slices"
	"strings"
)

// table is the ordered resident state under both engines: a map from
// key to value for O(1) point reads and overwrites, and beside it a
// B+tree over the same keys for ordered scans that seek in O(log n)
// and then touch only the rows they return. A new key or a delete pays
// an O(log n) tree update; an overwrite does not touch the tree. It is
// not safe for concurrent use; the owning engine's lock guards it.
type table struct {
	byKey map[string][]byte
	root  *treeNode
	// liveBytes is the key+value bytes of live pairs, the numerator of
	// File's compaction trigger.
	liveBytes int64
}

// treeNode is a leaf holding sorted keys, or (kids != nil) an interior
// node where keys[i] separates kids[i] from kids[i+1]: every key under
// kids[i+1] is >= keys[i] and every key under kids[i] is below it.
type treeNode struct {
	keys []string
	kids []*treeNode
}

// treeFanout is the most keys a node holds before it splits.
const treeFanout = 64

func newTable() *table {
	return &table{byKey: make(map[string][]byte), root: &treeNode{}}
}

// get returns the resident value for key (not a copy).
func (t *table) get(key []byte) ([]byte, bool) {
	v, ok := t.byKey[string(key)]
	return v, ok
}

// put sets key = value. The table keeps value without copying it.
func (t *table) put(key, value []byte) {
	if old, ok := t.byKey[string(key)]; ok {
		t.liveBytes += int64(len(value) - len(old))
		t.byKey[string(key)] = value
		return
	}
	k := string(key)
	t.byKey[k] = value
	t.liveBytes += int64(len(k) + len(value))
	if sep, right := t.root.insert(k); right != nil {
		t.root = &treeNode{keys: []string{sep}, kids: []*treeNode{t.root, right}}
	}
}

// delete removes key; an absent key is a no-op.
func (t *table) delete(key []byte) {
	old, ok := t.byKey[string(key)]
	if !ok {
		return
	}
	delete(t.byKey, string(key))
	t.liveBytes -= int64(len(key) + len(old))
	if t.root.remove(string(key)) {
		t.root = &treeNode{}
	}
}

// apply folds a batch's ops into the table in order.
func (t *table) apply(ops []op) {
	for _, o := range ops {
		if o.delete {
			t.delete(o.key)
		} else {
			t.put(o.key, o.value)
		}
	}
}

// scan snapshots, in ascending key order, every pair whose key has the
// given prefix and is >= start. Keys and values are copied, so the
// engine can drop its lock before handing them to a callback that may
// call back into the store.
func (t *table) scan(prefix, start []byte) [][2][]byte {
	p, from := string(prefix), string(prefix)
	if string(start) > from {
		from = string(start)
	}
	var out [][2][]byte
	t.root.ascend(from, func(k string) bool {
		if !strings.HasPrefix(k, p) {
			return false
		}
		out = append(out, [2][]byte{[]byte(k), append([]byte(nil), t.byKey[k]...)})
		return true
	})
	return out
}

// visit hands a scan's snapshot to fn, stopping at its first error.
func visit(pairs [][2][]byte, fn func(key, value []byte) error) error {
	for _, kv := range pairs {
		if err := fn(kv[0], kv[1]); err != nil {
			return err
		}
	}
	return nil
}

// search returns the position of the first key of n that is >= k. In
// an interior node a key equal to a separator lives to its right, so
// there the position past it is returned: the child k belongs under.
func (n *treeNode) search(k string) int {
	i, found := slices.BinarySearch(n.keys, k)
	if found && n.kids != nil {
		i++
	}
	return i
}

// insert adds k, which must be absent, under n. When n overflows it
// keeps its lower half and returns the upper half with the key that
// separates the two (copied up from a leaf, moved up from an interior
// node).
func (n *treeNode) insert(k string) (sep string, right *treeNode) {
	i := n.search(k)
	if n.kids == nil {
		n.keys = slices.Insert(n.keys, i, k)
	} else {
		if sep, right = n.kids[i].insert(k); right == nil {
			return "", nil
		}
		n.keys = slices.Insert(n.keys, i, sep)
		n.kids = slices.Insert(n.kids, i+1, right)
	}
	if len(n.keys) <= treeFanout {
		return "", nil
	}
	mid := len(n.keys) / 2
	sep, right = n.keys[mid], &treeNode{keys: slices.Clone(n.keys[mid:])}
	if n.kids != nil {
		right.keys = right.keys[1:]
		right.kids = slices.Clone(n.kids[mid+1:])
		n.kids = slices.Delete(n.kids, mid+1, len(n.kids))
	}
	n.keys = slices.Delete(n.keys, mid, len(n.keys))
	return sep, right
}

// remove deletes k, which must be present, under n and reports whether
// that emptied n. Nodes are never merged: an emptied one is unlinked,
// with one separator beside it, and an underfull one stays, so the tree
// keeps the depth a burst of inserts gave it until those nodes empty.
func (n *treeNode) remove(k string) bool {
	i := n.search(k)
	if n.kids == nil {
		n.keys = slices.Delete(n.keys, i, i+1)
		return len(n.keys) == 0
	}
	if !n.kids[i].remove(k) {
		return false
	}
	n.kids = slices.Delete(n.kids, i, i+1)
	if len(n.keys) > 0 {
		j := min(i, len(n.keys)-1)
		n.keys = slices.Delete(n.keys, j, j+1)
	}
	return len(n.kids) == 0
}

// ascend calls fn on the keys >= from under n in order until fn
// returns false, and reports whether it ran to the end.
func (n *treeNode) ascend(from string, fn func(k string) bool) bool {
	i := n.search(from)
	if n.kids == nil {
		for _, k := range n.keys[i:] {
			if !fn(k) {
				return false
			}
		}
		return true
	}
	// Only the first subtree can hold keys below from; "" starts the
	// others at their first key without comparing.
	for _, kid := range n.kids[i:] {
		if !kid.ascend(from, fn) {
			return false
		}
		from = ""
	}
	return true
}
