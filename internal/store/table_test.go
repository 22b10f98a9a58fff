package store

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestTableMatchesSortedMap drives the table and a plain map through the
// same seeded puts, overwrites and deletes, and demands the same pairs in
// sort.Strings order from every scan, and the same live-byte count.
func TestTableMatchesSortedMap(t *testing.T) {
	// 6000 possible keys settle near 4000 resident: enough leaves to
	// split the root's child list, so the tree is three levels deep.
	const keySpace, steps = 6000, 30000
	rng := rand.New(rand.NewSource(16))
	tab := newTable()
	ref := make(map[string]string)

	check := func(step int) {
		t.Helper()
		var live int64
		keys := make([]string, 0, len(ref))
		for k, v := range ref {
			keys = append(keys, k)
			live += int64(len(k) + len(v))
		}
		sort.Strings(keys)
		if tab.liveBytes != live {
			t.Fatalf("step %d: liveBytes = %d, reference %d", step, tab.liveBytes, live)
		}
		if len(tab.byKey) != len(ref) {
			t.Fatalf("step %d: %d resident keys, reference %d", step, len(tab.byKey), len(ref))
		}
		prefix := fmt.Sprintf("k%d", rng.Intn(10))[:rng.Intn(3)]
		start := fmt.Sprintf("k%04d", rng.Intn(keySpace+20)-10)[:1+rng.Intn(5)]
		var want []string
		for _, k := range keys {
			if strings.HasPrefix(k, prefix) && k >= start {
				want = append(want, k+"="+ref[k])
			}
		}
		var got []string
		for _, kv := range tab.scan([]byte(prefix), []byte(start)) {
			got = append(got, string(kv[0])+"="+string(kv[1]))
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("step %d: scan(%q, %q) = %v, reference %v", step, prefix, start, got, want)
		}
	}

	for step := 0; step < steps; step++ {
		key := []byte(fmt.Sprintf("k%04d", rng.Intn(keySpace)))
		if rng.Intn(3) == 0 {
			tab.delete(key)
			delete(ref, string(key))
		} else {
			value := []byte(strings.Repeat("v", rng.Intn(9)))
			tab.put(key, value)
			ref[string(key)] = string(value)
		}
		want, live := ref[string(key)]
		if v, ok := tab.get(key); ok != live || string(v) != want {
			t.Fatalf("step %d: get(%s) = %q, %v; reference %q, %v", step, key, v, ok, want, live)
		}
		if step%97 == 0 {
			check(step)
		}
	}
	check(steps)
	if tab.root.kids == nil || tab.root.kids[0].kids == nil {
		t.Fatal("workload never grew the tree to three levels")
	}

	// Emptying the table from the low end, then a refill and from the
	// high end, unlinks every node through its first and its last slot.
	for round, descending := range []bool{false, true} {
		keys := make([]string, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if descending {
			slices.Reverse(keys)
		}
		for i, k := range keys {
			tab.delete([]byte(k))
			delete(ref, k)
			if i%61 == 0 {
				check(i)
			}
		}
		check(len(keys))
		if len(tab.root.keys) != 0 || tab.root.kids != nil {
			t.Fatalf("round %d: emptied table kept tree nodes", round)
		}
		for i := 0; i < 3000; i++ {
			k := fmt.Sprintf("k%04d", rng.Intn(keySpace))
			tab.put([]byte(k), []byte("r"))
			ref[k] = "r"
		}
		check(-1)
	}
}
