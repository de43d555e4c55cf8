package cluster

import (
	"fmt"
	"testing"
)

func TestRingLookupDeterministic(t *testing.T) {
	nodes := []string{"a", "b", "c", "d"}
	r1, err := NewRing(nodes, 64)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := NewRing(nodes, 64)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		got1, got2 := r1.Lookup(key, 4), r2.Lookup(key, 4)
		if len(got1) != 4 {
			t.Fatalf("Lookup(%q, 4) = %v", key, got1)
		}
		for j := range got1 {
			if got1[j] != got2[j] {
				t.Fatalf("ring not deterministic for %q: %v vs %v", key, got1, got2)
			}
		}
		seen := map[string]bool{}
		for _, n := range got1 {
			if seen[n] {
				t.Fatalf("duplicate node in preference list for %q: %v", key, got1)
			}
			seen[n] = true
		}
		if r1.Lookup(key, 1)[0] != got1[0] {
			t.Fatalf("Lookup(%q, 1) disagrees with Lookup(%q, 4)[0]", key, key)
		}
	}
}

func TestRingBalance(t *testing.T) {
	nodes := []string{"a", "b", "c", "d"}
	r, err := NewRing(nodes, 64)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const keys = 20000
	for i := 0; i < keys; i++ {
		counts[r.Lookup(fmt.Sprintf("key-%d", i), 1)[0]]++
	}
	want := keys / len(nodes)
	for _, n := range nodes {
		if counts[n] < want/2 || counts[n] > want*2 {
			t.Errorf("node %s owns %d of %d keys (want near %d): %v", n, counts[n], keys, want, counts)
		}
	}
}

// TestRingMinimalRemap is the consistent-hashing property: adding one
// node moves only roughly 1/N of the key space, never reshuffles it.
func TestRingMinimalRemap(t *testing.T) {
	before, _ := NewRing([]string{"a", "b", "c"}, 64)
	after, _ := NewRing([]string{"a", "b", "c", "d"}, 64)
	const keys = 20000
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		ob, oa := before.Lookup(key, 1)[0], after.Lookup(key, 1)[0]
		if ob != oa {
			if oa != "d" {
				t.Fatalf("key %q moved %s -> %s, not to the new node", key, ob, oa)
			}
			moved++
		}
	}
	// Expect ~1/4 to move; fail if more than half does (that would be a
	// rehash-everything bug wearing a ring costume).
	if moved > keys/2 {
		t.Fatalf("%d of %d keys moved on a single join", moved, keys)
	}
	if moved == 0 {
		t.Fatal("no keys moved to the new node")
	}
}

func TestRingErrors(t *testing.T) {
	if _, err := NewRing(nil, 64); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 64); err == nil {
		t.Error("duplicate node accepted")
	}
	if _, err := NewRing([]string{""}, 64); err == nil {
		t.Error("empty node name accepted")
	}
	r, _ := NewRing([]string{"a", "b"}, 0) // default vnodes
	if got := r.Lookup("k", 5); len(got) != 2 {
		t.Errorf("Lookup clamps to node count: %v", got)
	}
	if got := r.Lookup("k", 0); got != nil {
		t.Errorf("Lookup(0) = %v", got)
	}
}
