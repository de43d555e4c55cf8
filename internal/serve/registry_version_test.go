package serve

import (
	"errors"
	"testing"

	"repro/internal/nn"
)

// TestRegistryIgnoresRefreshedDiskArtifact pins the immutability contract:
// a deployment directory refreshed behind a running server must NOT be
// picked up mid-flight. New weights enter only through Publish + Swap.
func TestRegistryIgnoresRefreshedDiskArtifact(t *testing.T) {
	dir := t.TempDir()
	writeModel(t, dir, "model-1", []int{21, 16, 8}, 1)
	r := NewRegistry(dir)
	m1, err := r.Model("model-1")
	if err != nil {
		t.Fatal(err)
	}

	// Overwrite the artifact on disk with different weights (same shape).
	writeModel(t, dir, "model-1", []int{21, 16, 8}, 99)
	again, err := r.Model("model-1")
	if err != nil {
		t.Fatal(err)
	}
	if again != m1 {
		t.Fatal("registry re-read a refreshed disk artifact mid-flight")
	}
	if v, err := r.ActiveVersion("model-1"); err != nil || v != 1 {
		t.Fatalf("ActiveVersion = %d, %v; want 1", v, err)
	}
	src, err := r.Source("model-1")
	if err != nil {
		t.Fatal(err)
	}
	b, v := src.Acquire()
	if v != 1 {
		t.Fatalf("Source bound version %d, want 1", v)
	}
	in := testInputs(1, 4)
	if got, want := b.Infer(in)[0], m1.Predict(in[0]); len(got) != len(want) {
		t.Fatalf("output dim %d, want %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatal("backend serves weights other than the first-loaded artifact")
			}
		}
	}
}

func TestRegistryPublishSwapRollback(t *testing.T) {
	dir := t.TempDir()
	writeModel(t, dir, "model-1", []int{21, 16, 8}, 1)
	r := NewRegistry(dir)

	v2, err := r.Publish("model-1", nn.NewMLP([]int{21, 16, 8}, 2))
	if err != nil {
		t.Fatal(err)
	}
	if v2 != 2 {
		t.Fatalf("first publish got version %d, want 2 (disk is 1)", v2)
	}
	// Publish does not change what serves.
	if v, _ := r.ActiveVersion("model-1"); v != 1 {
		t.Fatalf("active after publish = %d, want 1", v)
	}

	prev, err := r.Swap("model-1", v2)
	if err != nil {
		t.Fatal(err)
	}
	if prev != 1 {
		t.Fatalf("Swap returned prev %d, want 1", prev)
	}
	if v, _ := r.ActiveVersion("model-1"); v != 2 {
		t.Fatalf("active after swap = %d, want 2", v)
	}

	// Roll back to the retained version 1.
	if prev, err = r.Swap("model-1", 1); err != nil || prev != 2 {
		t.Fatalf("Swap back = (%d, %v), want (2, nil)", prev, err)
	}
	if v, _ := r.ActiveVersion("model-1"); v != 1 {
		t.Fatalf("active after rollback = %d, want 1", v)
	}

	// Unknown versions surface the typed error.
	if _, err := r.Swap("model-1", 77); !errors.Is(err, ErrVersionNotFound) {
		t.Fatalf("Swap to unknown version: %v, want ErrVersionNotFound", err)
	}
	if err := r.SetShadow("model-1", 77); !errors.Is(err, ErrVersionNotFound) {
		t.Fatalf("SetShadow to unknown version: %v, want ErrVersionNotFound", err)
	}

	// Shape-mismatched weights are rejected at publish time.
	if _, err := r.Publish("model-1", nn.NewMLP([]int{5, 4, 8}, 3)); err == nil {
		t.Fatal("publish accepted a model with a different input dim")
	}
	if _, err := r.Publish("model-1", nn.NewMLP([]int{21, 4, 4}, 3)); err == nil {
		t.Fatal("publish accepted a model with a different output dim")
	}
}

func TestRegistryShadowLifecycle(t *testing.T) {
	dir := t.TempDir()
	writeModel(t, dir, "model-1", []int{21, 16, 8}, 1)
	r := NewRegistry(dir)
	v2, err := r.Publish("model-1", nn.NewMLP([]int{21, 16, 8}, 2))
	if err != nil {
		t.Fatal(err)
	}
	src, err := r.Source("model-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := src.Shadow(); ok {
		t.Fatal("shadow set before SetShadow")
	}
	if err := r.SetShadow("model-1", v2); err != nil {
		t.Fatal(err)
	}
	if _, v, ok := src.Shadow(); !ok || v != v2 {
		t.Fatalf("Shadow() = (v%d, %v), want (v%d, true)", v, ok, v2)
	}
	// Active snapshot unaffected by shadowing.
	if _, v := src.Acquire(); v != 1 {
		t.Fatalf("Acquire() binds v%d, want v1", v)
	}
	// Promoting the shadowed version clears the slot.
	if _, err := r.Swap("model-1", v2); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := src.Shadow(); ok {
		t.Fatal("shadow slot survived promotion of the shadowed version")
	}
	if _, v := src.Acquire(); v != v2 {
		t.Fatalf("Acquire() binds v%d after promotion, want v%d", v, v2)
	}

	r.SetShadow("model-1", 1)
	r.ClearShadow("model-1")
	if _, _, ok := src.Shadow(); ok {
		t.Fatal("ClearShadow left the slot set")
	}
}

func TestRegistryRetention(t *testing.T) {
	dir := t.TempDir()
	writeModel(t, dir, "model-1", []int{21, 16, 8}, 1)
	r := NewRegistry(dir)
	r.retain = 3
	for i := 0; i < 6; i++ {
		if _, err := r.Publish("model-1", nn.NewMLP([]int{21, 16, 8}, int64(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	c, err := r.chainFor("model-1")
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	vs, active := append([]*Artifact(nil), c.versions...), c.active.Load()
	c.mu.Unlock()
	// Active v1 is kept beyond the window of 3.
	if len(vs) != 4 {
		t.Fatalf("retained %d versions, want 4 (window 3 + active)", len(vs))
	}
	if vs[0].version != 1 || vs[0] != active {
		t.Fatalf("oldest retained v%d (active %v), want active v1", vs[0].version, vs[0] == active)
	}
	for _, v := range vs[1:] {
		if v.version < 5 {
			t.Fatalf("version %d survived pruning with window 3", v.version)
		}
	}
	// A pruned version is gone for good.
	if _, err := r.Swap("model-1", 2); !errors.Is(err, ErrVersionNotFound) {
		t.Fatalf("Swap to pruned version: %v, want ErrVersionNotFound", err)
	}
}

// TestRegistryPublishWithoutDiskArtifact covers chains the online trainer
// owns end to end: no disk file, first publish is version 1, Swap
// activates it.
func TestRegistryPublishWithoutDiskArtifact(t *testing.T) {
	r := NewRegistry(t.TempDir())
	v, err := r.Publish("fresh", nn.NewMLP([]int{21, 16, 8}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("first publish version %d, want 1", v)
	}
	if _, err := r.ActiveVersion("fresh"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ActiveVersion before swap: %v, want ErrNotFound", err)
	}
	if _, err := r.Swap("fresh", v); err != nil {
		t.Fatal(err)
	}
	if av, err := r.ActiveVersion("fresh"); err != nil || av != 1 {
		t.Fatalf("ActiveVersion after swap = (%d, %v), want (1, nil)", av, err)
	}
}
