package serve

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/testkit"
)

// writeModel saves a model into dir under name.json and returns it.
func writeModel(t *testing.T, dir, name string, sizes []int, seed int64) *nn.MLP {
	t.Helper()
	m := nn.NewMLP(sizes, seed)
	if err := core.SaveModel(m, filepath.Join(dir, name+".json")); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRegistryLoadCacheList(t *testing.T) {
	dir := t.TempDir()
	want := writeModel(t, dir, "model-1", []int{21, 16, 8}, 1)
	writeModel(t, dir, "model-2", []int{21, 16, 8}, 2)

	r := NewRegistry(dir)
	m, err := r.Model("model-1")
	if err != nil {
		t.Fatal(err)
	}
	if m.NumParams() != want.NumParams() {
		t.Errorf("loaded model has %d params, want %d", m.NumParams(), want.NumParams())
	}
	again, err := r.Model("model-1")
	if err != nil {
		t.Fatal(err)
	}
	if again != m {
		t.Error("second load returned a different instance (cache miss)")
	}

	names, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "model-1" || names[1] != "model-2" {
		t.Errorf("List() = %v, want [model-1 model-2]", names)
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	r := NewRegistry(t.TempDir())
	for _, name := range []string{"", "../evil", "a/b", `a\b`, "x..y"} {
		if _, err := r.Model(name); err == nil {
			t.Errorf("Model(%q) accepted", name)
		}
	}
	if _, err := r.Model("absent"); err == nil {
		t.Error("Model of a missing file accepted")
	}
}

// TestRegistryBackendConformance runs the npu Backend contract over the
// artifact the registry serves, including InferAsync agreement.
func TestRegistryBackendConformance(t *testing.T) {
	dir := t.TempDir()
	m := writeModel(t, dir, "model-1", []int{21, 32, 8}, 3)
	r := NewRegistry(dir)
	src, err := r.Source("model-1")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := src.Acquire()
	if _, ok := b.(testkit.AsyncBackend); !ok {
		t.Fatalf("served artifact %T does not offer InferAsync", b)
	}
	if err := testkit.Conformance(b, m, testInputs(6, 4)); err != nil {
		t.Fatal(err)
	}
	if b.Name() != "serve/model-1@v1" {
		t.Errorf("backend name %q", b.Name())
	}
}
