package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/npu"
)

// ErrNotFound marks a request against a model that does not exist in the
// artifacts directory; the HTTP layer maps it to 404. A server started
// over an empty (or absent) models directory is healthy — it lists zero
// models and answers inference requests with this error, never a panic.
var ErrNotFound = errors.New("serve: model not found")

// ErrVersionNotFound marks a request against a model version the registry
// does not retain (never published, or pruned). The HTTP layer maps it to
// 404 like ErrNotFound.
var ErrVersionNotFound = errors.New("serve: model version not found")

// DefaultRetainVersions bounds how many published versions a model chain
// keeps, so superseded and rejected candidates do not accumulate. The active
// and shadow versions are always retained on top of this window.
const DefaultRetainVersions = 8

// Registry loads named IL models from an artifacts directory and manages a
// monotonically versioned chain of published artifacts per model. The disk
// file seeds version 1 exactly once — a deployment directory refreshed
// behind a running server is deliberately NOT picked up (artifacts are
// immutable; new weights enter through Publish + Swap). Loaded models are
// shared, relied on being read-only (see the nn package's concurrency
// guarantee).
type Registry struct {
	dir    string
	retain int

	mu     sync.Mutex
	chains map[string]*chain
}

// chain is the version history of one model name. active/shadow are
// atomic so the per-batch Acquire on the inference hot path never takes a
// lock; mu orders Publish/Swap/prune against each other.
type chain struct {
	mu       sync.Mutex
	versions []*Artifact // retained, ascending by version
	next     int         // next version number to assign (starts at 1)
	active   atomic.Pointer[Artifact]
	shadow   atomic.Pointer[Artifact]
}

// Artifact is one immutable published model version. It implements
// npu.Backend with the NPU latency model, so a batch bound to an artifact
// keeps serving that exact version no matter what the chain does.
type Artifact struct {
	name    string
	version int
	model   *nn.MLP
	dev     *npu.NPU
}

// Name implements npu.Backend; the version is part of the identity.
func (a *Artifact) Name() string { return fmt.Sprintf("serve/%s@v%d", a.name, a.version) }

// Infer implements npu.Backend.
func (a *Artifact) Infer(batch [][]float64) [][]float64 { return a.dev.Infer(batch) }

// Latency implements npu.Backend.
func (a *Artifact) Latency(batchSize int) time.Duration { return a.dev.Latency(batchSize) }

// InferAsync mirrors npu.NPU.InferAsync: a non-blocking batched inference.
func (a *Artifact) InferAsync(batch [][]float64) <-chan npu.Result {
	return a.dev.InferAsync(batch)
}

// NewRegistry creates a registry over the given artifacts directory.
func NewRegistry(dir string) *Registry {
	return &Registry{dir: dir, retain: DefaultRetainVersions, chains: make(map[string]*chain)}
}

// validName rejects names that would escape the artifacts directory.
func validName(name string) error {
	if name == "" {
		return fmt.Errorf("serve: empty model name")
	}
	if strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") {
		return fmt.Errorf("serve: invalid model name %q", name)
	}
	return nil
}

// chainFor returns (creating if needed) the chain for a valid name.
func (r *Registry) chainFor(name string) (*chain, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.chains[name]
	if c == nil {
		c = &chain{next: 1}
		r.chains[name] = c
	}
	return c, nil
}

// activeArtifact returns the chain's active artifact, seeding it from the
// disk file on first use. The disk read happens at most once per name for
// the registry's lifetime.
func (r *Registry) activeArtifact(name string) (*Artifact, error) {
	c, err := r.chainFor(name)
	if err != nil {
		return nil, err
	}
	if a := c.active.Load(); a != nil {
		return a, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if a := c.active.Load(); a != nil {
		return a, nil
	}
	m, err := core.LoadModel(filepath.Join(r.dir, name+".json"), 0, 0)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		return nil, fmt.Errorf("serve: loading model %q: %w", name, err)
	}
	a := &Artifact{name: name, version: c.next, model: m, dev: npu.New(m)}
	c.next++
	c.versions = append(c.versions, a)
	c.active.Store(a)
	return a, nil
}

// Model returns the named model's active version, loading the disk
// artifact on first use.
func (r *Registry) Model(name string) (*nn.MLP, error) {
	a, err := r.activeArtifact(name)
	if err != nil {
		return nil, err
	}
	return a.model, nil
}

// Publish appends new weights to the model's version chain and returns the
// assigned version number. Publishing does not change which version serves
// traffic — that is Swap — but it does prune versions beyond the retention
// window (never the active or shadow one). The new model's shape must
// match the chain's active model, so a swap can never change the wire
// contract of in-flight clients.
func (r *Registry) Publish(name string, m *nn.MLP) (int, error) {
	if m == nil {
		return 0, fmt.Errorf("serve: publishing nil model for %q", name)
	}
	// Seed the chain from disk first so version numbers and shape checks
	// are anchored to the deployed artifact. A chain with no disk file is
	// still publishable (the online trainer owns the model end to end).
	if _, err := r.activeArtifact(name); err != nil && !errors.Is(err, ErrNotFound) {
		return 0, err
	}
	c, err := r.chainFor(name)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if a := c.active.Load(); a != nil {
		if m.InputDim() != a.model.InputDim() || m.OutputDim() != a.model.OutputDim() {
			return 0, fmt.Errorf("serve: model %q version shape %dx%d does not match active %dx%d",
				name, m.InputDim(), m.OutputDim(), a.model.InputDim(), a.model.OutputDim())
		}
	}
	a := &Artifact{name: name, version: c.next, model: m, dev: npu.New(m)}
	c.next++
	c.versions = append(c.versions, a)
	r.mu.Lock()
	retain := r.retain
	r.mu.Unlock()
	c.pruneLocked(retain)
	return a.version, nil
}

// pruneLocked drops the oldest versions beyond the retention window,
// keeping the active and shadow artifacts regardless of age. Callers hold
// c.mu.
func (c *chain) pruneLocked(retain int) {
	if len(c.versions) <= retain {
		return
	}
	act, sh := c.active.Load(), c.shadow.Load()
	kept := make([]*Artifact, 0, retain+2)
	drop := len(c.versions) - retain
	for i, a := range c.versions {
		if i < drop && a != act && a != sh {
			continue
		}
		kept = append(kept, a)
	}
	c.versions = kept
}

// findLocked returns the retained artifact with the given version.
func (c *chain) findLocked(version int) *Artifact {
	for _, a := range c.versions {
		if a.version == version {
			return a
		}
	}
	return nil
}

// Swap atomically makes the given retained version the active one and
// returns the previously active version (0 if none). In-flight batches
// complete against the version they acquired; batches formed after Swap
// returns bind the new one — no batch ever mixes versions. Swapping the
// current shadow version promotes it and clears the shadow slot.
func (r *Registry) Swap(name string, version int) (prev int, err error) {
	c, err := r.chainFor(name)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.findLocked(version)
	if a == nil {
		return 0, fmt.Errorf("%w: %q version %d", ErrVersionNotFound, name, version)
	}
	if p := c.active.Load(); p != nil {
		prev = p.version
	}
	c.active.Store(a)
	if c.shadow.Load() == a {
		c.shadow.Store(nil)
	}
	return prev, nil
}

// SetShadow mirrors live traffic onto the given retained version: batches
// are re-run against it after the active results are delivered, but its
// predictions are never served. Swapping the shadowed version to active
// clears the slot.
func (r *Registry) SetShadow(name string, version int) error {
	c, err := r.chainFor(name)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.findLocked(version)
	if a == nil {
		return fmt.Errorf("%w: %q version %d", ErrVersionNotFound, name, version)
	}
	c.shadow.Store(a)
	return nil
}

// ClearShadow stops mirroring traffic for the named model.
func (r *Registry) ClearShadow(name string) {
	if c, err := r.chainFor(name); err == nil {
		c.shadow.Store(nil)
	}
}

// ActiveVersion returns the version currently serving traffic, seeding
// from disk if the chain is untouched.
func (r *Registry) ActiveVersion(name string) (int, error) {
	a, err := r.activeArtifact(name)
	if err != nil {
		return 0, err
	}
	return a.version, nil
}

// Source returns a BackendSource bound to the model's chain: each Acquire
// snapshots the active artifact, each Shadow the mirrored one. The chain
// is seeded from disk so the source is immediately servable.
func (r *Registry) Source(name string) (*ModelSource, error) {
	if _, err := r.activeArtifact(name); err != nil {
		return nil, err
	}
	c, err := r.chainFor(name)
	if err != nil {
		return nil, err
	}
	return &ModelSource{c: c}, nil
}

// ModelSource adapts a model's version chain to the Batcher's
// BackendSource: lock-free snapshots of the active and shadow artifacts.
type ModelSource struct {
	c *chain
}

// Acquire implements BackendSource.
func (s *ModelSource) Acquire() (npu.Backend, int) {
	a := s.c.active.Load()
	if a == nil {
		return nil, 0
	}
	return a, a.version
}

// Shadow implements BackendSource.
func (s *ModelSource) Shadow() (npu.Backend, int, bool) {
	a := s.c.shadow.Load()
	if a == nil {
		return nil, 0, false
	}
	return a, a.version, true
}

// List returns the model names available on disk (without extension),
// sorted. A missing artifacts directory is a valid zero-model deployment,
// not an error.
func (r *Registry) List() ([]string, error) {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("serve: listing models: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		names = append(names, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(names)
	return names, nil
}
