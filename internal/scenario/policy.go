package scenario

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/governor"
	"repro/internal/nn"
	"repro/internal/npu"
	"repro/internal/platform"
	"repro/internal/rl"
	"repro/internal/sim"
)

// Source supplies the learned artifacts the caller can provide. NewManager
// calls a function only for the policy that needs it, so governor-only
// runs never train or load anything; a nil function means the caller has
// no such artifact.
type Source struct {
	// Model returns TOP-IL's trained migration model.
	Model func() (*nn.MLP, error)
	// QTable returns a TOP-RL Q-table the manager owns: its online
	// learning updates the table in place.
	QTable func() (*rl.QTable, error)
	// RLSeed seeds TOP-RL's exploration.
	RLSeed int64
	// Observe, when set, receives every TOP-IL inference epoch (see
	// core.Config.Observe).
	Observe func(core.EpochObservation)
}

// Names lists every policy NewManager resolves: the two learned
// techniques, then every named GTS baseline.
func Names() []string {
	return append([]string{"TOP-IL", "TOP-RL"}, governor.GTSNames()...)
}

// CheckPolicy rejects a name Names does not list.
func CheckPolicy(name string) error { return checkName("policy", name, Names()) }

// CheckBackend rejects a name npu.BackendNames does not list, whatever the
// policy: one without an inference step ignores only a valid backend.
func CheckBackend(name string) error { return checkName("backend", name, npu.BackendNames()) }

func checkName(kind, name string, have []string) error {
	if slices.Contains(have, name) {
		return nil
	}
	return fmt.Errorf("scenario: unknown %s %q (have %s)", kind, name, strings.Join(have, ", "))
}

// NewManager builds the named policy for one run. backend selects TOP-IL's
// inference device by npu.BackendNames name; the other policies have no
// inference step and ignore a valid one. TOP-IL's model must fit the HiKey970 every
// Spec runs on.
func NewManager(name, backend string, src Source) (sim.Manager, error) {
	if err := cmp.Or(CheckPolicy(name), CheckBackend(backend)); err != nil {
		return nil, err
	}
	switch name {
	case "TOP-IL":
		if src.Model == nil {
			return nil, errors.New("scenario: policy TOP-IL needs a trained model, which this caller cannot supply")
		}
		m, err := src.Model()
		if err != nil {
			return nil, err
		}
		plat := platform.HiKey970()
		in, out := features.Dim(plat.NumCores(), plat.NumClusters()), plat.NumCores()
		if m.InputDim() != in || m.OutputDim() != out {
			return nil, fmt.Errorf("scenario: TOP-IL model is %d->%d, platform needs %d->%d",
				m.InputDim(), m.OutputDim(), in, out)
		}
		b, _ := npu.ByName(backend, m)
		cfg := core.DefaultConfig()
		cfg.Observe = src.Observe
		return core.New(b, cfg), nil
	case "TOP-RL":
		if src.QTable == nil {
			return nil, errors.New("scenario: policy TOP-RL needs a Q-table, which this caller cannot supply")
		}
		t, err := src.QTable()
		if err != nil {
			return nil, err
		}
		return rl.New(t, rl.DefaultParams(), src.RLSeed), nil
	}
	g, _ := governor.NewGTSByName(name) // CheckPolicy admits only GTS names here
	return g, nil
}
