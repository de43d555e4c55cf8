package scenario

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/npu"
	"repro/internal/rl"
	"repro/internal/workload"
)

func TestValidate(t *testing.T) {
	for _, name := range Names() {
		if err := (Spec{Policy: name}).Validate(); err != nil {
			t.Errorf("defaulted %q rejected: %v", name, err)
		}
	}
	spec, _ := workload.ByName(workload.MixedPool()[0])
	explicit := Spec{Policy: "GTS/ondemand", NumJobs: -1, Rate: -1, InstrScale: -1,
		Jobs: []workload.JobEntry{{Name: spec.Name, TotalInstr: 1e9, QoS: 1e8}}}
	if err := explicit.Validate(); err != nil {
		t.Errorf("explicit jobs must skip the generator checks: %v", err)
	}

	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{Policy: "voodoo"}, `unknown policy "voodoo"`},
		{Spec{Policy: "GTS/ondemand", Backend: "quantum"}, `unknown backend "quantum"`},
		{Spec{Policy: "GTS/ondemand", Duration: -3}, "duration -3 s out of range"},
		{Spec{Policy: "GTS/ondemand", Duration: 86401}, "duration 86401 s out of range"},
		{Spec{Policy: "GTS/ondemand", AmbientC: ambient(-51)}, "ambientC -51 implausible"},
		{Spec{Policy: "GTS/ondemand", AmbientC: ambient(101)}, "ambientC 101 implausible"},
		{Spec{Policy: "GTS/ondemand", NumJobs: 1025}, "numJobs 1025 out of range"},
		{Spec{Policy: "GTS/ondemand", Rate: -1}, "non-positive arrival rate"},
		{Spec{Policy: "GTS/ondemand", InstrScale: -1}, "non-positive instruction scale"},
		{Spec{Policy: "GTS/ondemand", Jobs: []workload.JobEntry{{Name: "nope"}}}, "jobs manifest:"},
	}
	if err := (Spec{Backend: "quantum"}).ValidateSettings(); err != nil {
		t.Errorf("ValidateSettings checks names: %v", err)
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%+v) = %v, want %q", c.spec, err, c.want)
		}
		// A bad setting fails ValidateSettings and Build; a bad name
		// neither (NewManager checks names).
		badName := c.spec.Policy != "GTS/ondemand" || c.spec.Backend != ""
		if err := c.spec.ValidateSettings(); (err == nil) != badName {
			t.Errorf("ValidateSettings(%+v) = %v", c.spec, err)
		}
		if _, _, err := c.spec.Build(); (err == nil) != badName {
			t.Errorf("Build(%+v) = %v", c.spec, err)
		}
	}
}

func ambient(c float64) *float64 { return &c }

func TestBuildDefaults(t *testing.T) {
	on, off := true, false
	base, baseJobs, err := Spec{Policy: "GTS/ondemand"}.Build()
	if err != nil {
		t.Fatal(err)
	}
	explicit, explicitJobs, err := Spec{Policy: "GTS/ondemand", Fan: &on, AmbientC: ambient(25),
		Seed: 1, NumJobs: 8, Rate: 0.1, InstrScale: 0.1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, explicit) || !reflect.DeepEqual(baseJobs, explicitJobs) {
		t.Error("zero fields do not select the documented defaults")
	}
	if len(baseJobs) != 8 || base.Seed != 1 {
		t.Errorf("default run has %d jobs, seed %d", len(baseJobs), base.Seed)
	}
	noFan, _, _ := Spec{Policy: "GTS/ondemand", Fan: &off}.Build()
	hot, _, _ := Spec{Policy: "GTS/ondemand", AmbientC: ambient(40)}.Build()
	freezing, _, _ := Spec{Policy: "GTS/ondemand", AmbientC: ambient(0)}.Build()
	if reflect.DeepEqual(base, noFan) || reflect.DeepEqual(base, hot) || reflect.DeepEqual(base, freezing) {
		t.Error("fan and ambient settings do not reach the engine configuration")
	}

	spec, _ := workload.ByName(workload.MixedPool()[0])
	entries := []workload.JobEntry{{Name: spec.Name, TotalInstr: 1e9, QoS: 1e8, Arrival: 2}}
	_, jobs, err := Spec{Policy: "GTS/ondemand", Jobs: entries}.Build()
	if err != nil || !reflect.DeepEqual(workload.JobsToEntries(jobs), entries) {
		t.Errorf("explicit jobs = %v, %v", jobs, err)
	}
}

func TestNewManager(t *testing.T) {
	fit := nn.NewMLP([]int{21, 16, 8}, 1)
	model := func(m *nn.MLP) func() (*nn.MLP, error) {
		return func() (*nn.MLP, error) { return m, nil }
	}
	full := Source{Model: model(fit), QTable: func() (*rl.QTable, error) { return rl.NewQTable(8), nil }}
	for _, name := range Names() {
		m, err := NewManager(name, "npu", full)
		if err != nil || m.Name() != name {
			t.Errorf("NewManager(%q) = %v, %v", name, m, err)
		}
	}
	for _, backend := range npu.BackendNames() {
		if _, err := NewManager("TOP-IL", backend, full); err != nil {
			t.Errorf("TOP-IL on %s: %v", backend, err)
		}
	}
	// Governors never touch the source.
	if _, err := NewManager("GTS/ondemand", "npu", Source{}); err != nil {
		t.Errorf("governor with an empty source: %v", err)
	}

	fetchErr := errors.New("fetch failed")
	cases := []struct {
		name, backend string
		src           Source
		want          string
	}{
		{"voodoo", "npu", full, `unknown policy "voodoo"`},
		{"TOP-IL", "npu", Source{}, "needs a trained model"},
		{"TOP-RL", "npu", Source{Model: model(fit)}, "needs a Q-table"},
		{"TOP-IL", "npu", Source{Model: model(nn.NewMLP([]int{4, 4, 2}, 1))}, "platform needs 21->8"},
		{"TOP-IL", "quantum", full, `unknown backend "quantum"`},
		{"TOP-IL", "npu", Source{Model: func() (*nn.MLP, error) { return nil, fetchErr }}, "fetch failed"},
	}
	for _, c := range cases {
		_, err := NewManager(c.name, c.backend, c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("NewManager(%q, %q) = %v, want %q", c.name, c.backend, err, c.want)
		}
	}
}
