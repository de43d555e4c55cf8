package online

// GateConfig is the auto-promotion gate: a candidate must first agree with
// the incumbent on live traffic (shadow scoring), then not regress the
// simulated QoS / peak-temperature replay, run for both under one seed.
type GateConfig struct {
	// Window is the minimum number of shadow-scored rows before the gate
	// judges a candidate.
	Window int
	// MinAgreement is the required fraction of shadow rows whose argmax
	// action matches the incumbent's. A continual learner should drift,
	// not lurch: mass disagreement on live states means the retrain went
	// somewhere the replay window cannot vouch for.
	MinAgreement float64
	// MaxQoSDelta is the tolerated increase in replayed QoS violation
	// fraction versus the incumbent's baseline.
	MaxQoSDelta float64
	// MaxTempDelta is the tolerated increase in replayed peak temperature
	// versus the incumbent's baseline (°C).
	MaxTempDelta float64
}

// DefaultGate returns the standard promotion gate.
func DefaultGate() GateConfig {
	return GateConfig{
		Window:       64,
		MinAgreement: 0.80,
		MaxQoSDelta:  0.0,
		MaxTempDelta: 0.5,
	}
}

// withDefaults fills unset fields.
func (g GateConfig) withDefaults() GateConfig {
	d := DefaultGate()
	if g.Window <= 0 {
		g.Window = d.Window
	}
	if g.MinAgreement == 0 {
		g.MinAgreement = d.MinAgreement
	}
	if g.MaxTempDelta == 0 {
		g.MaxTempDelta = d.MaxTempDelta
	}
	return g
}
