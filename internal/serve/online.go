package serve

import (
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/online"
)

// OnlineConfig wires internal/online's DAgger continual learner into the
// server: visited states from sim jobs are recorded to a durable sample
// log, a background loop labels them via the oracle and
// retrains the model, and candidates are shadow-scored on live traffic
// before an atomic hot swap.
type OnlineConfig struct {
	// Enabled turns the continual learner on.
	Enabled bool
	// Model is the registry model to continually train. Required.
	Model string
	// Dir is the sample-log directory. Required.
	Dir string
	// TrainInterval spaces DAgger cycles (default 30s).
	TrainInterval time.Duration
	// ShadowWindow is the number of shadow-scored rows required before a
	// candidate is judged (default online.DefaultGate().Window).
	ShadowWindow int
	// MinAgreement is the candidate-vs-incumbent action agreement the gate
	// requires (default online.DefaultGate().MinAgreement; negative
	// disables the agreement check).
	MinAgreement float64
	// MinNewSamples gates retraining on fresh labeled examples per cycle.
	MinNewSamples int
	// SampleCap bounds the durable sample reservoir.
	SampleCap int
	// Seed drives the learner's seeded randomness.
	Seed int64
	// Labeler overrides the expert (default: the oracle on
	// online.QuickLabelConfig()).
	Labeler online.Labeler
	// Train overrides the retraining step (tests, fault injection).
	Train online.TrainFunc
	// Replay overrides the promotion-gate replay.
	Replay online.ReplayFunc
}

// onlineState is the server's continual-learning runtime.
type onlineState struct {
	model   string
	manager *online.Manager
	log     *online.SampleLog
	loop    *online.Loop

	// Latest live telemetry for the rollback monitor: the most recent
	// completed TOP-IL sim result against the online model.
	mu       sync.Mutex
	haveLive bool
	liveViol float64
	livePeak float64
}

// registryPublisher adapts the server's versioned model registry to
// online.Publisher for one model name.
type registryPublisher struct {
	reg  *Registry
	name string
}

func (p registryPublisher) Publish(m *nn.MLP, source string) (int, error) {
	return p.reg.Publish(p.name, m, source)
}
func (p registryPublisher) Swap(version int) (int, error) { return p.reg.Swap(p.name, version) }
func (p registryPublisher) SetShadow(version int) error   { return p.reg.SetShadow(p.name, version) }
func (p registryPublisher) ClearShadow()                  { p.reg.ClearShadow(p.name) }
func (p registryPublisher) ActiveVersion() (int, error)   { return p.reg.ActiveVersion(p.name) }
func (p registryPublisher) ActiveModel() (*nn.MLP, error) { return p.reg.Model(p.name) }

// startOnline builds the continual learner described by s.cfg.Online and
// hooks it into the job runner. Called from NewServer.
func (s *Server) startOnline() error {
	oc := s.cfg.Online
	if oc.Model == "" {
		return fmt.Errorf("serve: online learning requires a model name")
	}
	if oc.Dir == "" {
		return fmt.Errorf("serve: online learning requires a sample-log directory")
	}
	sampleLog, err := online.OpenSampleLog(oc.Dir, oc.SampleCap, oc.Seed)
	if err != nil {
		return err
	}
	labeler := oc.Labeler
	if labeler == nil {
		labeler = online.NewOracleLabeler(online.QuickLabelConfig())
	}
	mgr, err := online.NewManager(online.ManagerConfig{
		Model:         oc.Model,
		Publisher:     registryPublisher{reg: s.reg, name: oc.Model},
		Labeler:       labeler,
		Log:           sampleLog,
		Seed:          oc.Seed,
		MinNewSamples: oc.MinNewSamples,
		Train:         oc.Train,
		Replay:        oc.Replay,
		Gate:          online.GateConfig{Window: oc.ShadowWindow, MinAgreement: oc.MinAgreement},
		Metrics:       online.NewMetrics(s.tel, oc.Model),
	})
	if err != nil {
		sampleLog.Close()
		return err
	}
	st := &onlineState{model: oc.Model, manager: mgr, log: sampleLog}
	st.loop = online.StartLoop(online.LoopConfig{
		Interval:  oc.TrainInterval,
		Manager:   mgr,
		Telemetry: st.liveTelemetry,
		OnError:   func(err error) { log.Printf("serve: online: %v", err) },
	})
	s.online = st
	// Sim jobs against the online model feed the recorder; completed runs
	// feed live QoS/thermal telemetry to the rollback monitor.
	s.runner.SetObserve(st.observeSim)
	s.runner.SetOnResult(st.recordResult)
	return nil
}

// OnlineManager exposes the continual learner (nil when disabled) for
// tests and the smoke driver.
func (s *Server) OnlineManager() *online.Manager {
	if s.online == nil {
		return nil
	}
	return s.online.manager
}

// onlineStatus is the /v1/online snapshot; a disabled learner reports the
// zero status with enabled=false.
func (s *Server) onlineStatus() online.Status {
	if s.online == nil {
		return online.Status{}
	}
	return s.online.manager.Status()
}

// closeOnline stops the training loop and releases the sample log.
func (s *Server) closeOnline() {
	if s.online == nil {
		return
	}
	s.online.loop.Close()
	if err := s.online.log.Close(); err != nil {
		log.Printf("serve: online sample log close: %v", err)
	}
}

// observeSim records every inference epoch of a sim job against the online
// model: one visited state per application-of-interest row, tagged with
// the scenario context the oracle labeler needs. Observation slices are
// reused by the simulator, so everything is copied here.
func (o *onlineState) observeSim(model string, obs core.EpochObservation) {
	if model != o.model {
		return
	}
	for k := range obs.Rows {
		aoi := obs.Apps[k]
		s := online.Sample{
			Origin:       online.OriginSim,
			AoI:          aoi.Name,
			Features:     append([]float64(nil), obs.Rows[k]...),
			Action:       obs.Chosen[k],
			QoS:          aoi.QoS,
			ClusterFreqs: append([]float64(nil), obs.ClusterFreqs...),
		}
		for j, a := range obs.Apps {
			if j == k {
				continue
			}
			s.Background = append(s.Background, online.BackgroundRef{
				Name: a.Name, Core: int(a.Core),
			})
		}
		if err := o.manager.Record(s); err != nil {
			log.Printf("serve: online record: %v", err)
			return
		}
	}
}

// recordResult folds a completed TOP-IL sim result against the online
// model into the live-telemetry window the rollback monitor polls.
func (o *onlineState) recordResult(model string, res *SimResult) {
	if model != o.model || res == nil || len(res.Apps) == 0 {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.haveLive = true
	o.liveViol = float64(res.Violations) / float64(len(res.Apps))
	o.livePeak = res.PeakTemp
}

// liveTelemetry is the loop's rollback-monitor probe.
func (o *onlineState) liveTelemetry() (violationFrac, peakTemp float64, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.liveViol, o.livePeak, o.haveLive
}
