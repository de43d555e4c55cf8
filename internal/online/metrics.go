package online

import "repro/internal/telemetry"

// Metrics are the online_* families, labelled by model. Every counter is a
// telemetry handle, so /metrics and /v1/online read the same numbers.
type Metrics struct {
	Recorded      *telemetry.Counter // samples appended to the log
	Labeled       *telemetry.Counter // samples the oracle labeled
	Skipped       *telemetry.Counter // samples the labeler declined (no context / infeasible)
	LabelFailures *telemetry.Counter // oracle queries that errored or panicked
	TrainCycles   *telemetry.Counter // retrain attempts started
	TrainFailures *telemetry.Counter // retrains that errored, panicked, or failed to publish
	Publishes     *telemetry.Counter // candidate versions published
	Promotions    *telemetry.Counter // candidates swapped to active
	Rejected      *telemetry.Counter // candidates the gate refused
	ShadowRows    *telemetry.Counter // rows compared candidate-vs-incumbent
	ShadowAgree   *telemetry.Counter // compared rows whose argmax actions agreed
	DatasetSize   *telemetry.Gauge   // aggregated examples currently held
}

// NewMetrics resolves the online_* family handles for one model label on
// reg (nil gets a private registry, so standalone managers work).
func NewMetrics(reg *telemetry.Registry, model string) *Metrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Metrics{
		Recorded: reg.CounterVec("online_samples_recorded_total",
			"visited states appended to the sample log", "model").With(model),
		Labeled: reg.CounterVec("online_samples_labeled_total",
			"visited states the oracle labeled (DAgger queries answered)", "model").With(model),
		Skipped: reg.CounterVec("online_samples_skipped_total",
			"visited states the labeler declined (missing context or infeasible)", "model").With(model),
		LabelFailures: reg.CounterVec("online_label_failures_total",
			"oracle label queries that errored or panicked", "model").With(model),
		TrainCycles: reg.CounterVec("online_train_cycles_total",
			"background retrain attempts started", "model").With(model),
		TrainFailures: reg.CounterVec("online_train_failures_total",
			"background retrains that errored, panicked, or failed to publish", "model").With(model),
		Publishes: reg.CounterVec("online_publishes_total",
			"candidate model versions published to the registry", "model").With(model),
		Promotions: reg.CounterVec("online_promotions_total",
			"candidate versions promoted to active by the gate", "model").With(model),
		Rejected: reg.CounterVec("online_candidates_rejected_total",
			"candidate versions the promotion gate refused", "model").With(model),
		ShadowRows: reg.CounterVec("online_shadow_rows_total",
			"live rows scored by both the candidate and the incumbent", "model").With(model),
		ShadowAgree: reg.CounterVec("online_shadow_agree_total",
			"shadow-scored rows whose argmax actions agreed", "model").With(model),
		DatasetSize: reg.GaugeVec("online_dataset_size",
			"aggregated training examples currently held", "model").With(model),
	}
}
