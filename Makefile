# Development targets. `make check` is the default verify flow, defined
# once in scripts/check.sh: build + vet + lint + full tests + race pass over
# the concurrent packages + coverage, allocation and trace gates.
# Benchmarking lives in perfbench/ (`bash perfbench/run.sh`, see
# perfbench/README.md).

GO ?= go

.PHONY: check build vet lint test race cover fuzz conformance serve-smoke cluster-smoke

check:
	./scripts/check.sh

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# topil-lint enforces the repo's own invariants, the ones go vet cannot
# express: determinism (detrand), lock pairing and self-deadlocks
# (lockcheck; mutex copies are vet's copylocks), unit annotations
# (unitcheck), process-exit discipline (exitcheck), chaos containment
# (testkitonly) and observability discipline (telemetrycheck), plus the
# concurrency and lifecycle rules listed in docs/ANALYSIS.md.
lint:
	$(GO) run ./cmd/topil-lint ./...

test:
	$(GO) test ./...

# Race pass over every package that runs goroutines (the package list
# lives in scripts/check.sh).
race:
	./scripts/check.sh race

# Coverage gate: statement coverage of every package listed in
# scripts/coverage_baseline.txt must not drop below its floor there.
cover:
	./scripts/coverage_gate.sh

# Short-budget fuzzing pass over every Fuzz* target (Go runs one target per
# invocation). Crashers land in testdata/fuzz/ and replay as plain tests;
# commit them. See docs/TESTING.md.
fuzz:
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzEngineChaos$$' -fuzztime=10s
	$(GO) test ./internal/workload -run '^$$' -fuzz '^FuzzJobEntries$$' -fuzztime=10s
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime=10s
	$(GO) test ./internal/conformance -run '^$$' -fuzz '^FuzzPackageManifest$$' -fuzztime=10s
	$(GO) test ./internal/nn -run '^$$' -fuzz '^FuzzModelJSON$$' -fuzztime=10s

# Policy-result regression gate: run the committed conformance packages'
# golden metric envelopes (docs/CONFORMANCE.md) at -j1 and -j8 — the
# reports must be byte-identical at any worker count.
conformance:
	./scripts/check.sh conformance

# Quick end-to-end: build the service and exercise one infer round trip.
serve-smoke:
	./scripts/check.sh smoke

# Cluster end-to-end: 3 journal-backed replicas behind the router, a
# loadgen burst, one replica SIGKILLed mid-run (zero 5xx allowed), and a
# job-store recovery check. See docs/CLUSTER.md.
cluster-smoke:
	./scripts/check.sh cluster-smoke
