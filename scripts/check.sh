#!/bin/sh
# Default verify flow, and the only definition of it (the Makefile's check
# and race targets call this script): build + vet + lint + tests + race
# pass over the concurrent packages + coverage gate + hot-path allocation
# gate + sim-time trace determinism. `scripts/check.sh race` runs just the
# race pass. `scripts/check.sh smoke` additionally boots topil-serve and
# drives a one-row and a 300-row infer plus a sim round trip over HTTP,
# scrapes /metrics, then drains it with SIGINT. `scripts/check.sh
# cluster-smoke` boots three journal-backed replicas behind topil-cluster,
# SIGKILLs one under load, and checks zero 5xx plus journal recovery.
# `scripts/check.sh conformance` runs the committed conformance packages
# (docs/CONFORMANCE.md) at -j1 and -j8 and requires byte-identical reports.
set -eu

cd "$(dirname "$0")/.."

# race_pass runs the race detector over every package that runs
# goroutines or is shared across them: the serving stack and its router,
# the inference substrate it shares models with, the continual learner's
# background trainer and hot swap, the oracle's on-demand trace sets its
# labeling workers share, testkit's MapOrdered worker pool, the lint
# analyzer's parallel per-package passes, and the simulation/workload/
# conformance/experiment layers. The experiments package runs with -short
# so the race detector's ~20x slowdown doesn't blow the test timeout on
# the full oracle+training pipeline; its artifact and concurrency tests
# still run.
race_pass() {
    echo "== go test -race (serve, cluster, npu, nn, workload, sim, telemetry, conformance, online, oracle, testkit, analysis)"
    go test -race ./internal/serve/... ./internal/cluster/... ./internal/npu/... \
        ./internal/nn/... ./internal/workload/... ./internal/sim/... ./internal/telemetry/... \
        ./internal/conformance/... ./internal/online/... ./internal/oracle/... \
        ./internal/testkit/... ./internal/analysis/...
    echo "== go test -race -short (experiments)"
    go test -race -short ./internal/experiments/...
}

if [ "${1:-}" = "race" ]; then
    race_pass
    exit 0
fi

if [ "${1:-}" = "smoke" ]; then
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"; [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true' EXIT

    go run ./scripts/genmodel "$tmp/model-1.json"
    go build -o "$tmp/topil-serve" ./cmd/topil-serve
    addr=127.0.0.1:18923
    "$tmp/topil-serve" -addr "$addr" -models "$tmp" &
    pid=$!

    for i in $(seq 1 50); do
        curl -sf "http://$addr/v1/healthz" >/dev/null 2>&1 && break
        sleep 0.1
    done

    zeros=$(seq 21 | awk '{printf "%s0", (NR>1?",":"")}')
    out=$(curl -sf -X POST "http://$addr/v1/infer" \
        -d "{\"model\":\"model-1\",\"inputs\":[[$zeros]]}")
    echo "$out" | grep -q '"outputs"' || { echo "infer failed: $out"; exit 1; }

    # A request is one queue entry whatever its row count, so 300 rows —
    # more than the default -infer-queue of 256 — are admitted whole. The
    # indented response opens each output row with a bare "    [" line.
    rows=$(seq 300 | awk -v z="$zeros" '{printf "%s[%s]", (NR>1?",":""), z}')
    code=$(curl -s -o "$tmp/big.json" -w '%{http_code}' -X POST "http://$addr/v1/infer" \
        -d "{\"model\":\"model-1\",\"inputs\":[$rows]}")
    [ "$code" = "200" ] || { echo "300-row infer: HTTP $code"; cat "$tmp/big.json"; exit 1; }
    n=$(grep -c '^    \[$' "$tmp/big.json" || true)
    [ "$n" = "300" ] || { echo "300-row infer: $n outputs"; exit 1; }

    job=$(curl -sf -X POST "http://$addr/v1/sim" \
        -d '{"policy":"GTS/ondemand","duration":2,"numJobs":2,"rate":2,"instrScale":0.02}' \
        | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
    [ -n "$job" ] || { echo "sim submission failed"; exit 1; }
    state=""
    for i in $(seq 1 100); do
        state=$(curl -sf "http://$addr/v1/jobs/$job" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p')
        [ "$state" = "done" ] && break
        [ "$state" = "failed" ] && { echo "sim job failed"; exit 1; }
        sleep 0.2
    done
    [ "$state" = "done" ] || { echo "sim job stuck in state '$state'"; exit 1; }

    # The metrics page must be valid Prometheus text with a non-trivial
    # number of series: every line is a comment or `name{labels} value`,
    # and the layers exercised above (http, batcher, jobs, npu, nn) must
    # all have surfaced families. See docs/OBSERVABILITY.md.
    page=$(curl -sf "http://$addr/metrics")
    # Label values may contain anything (e.g. route="/v1/jobs/{id}"), so
    # validate shape with awk: name charset at the front, a numeric sample
    # at the end.
    counts=$(printf '%s\n' "$page" | awk '
        /^#/ || /^$/ { next }
        { series++
          if ($0 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*([{ ])/ ||
              $NF !~ /^-?([0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|[+-]?Inf|NaN)$/)
              bad++ }
        END { printf "%d %d", series, bad }')
    series=${counts% *}
    bad=${counts#* }
    [ "$series" -ge 15 ] || { echo "/metrics: only $series series"; exit 1; }
    [ "$bad" -eq 0 ] || { echo "/metrics: $bad malformed lines"; exit 1; }
    for fam in http_requests_total serve_batcher_requests_total \
        serve_jobs_finished_total npu_inferences_total nn_forward_passes_total; do
        printf '%s\n' "$page" | grep -q "^$fam" || { echo "/metrics: missing $fam"; exit 1; }
    done

    kill -INT "$pid"
    wait "$pid" || { echo "server did not drain cleanly"; exit 1; }
    pid=""
    echo "serve smoke OK (infer + sim round trip + /metrics + graceful drain)"
    exit 0
fi

if [ "${1:-}" = "conformance" ]; then
    # Policy-result regression gate: the seed packages under
    # testdata/packages. Artifacts are trained once into a temp cache and
    # reused by the -j8 pass, whose report must be byte-equal to the -j1
    # one — the executor's determinism contract.
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT

    go build -o "$tmp/topil-validate" ./cmd/topil-validate
    "$tmp/topil-validate" -packages testdata/packages \
        -artifacts "$tmp/artifacts" -j 1 >"$tmp/report-j1.txt"
    "$tmp/topil-validate" -packages testdata/packages \
        -artifacts "$tmp/artifacts" -j 8 >"$tmp/report-j8.txt"
    cmp "$tmp/report-j1.txt" "$tmp/report-j8.txt" || {
        echo "conformance: -j1 and -j8 reports differ"; exit 1; }
    cat "$tmp/report-j1.txt"
    echo "conformance OK (all packages pass; -j1 == -j8 byte-identical)"
    exit 0
fi

if [ "${1:-}" = "cluster-smoke" ]; then
    # Cluster end-to-end: three journal-backed topil-serve replicas behind
    # a topil-cluster router, sim jobs sharded across them, a SIGKILLed
    # replica mid-run with a loadgen burst that must see zero 5xx (the
    # router fails over), and journal recovery when the replica returns.
    tmp=$(mktemp -d)
    # Track daemon PIDs explicitly ($(jobs -p) is unreliable inside an
    # EXIT trap under dash) and detach their stdio from ours, so a caller
    # piping this script never blocks on an orphan holding the pipe.
    pids=""
    trap 'kill $pids 2>/dev/null || true; rm -rf "$tmp"' EXIT

    go run ./scripts/genmodel "$tmp/model-1.json"
    go build -o "$tmp/topil-serve" ./cmd/topil-serve
    go build -o "$tmp/topil-cluster" ./cmd/topil-cluster
    go build -o "$tmp/topil-loadgen" ./cmd/topil-loadgen

    raddr=127.0.0.1:18930
    for i in 1 2 3; do
        mkdir -p "$tmp/store-$i"
        "$tmp/topil-serve" -addr "127.0.0.1:1893$i" -models "$tmp" \
            -store "$tmp/store-$i" -workers 2 \
            >"$tmp/replica-$i.log" 2>&1 </dev/null &
        eval "rpid$i=\$!"
        pids="$pids $!"
    done
    "$tmp/topil-cluster" -addr "$raddr" -health-interval 100ms \
        -join http://127.0.0.1:18931,http://127.0.0.1:18932,http://127.0.0.1:18933 \
        >"$tmp/router.log" 2>&1 </dev/null &
    pids="$pids $!"

    for i in $(seq 1 50); do
        curl -sf "http://$raddr/v1/healthz" >/dev/null 2>&1 && break
        sleep 0.1
    done

    # Shard six quick jobs across the replicas and wait for them through
    # the router.
    jobs=""
    for i in $(seq 1 6); do
        job=$(curl -sf -X POST "http://$raddr/v1/sim" \
            -d '{"policy":"GTS/ondemand","duration":2,"numJobs":2,"rate":2,"instrScale":0.02}' \
            | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
        [ -n "$job" ] || { echo "cluster: sim submission $i failed"; exit 1; }
        jobs="$jobs $job"
    done
    for job in $jobs; do
        state=""
        for i in $(seq 1 100); do
            state=$(curl -sf "http://$raddr/v1/jobs/$job" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p')
            [ "$state" = "done" ] && break
            [ "$state" = "failed" ] && { echo "cluster: job $job failed"; exit 1; }
            sleep 0.2
        done
        [ "$state" = "done" ] || { echo "cluster: job $job stuck in '$state'"; exit 1; }
    done

    # Find a replica that owns at least one job and SIGKILL it — a crash,
    # not a drain.
    victim=""
    for i in 1 2 3; do
        n=$(curl -sf "http://127.0.0.1:1893$i/v1/jobs" | grep -c '"id"' || true)
        [ "$n" -gt 0 ] && { victim=$i; break; }
    done
    [ -n "$victim" ] || { echo "cluster: no replica owns a job (sharding broken?)"; exit 1; }
    eval "vpid=\$rpid$victim"
    kill -9 "$vpid"
    wait "$vpid" 2>/dev/null || true

    # A burst against the degraded cluster must surface zero 5xx and zero
    # transport errors: the router routes around the dead replica.
    "$tmp/topil-loadgen" -url "http://$raddr" -model model-1 -dim 21 \
        -qps 150 -duration 2s -shape burst -o "$tmp/loadgen.json"
    for field in serverErrs netErrs; do
        v=$(sed -n "s/.*\"$field\": \([0-9]*\).*/\1/p" "$tmp/loadgen.json")
        [ "$v" = "0" ] || { echo "cluster: $field=$v during replica outage"; cat "$tmp/loadgen.json"; exit 1; }
    done
    ok=$(sed -n 's/.*"ok": \([0-9]*\).*/\1/p' "$tmp/loadgen.json")
    [ "$ok" -gt 0 ] || { echo "cluster: loadgen made no successful requests"; exit 1; }

    # Restart the victim over its journal: its jobs must still be there,
    # finished, and readable through the router again.
    "$tmp/topil-serve" -addr "127.0.0.1:1893$victim" -models "$tmp" \
        -store "$tmp/store-$victim" -workers 2 \
        >>"$tmp/replica-$victim.log" 2>&1 </dev/null &
    pids="$pids $!"
    for i in $(seq 1 50); do
        curl -sf "http://127.0.0.1:1893$victim/v1/healthz" >/dev/null 2>&1 && break
        sleep 0.1
    done
    n=$(curl -sf "http://127.0.0.1:1893$victim/v1/jobs" | grep -c '"id"' || true)
    [ "$n" -gt 0 ] || { echo "cluster: restarted replica lost its journaled jobs"; exit 1; }
    for job in $jobs; do
        state=""
        for i in $(seq 1 100); do
            state=$(curl -sf "http://$raddr/v1/jobs/$job" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p')
            [ "$state" = "done" ] && break
            sleep 0.2
        done
        [ "$state" = "done" ] || { echo "cluster: job $job unreadable after recovery ('$state')"; exit 1; }
    done

    echo "cluster smoke OK (sharded jobs + replica SIGKILL with zero 5xx + journal recovery)"
    exit 0
fi

echo "== go build ./..."
go build ./...
echo "== go vet ./..."
# vet's copylocks pass is the mutex-copy gate; topil-lint does not repeat it.
go vet ./...
# perfbench is its own module (replace repro => ../), so the root vet never
# sees it; vet it here so an internal API change that breaks the benchmark
# fails the gate. vet, not build: build writes a binary into perfbench/.
echo "== go vet ./... (perfbench)"
(cd perfbench && go vet ./...)
echo "== topil-lint ./..."
# Findings fail the build (exit 3); on a clean tree the JSON envelope's
# analysis_wall_seconds must stay inside the wall-clock budget. A full
# analysis of the repository takes well under a second of it (package
# loading is timed separately), so a blown budget means the engine
# regressed.
lint_budget=60
lint_out=$(mktemp)
go run ./cmd/topil-lint -json ./... >"$lint_out" || {
    go run ./cmd/topil-lint ./... || true
    rm -f "$lint_out"
    echo "topil-lint: findings (or failure) — see above"
    exit 1
}
lint_wall=$(sed -n 's/.*"analysis_wall_seconds": \([0-9.]*\).*/\1/p' "$lint_out")
rm -f "$lint_out"
if [ -z "$lint_wall" ]; then
    echo "topil-lint: no analysis_wall_seconds in JSON output"
    exit 1
fi
if awk -v w="$lint_wall" -v b="$lint_budget" 'BEGIN { exit !(w + 0 > b + 0) }'; then
    echo "topil-lint: analysis took ${lint_wall}s, budget is ${lint_budget}s"
    exit 1
fi
echo "topil-lint clean (analysis ${lint_wall}s, budget ${lint_budget}s)"
echo "== go test ./..."
go test ./...
race_pass
echo "== coverage gate"
./scripts/coverage_gate.sh
echo "== hot-path allocation gate (0 allocs/op)"
# The //hot annotations are gated statically by topil-lint's hotalloc pass;
# this is the dynamic counterpart on the per-tick kernels (the thermal
# step, the engine tick with and without applications) and on one
# warm-workspace training minibatch, so an allocation that sneaks past
# escape-analysis reasoning still fails here. The minibatch runs at -cpu
# 1 and 4: inline on the calling goroutine, and split across workers.
for spec in "./internal/thermal BenchmarkNetworkStep" ". BenchmarkEngineTick" \
    ". BenchmarkEngineTickIdle" "./internal/nn BenchmarkNNTrainStep -cpu=1,4"; do
    set -- $spec
    pkg=$1; bench=$2; shift 2
    lines=$(go test -run '^$' -bench "^${bench}\$" -benchmem -benchtime 200x "$@" "$pkg" \
        | grep "^${bench}") || { echo "alloc gate: $bench did not run"; exit 1; }
    printf '%s\n' "$lines" | while read -r line; do
        allocs=$(printf '%s\n' "$line" | awk '{print $(NF-1)}')
        [ "$allocs" = "0" ] || { echo "alloc gate: $bench allocates: $line"; exit 1; }
        echo "$(printf '%s\n' "$line" | awk '{print $1}'): 0 allocs/op"
    done
done
echo "== topil-experiments trace determinism (-j 1 vs -j 8)"
# Sim-time traces must be byte-identical regardless of worker count: the
# spans carry simulated timestamps and the writer orders tracers by name,
# so scheduling may not leak into the file. See docs/OBSERVABILITY.md.
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
go run ./cmd/topil-experiments -quick -fig fig1 -j 1 -trace "$tracedir/j1.json" >/dev/null
go run ./cmd/topil-experiments -quick -fig fig1 -j 8 -trace "$tracedir/j8.json" >/dev/null
cmp "$tracedir/j1.json" "$tracedir/j8.json" || {
    echo "trace determinism: -j 1 and -j 8 traces differ"; exit 1; }
echo "all checks passed"
