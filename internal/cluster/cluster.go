// Package cluster shards the serving layer (internal/serve) across
// multiple replicas behind one stateless router, so the paper's
// NPU-accelerated inference service scales past a single device.
//
// The pieces:
//
//   - Ring: a consistent-hash ring with virtual nodes. POST /v1/infer
//     shards by model + feature vector, POST /v1/sim by a router-minted
//     job ID — so GET /v1/jobs/{id} hashes back to the replica that ran
//     the job, and adding a replica only remaps ~1/N of the key space.
//
//   - JournalStore: a durable serve.JobStore — an append-only,
//     CRC-guarded, fsync-per-record journal plus a compacting snapshot —
//     so a replica restarted after SIGKILL replays its job history and
//     every accepted job still reaches a terminal state.
//
//   - Router: the stateless HTTP frontend. It polls replica /v1/healthz
//     for queue fill, sheds load with 429 + Retry-After when the
//     preference list is saturated, retries transport failures on the
//     ring's successor nodes with jittered backoff, and forwards (never
//     regenerates) X-Request-Id so one correlation ID spans the hop.
//
//   - Replica / ReplicaSet: in-process replicas for tests and the
//     single-binary topil-cluster mode, with an abrupt Kill that models a
//     machine loss (journal frozen mid-write, sockets slammed shut).
//
//   - RunLoad: the open/closed-loop load generator behind topil-loadgen
//     and scripts/check.sh cluster-smoke; it drives the router at a
//     configured arrival rate (constant, bursty or diurnal), honors
//     Retry-After in closed-loop mode, and reports latency quantiles
//     machine-readably.
//
// The router holds no job state: every durable fact lives in a replica's
// journal. Killing the router loses nothing; killing a replica loses only
// availability until it restarts and replays.
package cluster
