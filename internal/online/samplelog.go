package online

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/journal"
)

// Sample log file layout inside a log directory:
//
//	samples.log    one "<crc32 hex> <sample json>\n" line per Append
//	samples.json   snapshot {"total": N, "samples": [...]}, rewritten by Compact
//
// The journal records every append; the retained reservoir is a pure
// function of (seed, the journaled Seq stream), so replaying snapshot +
// journal reconstructs the exact in-memory state. Appends are not fsynced
// one by one — Sync flushes them at cycle boundaries. The files are a
// journal.Log, like the cluster job journal's, so a torn or corrupt tail
// is truncated to the last intact line on the next open.
const (
	logName      = "samples.log"
	snapshotName = "samples.json"
)

// DefaultSampleCap bounds the retained reservoir.
const DefaultSampleCap = 4096

// defaultCompactEvery is the journal length that triggers auto-compaction.
const defaultCompactEvery = 8192

// logSnapshot is the compacted on-disk state.
type logSnapshot struct {
	Total   uint64   `json:"total"`
	Samples []Sample `json:"samples"`
}

// SampleLog is the bounded durable record of visited states. Retention is
// reservoir sampling (algorithm R) with a stateless twist: the decision
// for lifetime index s uses an RNG seeded by mix(seed, s), so it depends
// only on (seed, Seq) — no RNG state to serialize, and journal replay
// reproduces the reservoir exactly.
type SampleLog struct {
	cap  int
	seed int64

	mu           sync.Mutex
	log          *journal.Log
	compactEvery int    // journal lines that trigger Compact; <= 0 never
	total        uint64 // lifetime appends == last assigned Seq
	snapTotal    uint64 // total as of the last compaction
	samples      []Sample
	tailLen      int // journal lines since the last compaction
}

// OpenSampleLog opens (creating if needed) the log in dir with the given
// reservoir capacity and seed, replaying snapshot and journal and
// truncating any torn journal tail. The same (cap, seed) must be used
// across reopens for the reservoir to stay consistent with its journal.
func OpenSampleLog(dir string, capacity int, seed int64) (*SampleLog, error) {
	if capacity <= 0 {
		capacity = DefaultSampleCap
	}
	l := &SampleLog{cap: capacity, seed: seed, compactEvery: defaultCompactEvery}
	jl, err := journal.Open(dir, logName, snapshotName, l.loadSnapshot, func(payload []byte) bool {
		var s Sample
		if json.Unmarshal(payload, &s) != nil || s.Seq == 0 {
			return false
		}
		// Journal lines already folded into the snapshot replay as no-ops.
		if s.Seq > l.snapTotal {
			l.applyLocked(s)
			l.tailLen++
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("online: opening sample log: %w", err)
	}
	l.log = jl
	return l, nil
}

// loadSnapshot restores the state a compaction saved.
func (l *SampleLog) loadSnapshot(data []byte) error {
	var snap logSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return err
	}
	l.total = snap.Total
	l.snapTotal = snap.Total
	l.samples = snap.Samples
	return nil
}

// reservoirSlot returns the replacement slot for the sample with lifetime
// index seq (1-based) in a reservoir of the given capacity, or -1 to drop
// it. Pure function of (seed, seq, capacity): algorithm R with the RNG
// reseeded per decision.
func reservoirSlot(seed int64, seq uint64, capacity int) int {
	j := rand.New(rand.NewSource(seed ^ splitmix(seq))).Int63n(int64(seq))
	if j < int64(capacity) {
		return int(j)
	}
	return -1
}

// splitmix finalizes seq into well-distributed seed bits (splitmix64).
func splitmix(x uint64) int64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64(x ^ (x >> 31))
}

// applyLocked folds one journaled sample into the reservoir.
func (l *SampleLog) applyLocked(s Sample) {
	if s.Seq > l.total {
		l.total = s.Seq
	}
	if len(l.samples) < l.cap {
		l.samples = append(l.samples, s)
		return
	}
	if slot := reservoirSlot(l.seed, s.Seq, l.cap); slot >= 0 {
		l.samples[slot] = s
	}
}

// Append assigns the next lifetime Seq to the sample, journals it
// (buffered — see Sync) and folds it into the reservoir. It returns the
// assigned Seq.
func (l *SampleLog) Append(s Sample) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s.Seq = l.total + 1
	payload, err := json.Marshal(s)
	if err != nil {
		return 0, fmt.Errorf("online: encoding sample: %w", err)
	}
	if err := l.log.Append(payload); err != nil {
		return 0, fmt.Errorf("online: appending sample journal: %w", err)
	}
	l.applyLocked(s)
	l.tailLen++
	if l.compactEvery > 0 && l.tailLen >= l.compactEvery {
		// Journal stays intact if compaction fails; retried next crossing.
		_ = l.compactLocked()
	}
	return s.Seq, nil
}

// Sync flushes buffered appends to stable storage — the cycle-boundary
// durability point (per-sample fsync would throttle the sim hot path).
func (l *SampleLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.Sync()
}

// Compact folds the journal into an atomically installed snapshot and
// truncates the journal — bounded reopen cost for long-lived daemons.
func (l *SampleLog) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.compactLocked()
}

// compactLocked does the work of Compact. Callers hold l.mu.
func (l *SampleLog) compactLocked() error {
	data, err := json.Marshal(logSnapshot{Total: l.total, Samples: l.samples})
	if err != nil {
		return fmt.Errorf("online: encoding sample snapshot: %w", err)
	}
	if err := l.log.Compact(data); err != nil {
		return fmt.Errorf("online: compacting sample log: %w", err)
	}
	l.snapTotal = l.total
	l.tailLen = 0
	return nil
}

// Since returns copies of the retained samples with Seq > after, ascending
// by Seq — the trainer's per-cycle drain.
func (l *SampleLog) Since(after uint64) []Sample {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Sample
	for _, s := range l.samples {
		if s.Seq > after {
			out = append(out, s)
		}
	}
	// The reservoir replaces in place, so retained samples are not in Seq
	// order; restore it (insertion sort — drains are small and near-sorted).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Seq > out[j].Seq; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// Close flushes and releases the journal file; Appends fail from here on.
// Closing twice is fine.
func (l *SampleLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return errors.Join(l.log.Sync(), l.log.Close())
}
