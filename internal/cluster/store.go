package cluster

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/journal"
	"repro/internal/serve"
)

// Journal file layout inside a store directory:
//
//	journal.log    one "<crc32 hex> <record json>\n" line per Append
//	snapshot.json  JSON array of folded records, rewritten by Compact
//
// Append is fsynced before it returns, so a record the runner journaled is
// on disk before the state transition becomes observable over HTTP — the
// "202 implies durable" contract. The files themselves are a journal.Log.
const (
	journalName  = "journal.log"
	snapshotName = "snapshot.json"
)

// defaultCompactEvery is the journal length that triggers auto-compaction.
const defaultCompactEvery = 1024

// JournalStore is the durable serve.JobStore: an append-only CRC-guarded
// journal plus a compacting snapshot. It tolerates the crash modes a
// SIGKILLed replica produces — a torn final line is truncated on the next
// open, records whose CRC does not match are cut off (everything after an
// unreadable record is untrusted, since ordering is the journal's whole
// point), and a missing journal or snapshot is simply empty history.
//
// Close freezes the store: subsequent Appends fail. Replica.Kill closes
// the store *first*, so an in-process "crash" cannot journal terminal
// records for jobs that were mid-flight — exactly what a real power loss
// looks like to the journal.
type JournalStore struct {
	mu           sync.Mutex
	log          *journal.Log
	compactEvery int               // journal records that trigger Compact; <= 0 never
	snapshot     []serve.JobRecord // folded records as of the last compaction
	tail         []serve.JobRecord // journal records since the snapshot
}

// OpenJournalStore opens (creating if needed) the store in dir, replaying
// the snapshot and journal and truncating any torn journal tail.
func OpenJournalStore(dir string) (*JournalStore, error) {
	s := &JournalStore{compactEvery: defaultCompactEvery}
	l, err := journal.Open(dir, journalName, snapshotName,
		func(data []byte) error { return json.Unmarshal(data, &s.snapshot) },
		replayRecord(&s.tail))
	if err != nil {
		return nil, fmt.Errorf("cluster: opening job store: %w", err)
	}
	s.log = l
	return s, nil
}

// replayRecord returns a journal.Scan callback that appends each decoded
// record to recs. A payload that is not JSON, or a record without an ID,
// ends the replay: everything after it is untrusted.
func replayRecord(recs *[]serve.JobRecord) func(payload []byte) bool {
	return func(payload []byte) bool {
		var rec serve.JobRecord
		if json.Unmarshal(payload, &rec) != nil || rec.ID == "" {
			return false
		}
		*recs = append(*recs, rec)
		return true
	}
}

// Append journals one record durably: the line is written and fsynced
// before Append returns. Implements serve.JobStore.
func (s *JournalStore) Append(rec serve.JobRecord) error {
	if rec.ID == "" {
		return fmt.Errorf("cluster: journal record without an ID")
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("cluster: encoding journal record: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.log.Append(payload); err != nil {
		return fmt.Errorf("cluster: appending journal: %w", err)
	}
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("cluster: syncing journal: %w", err)
	}
	s.tail = append(s.tail, rec)
	if s.compactEvery > 0 && len(s.tail) >= s.compactEvery {
		// The journal itself is intact if compaction fails; it is retried
		// on the next threshold crossing.
		_ = s.compactLocked()
	}
	return nil
}

// Replay returns every surviving record in append order (snapshot records
// first — each is one job's folded history — then the journal tail).
// Implements serve.JobStore.
func (s *JournalStore) Replay() ([]serve.JobRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]serve.JobRecord, 0, len(s.snapshot)+len(s.tail))
	out = append(out, s.snapshot...)
	out = append(out, s.tail...)
	return out, nil
}

// Compact folds the journal into the snapshot — one record per job, by
// serve.FoldJobRecords — after which the journal is truncated. Bounded
// restart cost no matter how many transitions the replica has journaled.
func (s *JournalStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

// compactLocked does the work of Compact. Callers hold s.mu.
func (s *JournalStore) compactLocked() error {
	folded := serve.FoldJobRecords(append(append([]serve.JobRecord(nil), s.snapshot...), s.tail...))
	data, err := json.MarshalIndent(folded, "", " ")
	if err != nil {
		return fmt.Errorf("cluster: encoding snapshot: %w", err)
	}
	if err := s.log.Compact(data); err != nil {
		return fmt.Errorf("cluster: compacting journal: %w", err)
	}
	s.snapshot = folded
	s.tail = nil
	return nil
}

// Close freezes the store (Appends fail from here on) and releases the
// journal file. Closing twice is fine. Replica.Kill uses Close as the
// crash barrier: nothing can reach the journal after it.
func (s *JournalStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}
