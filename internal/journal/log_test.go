package journal_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/journal"
	"repro/internal/online"
	"repro/internal/serve"
)

// seqStore is the smallest store over a journal.Log: each journal line is
// the next sequence number and the snapshot holds the last number folded
// into it. Replay skips the numbers the snapshot already holds, the rule
// every store over a Log needs for a crash between the snapshot install
// and the journal truncate.
type seqStore struct {
	log        *journal.Log
	snap, last int
	replayed   []int // journal numbers applied by the last open
}

const (
	seqJournal  = "seq.log"
	seqSnapshot = "seq.json"
)

func openSeqStore(t *testing.T, dir string) *seqStore {
	t.Helper()
	s := &seqStore{}
	l, err := journal.Open(dir, seqJournal, seqSnapshot,
		func(data []byte) error {
			n, err := strconv.Atoi(string(data))
			s.snap, s.last = n, n
			return err
		},
		func(payload []byte) bool {
			n, err := strconv.Atoi(string(payload))
			if err != nil {
				return false
			}
			if n > s.snap {
				s.last = n
				s.replayed = append(s.replayed, n)
			}
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	s.log = l
	return s
}

func (s *seqStore) append() (int, error) {
	if err := s.log.Append([]byte(strconv.Itoa(s.last + 1))); err != nil {
		return 0, err
	}
	s.last++
	return s.last, nil
}

func (s *seqStore) compact() error {
	if err := s.log.Compact([]byte(strconv.Itoa(s.last))); err != nil {
		return err
	}
	s.snap = s.last
	return nil
}

func TestLogLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store") // Open creates it
	s := openSeqStore(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := s.append(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.log.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.log.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := s.append(); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if err := s.compact(); err == nil {
		t.Fatal("Compact after Close succeeded")
	}
	if err := s.log.Sync(); err != nil {
		t.Fatalf("Sync after Close: %v", err)
	}

	// Reopen replays the journal; tear its tail as a crash mid-append would.
	path := filepath.Join(dir, seqJournal)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, "0badc0de 4"...), 0o644); err != nil {
		t.Fatal(err)
	}
	s = openSeqStore(t, dir)
	if !reflect.DeepEqual(s.replayed, []int{1, 2, 3}) {
		t.Fatalf("replayed %v, want [1 2 3]", s.replayed)
	}
	if onDisk, _ := os.ReadFile(path); string(onDisk) != string(data) {
		t.Fatalf("torn tail not truncated: %q", onDisk)
	}

	// Compact installs the snapshot and empties the journal; appends go on.
	if err := s.compact(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("journal after Compact: %v, %v", fi, err)
	}
	if n, err := s.append(); err != nil || n != 4 {
		t.Fatalf("append after Compact = (%d, %v), want (4, nil)", n, err)
	}
	s.log.Close()
	s = openSeqStore(t, dir)
	defer s.log.Close()
	if s.snap != 3 || s.last != 4 || !reflect.DeepEqual(s.replayed, []int{4}) {
		t.Fatalf("reopen after Compact: snap %d last %d replayed %v", s.snap, s.last, s.replayed)
	}
}

func TestLogOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, seqSnapshot), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := errors.New("bad snapshot")
	_, err := journal.Open(dir, seqJournal, seqSnapshot,
		func([]byte) error { return bad }, func([]byte) bool { return true })
	if !errors.Is(err, bad) {
		t.Fatalf("Open with a rejected snapshot = %v, want it to wrap %v", err, bad)
	}
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := journal.Open(filepath.Join(file, "sub"), seqJournal, seqSnapshot,
		func([]byte) error { return nil }, func([]byte) bool { return true }); err == nil {
		t.Fatal("Open under a regular file succeeded")
	}
}

// crashBeforeTruncate runs compact, then puts the journal at path back as
// it was before: what a crash between the snapshot install and the
// journal truncate leaves on disk. closeStore runs in between, as the
// crash ends the process.
func crashBeforeTruncate(t *testing.T, path string, compact, closeStore func() error) {
	t.Helper()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 {
		t.Fatal("nothing journaled before the compaction")
	}
	if err := compact(); err != nil {
		t.Fatal(err)
	}
	if err := closeStore(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, before, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCompactCrashBeforeTruncate crashes each store over a journal.Log
// after its snapshot is installed and before its journal is truncated.
// Reopening must recover the same state and carry on numbering where it
// left off.
func TestCompactCrashBeforeTruncate(t *testing.T) {
	t.Run("log", func(t *testing.T) {
		dir := t.TempDir()
		s := openSeqStore(t, dir)
		for i := 0; i < 5; i++ {
			if _, err := s.append(); err != nil {
				t.Fatal(err)
			}
		}
		crashBeforeTruncate(t, filepath.Join(dir, seqJournal), s.compact, s.log.Close)
		s = openSeqStore(t, dir)
		defer s.log.Close()
		if s.snap != 5 || s.last != 5 || len(s.replayed) != 0 {
			t.Fatalf("reopen: snap %d last %d replayed %v, want 5, 5, none",
				s.snap, s.last, s.replayed)
		}
		if n, err := s.append(); err != nil || n != 6 {
			t.Fatalf("next append = (%d, %v), want (6, nil)", n, err)
		}
	})

	t.Run("job-store", func(t *testing.T) {
		dir := t.TempDir()
		s, err := cluster.OpenJournalStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		req := serve.SimRequest{Policy: "GTS/ondemand", Duration: 1, NumJobs: 1, Rate: 2, InstrScale: 0.01}
		for _, rec := range []serve.JobRecord{
			{ID: "j-000001", State: serve.StateQueued, Req: &req},
			{ID: "j-000001", State: serve.StateRunning},
			{ID: "j-000001", State: serve.StateDone, Result: &serve.SimResult{Technique: "GTS/ondemand"}},
			{ID: "j-000002", State: serve.StateQueued, Req: &req},
			{ID: "j-000002", State: serve.StateFailed, Err: "boom"},
			{ID: "j-000003", State: serve.StateQueued, Req: &req},
			{ID: "j-000003", State: serve.StateRunning},
		} {
			if err := s.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		recs, _ := s.Replay()
		want := serve.FoldJobRecords(recs)
		crashBeforeTruncate(t, filepath.Join(dir, "journal.log"), s.Compact, s.Close)
		snap, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
		if err != nil {
			t.Fatal(err)
		}

		s, err = cluster.OpenJournalStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// Replay now holds the snapshot and then the records it was folded
		// from; the runner folds them to the same jobs.
		recs, _ = s.Replay()
		if got := serve.FoldJobRecords(recs); !reflect.DeepEqual(got, want) {
			t.Fatalf("recovered jobs diverged:\n got %+v\nwant %+v", got, want)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		if again, _ := os.ReadFile(filepath.Join(dir, "snapshot.json")); string(again) != string(snap) {
			t.Fatalf("re-compacted snapshot differs:\n got %s\nwant %s", again, snap)
		}
		if err := s.Append(serve.JobRecord{ID: "j-000004", State: serve.StateQueued, Req: &req}); err != nil {
			t.Fatal(err)
		}
		if recs, _ = s.Replay(); len(recs) != len(want)+1 || recs[len(recs)-1].ID != "j-000004" {
			t.Fatalf("append after recovery lost: %+v", recs)
		}
	})

	t.Run("sample-log", func(t *testing.T) {
		const capacity, seed = 16, 3
		dir := t.TempDir()
		l, err := online.OpenSampleLog(dir, capacity, seed)
		if err != nil {
			t.Fatal(err)
		}
		var total uint64 // the lifetime append count: the last assigned Seq
		for i := 0; i < 10; i++ {
			s := online.Sample{Origin: online.OriginSim, AoI: "adi", Features: []float64{float64(i)}, Action: i % 8}
			if total, err = l.Append(s); err != nil {
				t.Fatal(err)
			}
		}
		want := l.Since(0)
		crashBeforeTruncate(t, filepath.Join(dir, "samples.log"), l.Compact, l.Close)

		l, err = online.OpenSampleLog(dir, capacity, seed)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if got := l.Since(0); !reflect.DeepEqual(got, want) {
			t.Fatalf("reservoir diverged:\n got %v\nwant %v", got, want)
		}
		if seq, err := l.Append(online.Sample{Origin: online.OriginSim}); err != nil || seq != total+1 {
			t.Fatalf("next Append = (%d, %v), want (%d, nil)", seq, err, total+1)
		}
	})
}
