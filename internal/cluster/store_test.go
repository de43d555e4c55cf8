package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

func queuedRec(id string) serve.JobRecord {
	req := serve.SimRequest{Policy: "GTS/ondemand", Duration: 1, NumJobs: 1, Rate: 2, InstrScale: 0.01}
	return serve.JobRecord{ID: id, State: serve.StateQueued, Req: &req}
}

func TestJournalStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenJournalStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := []serve.JobRecord{
		queuedRec("a"),
		{ID: "a", State: serve.StateRunning},
		{ID: "a", State: serve.StateDone, Result: &serve.SimResult{Technique: "GTS/ondemand"}},
		queuedRec("b"),
	}
	for _, rec := range recs {
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(queuedRec("c")); err == nil {
		t.Fatal("append after Close succeeded")
	}

	// A fresh open — the post-crash path — replays everything.
	s2, err := OpenJournalStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i, rec := range recs {
		if got[i].ID != rec.ID || got[i].State != rec.State {
			t.Errorf("record %d = %+v, want %+v", i, got[i], rec)
		}
	}
	if got[2].Result == nil || got[2].Result.Technique != "GTS/ondemand" {
		t.Errorf("done record lost its result: %+v", got[2])
	}
}

// TestJournalGolden pins the on-disk line format: CRC32-prefixed JSON,
// one record per line. A format drift would silently orphan every
// existing journal, so the bytes themselves are the contract.
func TestJournalGolden(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenJournalStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(serve.JobRecord{ID: "g-1", State: serve.StateRunning}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	const want = "28f5884a {\"id\":\"g-1\",\"state\":\"running\"}\n"
	if string(data) != want {
		t.Fatalf("journal bytes drifted:\n got %q\nwant %q", data, want)
	}

	// The queued record carries the request as the runner stored it, with
	// every default filled in; replaying it must reproduce the same run.
	dir = t.TempDir()
	if s, err = OpenJournalStore(dir); err != nil {
		t.Fatal(err)
	}
	r := serve.NewRunner(serve.NewRegistry(t.TempDir()), 1, 1, nil, s)
	if _, err := r.SubmitID("g-2", serve.SimRequest{Policy: "GTS/ondemand"}); err != nil {
		t.Fatal(err)
	}
	r.Shutdown(context.Background())
	s.Close()
	if data, err = os.ReadFile(filepath.Join(dir, journalName)); err != nil {
		t.Fatal(err)
	}
	const wantQueued = `c2368536 {"id":"g-2","state":"queued","req":{"policy":"GTS/ondemand",` +
		`"backend":"npu","duration":60,"seed":1,"numJobs":8,"rate":0.1,"instrScale":0.1}}`
	var queued string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, `"state":"queued"`) {
			queued = line
		}
	}
	if queued != wantQueued {
		t.Fatalf("queued journal bytes drifted:\n got %q\nwant %q", queued, wantQueued)
	}
}

func TestJournalStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenJournalStore(dir)
	s.Append(queuedRec("a"))
	s.Append(serve.JobRecord{ID: "a", State: serve.StateRunning})
	s.Close()

	path := filepath.Join(dir, journalName)
	data, _ := os.ReadFile(path)

	cases := []struct {
		name string
		tail string
	}{
		{"half-line", "deadbeef {\"id\":\"a\",\"sta"},
		{"bad-crc", "00000000 {\"id\":\"a\",\"state\":\"done\"}\n"},
		{"bad-json", "11111111 not json at all\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := os.WriteFile(path, append(append([]byte(nil), data...), c.tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			s2, err := OpenJournalStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			recs, _ := s2.Replay()
			if len(recs) != 2 {
				t.Fatalf("replayed %d records, want the 2 intact ones", len(recs))
			}
			// The torn tail must be gone from disk so the next append
			// starts a clean line.
			onDisk, _ := os.ReadFile(path)
			if string(onDisk) != string(data) {
				t.Fatalf("torn tail not truncated: %q", onDisk)
			}
			if err := s2.Append(serve.JobRecord{ID: "a", State: serve.StateDone}); err != nil {
				t.Fatal(err)
			}
			s2.Close()
			s3, err := OpenJournalStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s3.Close()
			recs, _ = s3.Replay()
			if len(recs) != 3 || recs[2].State != serve.StateDone {
				t.Fatalf("post-truncation append lost: %+v", recs)
			}
		})
	}
}

func TestJournalStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenJournalStore(dir)
	s.compactEvery = 0 // manual
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("job-%d", i)
		s.Append(queuedRec(id))
		s.Append(serve.JobRecord{ID: id, State: serve.StateDone, Result: &serve.SimResult{}})
	}
	if len(s.tail) != 20 {
		t.Fatalf("journal tail = %d", len(s.tail))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if len(s.tail) != 0 {
		t.Fatalf("journal not truncated after compaction: %d", len(s.tail))
	}
	recs, _ := s.Replay()
	if len(recs) != 10 {
		t.Fatalf("compaction folded to %d records, want 10 (one per job)", len(recs))
	}
	for i, rec := range recs {
		if rec.State != serve.StateDone || rec.Req == nil || rec.Result == nil {
			t.Errorf("folded record %d incomplete: %+v", i, rec)
		}
	}
	// Appends continue after compaction and survive reopen.
	s.Append(queuedRec("post-compact"))
	s.Close()
	s2, err := OpenJournalStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, _ = s2.Replay()
	if len(recs) != 11 || recs[10].ID != "post-compact" {
		t.Fatalf("post-compaction state lost across reopen: %d records", len(recs))
	}
}

func TestJournalStoreAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenJournalStore(dir)
	defer s.Close()
	s.compactEvery = 8
	for i := 0; i < 20; i++ {
		if err := s.Append(queuedRec(fmt.Sprintf("j-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.tail); got >= 8 {
		t.Fatalf("auto-compaction never fired: tail = %d", got)
	}
	recs, _ := s.Replay()
	if len(recs) != 20 {
		t.Fatalf("records lost across auto-compaction: %d", len(recs))
	}
}

// TestRunnerCrashRecoveryWithJournalStore is the satellite's golden
// crash-recovery path end to end: a real Runner journaling into a real
// JournalStore is "SIGKILLed" (store frozen mid-job, runner abandoned),
// and a fresh Runner over the same directory must finish every accepted
// job.
func TestRunnerCrashRecoveryWithJournalStore(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenJournalStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(t.TempDir())
	r1 := serve.NewRunner(reg, 1, 8, nil, store)
	// One slow job occupies the worker; three quick ones queue behind it.
	slow := serve.SimRequest{Policy: "GTS/ondemand", Duration: 86400, NumJobs: 256, Rate: 100, InstrScale: 100}
	if _, err := r1.SubmitID("crash-slow", slow); err != nil {
		t.Fatal(err)
	}
	quick := serve.SimRequest{Policy: "GTS/ondemand", Duration: 1, NumJobs: 1, Rate: 2, InstrScale: 0.01}
	for i := 0; i < 3; i++ {
		if _, err := r1.SubmitID(fmt.Sprintf("crash-q%d", i), quick); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // let the worker pick up the slow job

	// Crash: freeze the journal first (a dead machine writes nothing),
	// then tear the runner down without draining.
	store.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	r1.Shutdown(ctx)
	cancel()

	// Restart over the same directory.
	store2, err := OpenJournalStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	r2 := serve.NewRunner(reg, 2, 8, nil, store2)
	defer r2.Shutdown(context.Background())
	// The slow job replays too; cancel it so the test ends promptly —
	// canceled is a terminal state, which is all the guarantee promises.
	r2.Cancel("crash-slow")
	deadline := time.Now().Add(30 * time.Second)
	for _, id := range []string{"crash-slow", "crash-q0", "crash-q1", "crash-q2"} {
		for {
			j, ok := r2.Get(id)
			if !ok {
				t.Fatalf("job %s lost across the crash", id)
			}
			st := j.Snapshot().State
			if st == serve.StateDone || st == serve.StateFailed || st == serve.StateCanceled {
				if strings.HasPrefix(id, "crash-q") && st != serve.StateDone {
					t.Fatalf("job %s = %s (%s), want done", id, st, j.Snapshot().Error)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s after recovery", id, st)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func TestJournalStoreRejectsBadRecords(t *testing.T) {
	s, _ := OpenJournalStore(t.TempDir())
	defer s.Close()
	if err := s.Append(serve.JobRecord{State: serve.StateQueued}); err == nil {
		t.Error("record without ID accepted")
	}
}

func TestOpenJournalStoreCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournalStore(dir); err == nil {
		t.Fatal("corrupt snapshot silently accepted")
	}
}
