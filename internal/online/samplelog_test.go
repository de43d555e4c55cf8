package online

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func mkSample(i int) Sample {
	return Sample{
		Origin:       OriginSim,
		AoI:          "adi",
		Features:     []float64{float64(i), float64(2 * i)},
		Action:       i % 8,
		QoS:          1e9 + float64(i),
		ClusterFreqs: []float64{1.8e9, 2.4e9},
	}
}

func TestSampleLogReopenReproducesReservoir(t *testing.T) {
	const n, capacity, seed = 50, 8, 42

	dirA, dirB := t.TempDir(), t.TempDir()
	a, err := OpenSampleLog(dirA, capacity, seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenSampleLog(dirB, capacity, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := a.Append(mkSample(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Append(mkSample(i)); err != nil {
			t.Fatal(err)
		}
		// Close/reopen A every 13 appends: replay must reconstruct the
		// exact reservoir the uninterrupted log B holds.
		if i%13 == 12 {
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if a, err = OpenSampleLog(dirA, capacity, seed); err != nil {
				t.Fatalf("reopen after %d appends: %v", i+1, err)
			}
		}
	}
	if a.total != n || b.total != n {
		t.Fatalf("totals = %d, %d, want %d", a.total, b.total, n)
	}
	if got, want := a.Since(0), b.Since(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened reservoir diverged:\n got %v\nwant %v", got, want)
	}
	if len(a.samples) != capacity {
		t.Fatalf("reservoir len = %d, want %d", len(a.samples), capacity)
	}
	a.Close()
	b.Close()
}

func TestSampleLogTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSampleLog(dir, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(mkSample(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the journal mid-line, as a crash during an append would.
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	l, err = OpenSampleLog(dir, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.total != 4 || len(l.samples) != 4 {
		t.Fatalf("after torn tail: total %d len %d, want 4, 4", l.total, len(l.samples))
	}
	// The torn bytes must be gone so appends extend an intact journal.
	seq, err := l.Append(mkSample(99))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 5 {
		t.Fatalf("post-truncation Seq = %d, want 5", seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = OpenSampleLog(dir, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := l.Since(0)
	if len(got) != 5 || got[4].Seq != 5 || got[4].Features[0] != 99 {
		t.Fatalf("reopen after repair lost data: %v", got)
	}
}

func TestSampleLogCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSampleLog(dir, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	l.compactEvery = 10
	for i := 0; i < 25; i++ {
		if _, err := l.Append(mkSample(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Since(0)
	// 25 appends with threshold 10 → at least two auto-compactions; the
	// journal tail holds only the appends since the last one.
	fi, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		// Possible only if append 25 triggered compaction; threshold math
		// says otherwise.
		t.Fatalf("journal unexpectedly empty")
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("snapshot missing after auto-compaction: %v", err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	fi, err = os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("journal not truncated by Compact: %d bytes", fi.Size())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = OpenSampleLog(dir, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.total != 25 {
		t.Fatalf("total after compacted reopen = %d, want 25", l.total)
	}
	if got := l.Since(0); !reflect.DeepEqual(got, before) {
		t.Fatalf("compaction changed the reservoir:\n got %v\nwant %v", got, before)
	}
	// Seq numbering continues across the snapshot boundary.
	if seq, err := l.Append(mkSample(25)); err != nil || seq != 26 {
		t.Fatalf("Append after compacted reopen = (%d, %v), want (26, nil)", seq, err)
	}
}

func TestSampleLogRejectsAppendAfterClose(t *testing.T) {
	l, err := OpenSampleLog(t.TempDir(), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := l.Append(mkSample(0)); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync after Close: %v", err)
	}
}
