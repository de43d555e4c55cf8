package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/journal"
	"repro/internal/serve"
)

// parseJournal decodes journal bytes as OpenJournalStore replays them,
// returning the records of every intact line and how many leading bytes
// they take up.
func parseJournal(data []byte) (recs []serve.JobRecord, good int) {
	good = journal.Scan(data, replayRecord(&recs))
	return recs, good
}

// appendJournalLine renders one record as JournalStore.Append writes it.
func appendJournalLine(buf []byte, rec serve.JobRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return buf, err
	}
	return journal.EncodeLine(buf, payload), nil
}

// FuzzJournalReplay hammers the journal parser with arbitrary bytes. The
// invariants: never panic, never consume more than the input, consumed
// bytes re-parse to the identical records (the parse is a prefix
// function), and a valid record appended after the consumed prefix is
// always recovered — i.e. truncating at `good` really does leave a
// journal every future append composes with.
func FuzzJournalReplay(f *testing.F) {
	var valid []byte
	valid, _ = appendJournalLine(valid, serve.JobRecord{ID: "a", State: serve.StateQueued,
		Req: &serve.SimRequest{Policy: "GTS/ondemand", Duration: 1}})
	valid, _ = appendJournalLine(valid, serve.JobRecord{ID: "a", State: serve.StateDone})
	f.Add(valid)
	f.Add(valid[:len(valid)-7])                                              // torn tail
	f.Add([]byte("00000000 {\"id\":\"x\",\"state\":\"done\"}\n"))            // bad CRC
	f.Add([]byte("zzzzzzzz {}\n"))                                           // bad CRC hex
	f.Add([]byte("deadbeef not json\nmore garbage"))                         // bad JSON
	f.Add([]byte{})                                                          // empty journal
	f.Add([]byte("9e83486e {\"id\":\"\",\"state\":\"queued\"}\n"))           // empty ID
	f.Add(bytes.Repeat([]byte{0}, 64))                                       // binary noise
	f.Add(append(append([]byte(nil), valid...), []byte("ffffffff {}\n")...)) // valid then junk

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good := parseJournal(data)
		if good < 0 || good > len(data) {
			t.Fatalf("good = %d for %d input bytes", good, len(data))
		}
		for _, rec := range recs {
			if rec.ID == "" {
				t.Fatalf("parser admitted a record without an ID: %+v", rec)
			}
		}
		again, againGood := parseJournal(data[:good])
		if againGood != good || len(again) != len(recs) {
			t.Fatalf("prefix re-parse diverged: %d/%d records, %d/%d bytes",
				len(again), len(recs), againGood, good)
		}
		for i := range recs {
			if again[i].ID != recs[i].ID || again[i].State != recs[i].State {
				t.Fatalf("record %d changed across re-parse", i)
			}
		}
		// The truncated journal must accept appends: parse(prefix+line)
		// yields every prefix record plus the new one.
		ext, err := appendJournalLine(append([]byte(nil), data[:good]...),
			serve.JobRecord{ID: "fuzz-append", State: serve.StateRunning})
		if err != nil {
			t.Fatal(err)
		}
		extRecs, extGood := parseJournal(ext)
		if extGood != len(ext) || len(extRecs) != len(recs)+1 {
			t.Fatalf("append after truncation lost records: %d, want %d", len(extRecs), len(recs)+1)
		}
		if last := extRecs[len(extRecs)-1]; last.ID != "fuzz-append" {
			t.Fatalf("appended record not recovered: %+v", last)
		}
	})
}
