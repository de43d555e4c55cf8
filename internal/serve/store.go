package serve

import (
	"fmt"
	"strconv"
	"strings"
)

// JobRecord is one journaled job transition. The queued record carries the
// full request (so an interrupted job can be re-executed after a restart);
// terminal records carry the outcome. Replaying the sequence of records
// for one ID in append order reproduces the job's lifecycle.
type JobRecord struct {
	ID     string      `json:"id"`
	State  JobState    `json:"state"`
	Req    *SimRequest `json:"req,omitempty"`    // set on the queued record
	Err    string      `json:"error,omitempty"`  // set on the failed record
	Result *SimResult  `json:"result,omitempty"` // set on the done record
}

// JobStore persists job transitions so GET /v1/jobs/{id} survives a
// replica restart. Implementations must make Append durable before
// returning (the cluster layer's journal fsyncs every record) and must be
// safe for concurrent Append calls from multiple workers. Replay returns
// every surviving record in append order; a torn tail from a crash
// mid-write is truncated, not an error.
type JobStore interface {
	Append(rec JobRecord) error
	Replay() ([]JobRecord, error)
}

// FoldJobRecords reduces journaled records to one record per job, in
// first-appearance order: the queued request plus the last observed state,
// error and result. Records of a job whose queued record was lost (a torn
// journal) are dropped: there is no request to re-execute and no client
// holding that ID from this incarnation. The runner folds the replayed
// journal on recovery; the cluster journal folds into its snapshot on
// compaction. With each job's queued record first, as the runner journals
// it, folding a snapshot followed by the records it was folded from gives
// the snapshot again, so a crash between the snapshot install and the
// journal truncate recovers the same jobs.
func FoldJobRecords(recs []JobRecord) []JobRecord {
	out := []JobRecord{}
	at := make(map[string]int)
	for _, rec := range recs {
		i, ok := at[rec.ID]
		if !ok {
			if rec.Req != nil {
				at[rec.ID] = len(out)
				out = append(out, rec)
			}
			continue
		}
		j := &out[i]
		j.State = rec.State
		if rec.Req != nil {
			j.Req = rec.Req
		}
		if rec.Err != "" {
			j.Err = rec.Err
		}
		if rec.Result != nil {
			j.Result = rec.Result
		}
	}
	return out
}

// isTerminal reports whether a state ends the job lifecycle.
func isTerminal(st JobState) bool {
	return st == StateDone || st == StateFailed || st == StateCanceled
}

// maxRunnerSeq extracts the largest runner-minted sequence number
// ("j-%06d") among the given IDs, so a recovered runner keeps minting
// fresh IDs. Externally minted IDs (the cluster router's) never collide
// with the runner's prefix and are ignored.
func maxRunnerSeq(ids []string) int {
	max := 0
	for _, id := range ids {
		rest, ok := strings.CutPrefix(id, "j-")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(rest)
		if err == nil && n > max {
			max = n
		}
	}
	return max
}

// validJobID guards externally supplied job IDs (the cluster router mints
// them): URL-safe charset, bounded length, never empty.
func validJobID(id string) error {
	if id == "" || len(id) > 64 {
		return fmt.Errorf("serve: job id must be 1-64 characters")
	}
	if id == "." || id == ".." {
		return fmt.Errorf("serve: job id %q is reserved", id)
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("serve: job id %q has invalid character %q", id, r)
		}
	}
	return nil
}
