package experiments

import (
	"encoding/csv"
	"io"
	"strconv"
)

// CSV exporters: every figure's data in machine-readable long form, for
// users who want to re-plot the evaluation with their own tooling.
// cmd/topil-experiments -csvdir writes one file per experiment.

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// writeCSV writes the header and then the rows.
func writeCSV(w io.Writer, header []string, rows [][]string) error {
	return csv.NewWriter(w).WriteAll(append([][]string{header}, rows...))
}

// WriteCSV emits one row per (app, scenario, mapping).
func (r *Fig1Result) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.App, strconv.Itoa(row.Scenario),
			row.Mapping, fmtF(row.FLittle), fmtF(row.FBig), fmtF(row.AvgTemp)})
	}
	return writeCSV(w, []string{"app", "scenario", "mapping",
		"f_little_hz", "f_big_hz", "avg_temp"}, rows)
}

// WriteCSV emits one row per application plus a summary row.
func (r *Fig5Result) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.App, fmtF(row.Overhead)})
	}
	rows = append(rows, []string{"__average__", fmtF(r.Average)})
	return writeCSV(w, []string{"app", "overhead"}, rows)
}

// WriteCSV emits one row per (technique, arrival rate).
func (r *Fig8Result) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, c := range r.Cells {
		rows = append(rows, []string{c.Technique, fmtF(c.ArrivalRate),
			strconv.FormatBool(r.Fan), fmtF(c.AvgTemp.Mean), fmtF(c.AvgTemp.Std),
			fmtF(c.PeakTemp.Mean), fmtF(c.Violations.Mean), fmtF(c.Violations.Std),
			fmtF(c.AvgUtil.Mean), fmtF(c.ThrottleSec.Mean)})
	}
	return writeCSV(w, []string{"technique", "arrival_rate", "fan",
		"avg_temp_mean", "avg_temp_std", "peak_temp_mean", "violations_mean",
		"violations_std", "avg_util", "throttle_s"}, rows)
}

// WriteFig10CSV emits one row per (technique, cluster, VF level).
func (r *Fig8Result) WriteFig10CSV(w io.Writer) error {
	var rows [][]string
	for _, tech := range Techniques() {
		for ci, levels := range r.CPUTime[tech] {
			for li, v := range levels {
				rows = append(rows, []string{tech, strconv.Itoa(ci), strconv.Itoa(li), fmtF(v)})
			}
		}
	}
	return writeCSV(w, []string{"technique", "cluster", "level", "cpu_seconds"}, rows)
}

// WriteCSV emits one row per (application, technique).
func (r *Fig11Result) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.App, row.Technique,
			fmtF(row.AvgTemp.Mean), fmtF(row.AvgTemp.Std),
			strconv.Itoa(row.Violations), strconv.Itoa(row.Runs)})
	}
	return writeCSV(w, []string{"app", "technique", "avg_temp_mean",
		"avg_temp_std", "violating_runs", "runs"}, rows)
}

// WriteCSV emits one row per application count.
func (r *Fig12Result) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{strconv.Itoa(row.Apps),
			fmtF(row.DVFSMsPerSec), fmtF(row.MigrationMsPerSec),
			fmtF(row.DVFSMsPerCall), fmtF(row.MigrationMsPerCall),
			fmtF(row.CPUMigrationMsPerCall)})
	}
	return writeCSV(w, []string{"apps", "dvfs_ms_per_s", "migration_ms_per_s",
		"dvfs_ms_per_call", "migration_ms_per_call_npu",
		"migration_ms_per_call_cpu"}, rows)
}

// WriteCSV emits one row per (technique, epoch sample) of the mapping
// traces (1 = big cluster, 0 = LITTLE).
func (r *Fig7Result) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, tr := range r.Traces {
		for i, onBig := range tr.OnBig {
			v := "0"
			if onBig {
				v = "1"
			}
			rows = append(rows, []string{tr.App, tr.Technique, strconv.Itoa(i), v})
		}
	}
	return writeCSV(w, []string{"app", "technique", "epoch", "on_big"}, rows)
}

// WriteCSV emits one row per technique.
func (r *EnergyResult) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Technique, fmtF(r.Rate),
			fmtF(row.TotalJ.Mean), fmtF(row.LittleJ.Mean), fmtF(row.BigJ.Mean),
			fmtF(row.AvgTemp.Mean), fmtF(row.Violations.Mean),
			fmtF(row.Makespan.Mean)})
	}
	return writeCSV(w, []string{"technique", "rate", "total_j", "little_j",
		"big_j", "avg_temp", "violations", "makespan_s"}, rows)
}
