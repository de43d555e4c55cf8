package experiments

import (
	"io"
	"strings"
)

// CSVFile is one CSV artifact an experiment writes.
type CSVFile struct {
	Name  string
	Write func(io.Writer) error
}

// Experiment is one entry of the figure suite: a name and a run that
// returns the experiment's report text and its CSV files.
type Experiment struct {
	Name string
	run  func(f figures) (string, []CSVFile, error)
}

// Run runs the experiment on p.
func (e Experiment) Run(p *Pipeline) (string, []CSVFile, error) { return e.run(p) }

// figures is what the catalogue runs. *Pipeline implements it; the
// package's tests substitute a memoizing wrapper, so the golden report and
// the per-figure tests share one run of each figure.
type figures interface {
	Fig1Motivational() (*Fig1Result, error)
	Fig3GridSearch() (*Fig3Result, error)
	Fig5MigrationOverhead() (*Fig5Result, error)
	Fig7Illustrative() (*Fig7Result, error)
	Fig8Main(fan bool) (*Fig8Result, error)
	Fig11SingleApp() (*Fig11Result, error)
	Fig12Overhead() (*Fig12Result, error)
	ModelEvaluation() (*ModelEvalResult, error)
	EnergyAnalysis() (*EnergyResult, error)
	DatasetAblations() ([]*AblationResult, error)
	AblationDVFSStep() (*AblationResult, error)
}

// Catalogue returns the paper's evaluation in report order. It is the only
// definition of which experiments make up the report and which CSV files
// each writes. fig8b also prints Fig. 10.
func Catalogue() []Experiment {
	return []Experiment{
		withCSV("fig1", "fig1.csv", figures.Fig1Motivational),
		textOnly("fig3", figures.Fig3GridSearch),
		withCSV("fig5", "fig5.csv", figures.Fig5MigrationOverhead),
		withCSV("fig7", "fig7.csv", figures.Fig7Illustrative),
		withCSV("fig8a", "fig8a.csv", func(f figures) (*Fig8Result, error) { return f.Fig8Main(true) }),
		{"fig8b", func(f figures) (string, []CSVFile, error) {
			r, err := f.Fig8Main(false)
			if err != nil {
				return "", nil, err
			}
			return r.Render() + "\n" + r.RenderFig10(),
				[]CSVFile{{"fig8b.csv", r.WriteCSV}, {"fig10.csv", r.WriteFig10CSV}}, nil
		}},
		withCSV("fig11", "fig11.csv", figures.Fig11SingleApp),
		withCSV("fig12", "fig12.csv", figures.Fig12Overhead),
		textOnly("modeleval", figures.ModelEvaluation),
		withCSV("energy", "energy.csv", figures.EnergyAnalysis),
		{"ablations", func(f figures) (string, []CSVFile, error) {
			rs, err := f.DatasetAblations()
			if err != nil {
				return "", nil, err
			}
			dvfs, err := f.AblationDVFSStep()
			if err != nil {
				return "", nil, err
			}
			var b strings.Builder
			for _, r := range append(rs, dvfs) {
				b.WriteString(r.Render() + "\n")
			}
			return b.String(), nil, nil
		}},
	}
}

// textOnly is an entry whose report is the result's Render and which
// writes no CSV file.
func textOnly[R interface{ Render() string }](name string, run func(figures) (R, error)) Experiment {
	return Experiment{name, func(f figures) (string, []CSVFile, error) {
		r, err := run(f)
		if err != nil {
			return "", nil, err
		}
		return r.Render(), nil, nil
	}}
}

// withCSV is an entry whose report is the result's Render and whose one
// CSV file, named csv, is the result's WriteCSV.
func withCSV[R interface {
	Render() string
	WriteCSV(io.Writer) error
}](name, csv string, run func(figures) (R, error)) Experiment {
	return Experiment{name, func(f figures) (string, []CSVFile, error) {
		r, err := run(f)
		if err != nil {
			return "", nil, err
		}
		return r.Render(), []CSVFile{{csv, r.WriteCSV}}, nil
	}}
}
