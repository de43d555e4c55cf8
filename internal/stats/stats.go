// Package stats provides the small statistical and text-reporting helpers
// used by the experiment harness: mean/stddev aggregation across repeated
// runs (the paper reports mean and standard deviation over three models
// trained with different seeds) and aligned text tables for experiment
// output.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the sample standard deviation of xs (0 for fewer than two
// values).
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// MeanStd returns both moments.
func MeanStd(xs []float64) (mean, std float64) {
	return Mean(xs), Std(xs)
}

// Min returns the minimum of xs; it panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Summary is a mean ± std pair with a compact printer.
type Summary struct {
	Mean float64
	Std  float64
}

// Summarize aggregates xs into a Summary.
func Summarize(xs []float64) Summary {
	m, s := MeanStd(xs)
	return Summary{Mean: m, Std: s}
}

// String formats as "12.3±0.4".
func (s Summary) String() string {
	return fmt.Sprintf("%.1f±%.1f", s.Mean, s.Std)
}

// Table renders rows as an aligned text table; the first row is the header,
// separated by a rule.
type Table struct {
	rows [][]string
}

// NewTable creates a table with the given header.
func NewTable(header ...string) *Table {
	t := &Table{}
	t.rows = append(t.rows, header)
	return t
}

// AddRow appends a row; cells beyond the header width are kept (the table
// grows), missing cells render empty.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// String renders the table.
func (t *Table) String() string {
	width := 0
	for _, r := range t.rows {
		if len(r) > width {
			width = len(r)
		}
	}
	colW := make([]int, width)
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > colW[i] {
				colW[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(r []string) {
		for i := 0; i < width; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", colW[i]-len(c)))
		}
		b.WriteString("\n")
	}
	writeRow(t.rows[0])
	total := 0
	for _, w := range colW {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(width-1)))
	b.WriteString("\n")
	for _, r := range t.rows[1:] {
		writeRow(r)
	}
	return b.String()
}
