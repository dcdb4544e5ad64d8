// Package metrics provides the small statistics and report-formatting
// toolkit shared by the experiment harness: summaries of integer series and
// aligned text tables.
package metrics

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
)

// Summary condenses an integer series.
type Summary struct {
	Count  int
	Min    int
	Max    int
	Mean   float64
	Median float64
	P95    float64
}

// Summarize computes a Summary. An empty series yields the zero Summary.
func Summarize(xs []int) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	total := 0
	for _, x := range sorted {
		total += x
	}
	return Summary{
		Count:  len(sorted),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Mean:   float64(total) / float64(len(sorted)),
		Median: percentile(sorted, 0.5),
		P95:    percentile(sorted, 0.95),
	}
}

// percentile returns the p-quantile of a sorted series by linear
// interpolation.
func percentile(sorted []int, p float64) float64 {
	if len(sorted) == 1 {
		return float64(sorted[0])
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	hi := lo + 1
	if hi >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

// Gap returns the max-min spread of the series — for seed sweeps, how far
// the hardest adversary schedule sits from the easiest.
func (s Summary) Gap() int { return s.Max - s.Min }

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%d max=%d mean=%.1f median=%.1f p95=%.1f",
		s.Count, s.Min, s.Max, s.Mean, s.Median, s.P95)
}

// Table is an aligned text table for experiment reports.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: append([]string(nil), headers...)}
}

// AddRow appends a row; cells are stringified with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Clone returns a copy of t that rows added to either table do not reach
// (nil for a nil t). The cells of existing rows are never rewritten, so
// the copies share them.
func (t *Table) Clone() *Table {
	if t == nil {
		return nil
	}
	return &Table{headers: t.headers, rows: slices.Clone(t.rows)}
}

// Render writes the table, aligned with tabs.
func (t *Table) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if len(t.headers) > 0 {
		if _, err := fmt.Fprintln(tw, strings.Join(t.headers, "\t")); err != nil {
			return err
		}
		underline := make([]string, len(t.headers))
		for i, h := range t.headers {
			underline[i] = strings.Repeat("-", len(h))
		}
		if _, err := fmt.Fprintln(tw, strings.Join(underline, "\t")); err != nil {
			return err
		}
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(tw, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	// strings.Builder never fails.
	_ = t.Render(&b)
	return b.String()
}
