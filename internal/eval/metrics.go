// Package eval implements the evaluation harness: retrieval/extraction
// metrics and one runnable experiment per table and figure of the paper
// (plus the quantified versions of its qualitative claims). Every
// experiment returns a Table; DESIGN.md §5 indexes the experiments.
package eval

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Metrics is a standard TP/FP/FN counter.
type Metrics struct {
	TP int
	FP int
	FN int
}

// Add accumulates another counter.
func (m *Metrics) Add(o Metrics) {
	m.TP += o.TP
	m.FP += o.FP
	m.FN += o.FN
}

// Precision returns TP/(TP+FP), 0 when undefined.
func (m Metrics) Precision() float64 {
	if m.TP+m.FP == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FP)
}

// Recall returns TP/(TP+FN), 0 when undefined.
func (m Metrics) Recall() float64 {
	if m.TP+m.FN == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (m Metrics) F1() float64 {
	p, r := m.Precision(), m.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Table is one experiment's result: an identifier matching DESIGN.md's
// per-experiment index, a caption, and formatted rows.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row (stringifying the cells with %v).
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Format renders the table as aligned text with its title and notes.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for pad := len(c); pad < widths[i]; pad++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// tableJSON is the machine-readable shape of one table.
type tableJSON struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// TablesJSON renders tables as one JSON array (the shape of
// cmd/benchreport's -json output), so consumers can parse it as a single
// document.
func TablesJSON(tables []*Table) (string, error) {
	all := make([]tableJSON, len(tables))
	for i, t := range tables {
		all[i] = tableJSON{t.ID, t.Title, t.Header, t.Rows, t.Notes}
	}
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}
