package eval

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestMetricsMath(t *testing.T) {
	m := Metrics{TP: 8, FP: 2, FN: 2}
	if p := m.Precision(); p != 0.8 {
		t.Errorf("precision = %v", p)
	}
	if r := m.Recall(); r != 0.8 {
		t.Errorf("recall = %v", r)
	}
	if f := m.F1(); math.Abs(f-0.8) > 1e-9 {
		t.Errorf("F1 = %v", f)
	}
	zero := Metrics{}
	if zero.Precision() != 0 || zero.Recall() != 0 || zero.F1() != 0 {
		t.Error("zero metrics must not divide by zero")
	}
	sum := Metrics{TP: 1}
	sum.Add(Metrics{TP: 2, FP: 3, FN: 4})
	if sum.TP != 3 || sum.FP != 3 || sum.FN != 4 {
		t.Errorf("Add = %+v", sum)
	}
}

func TestTableFormatAndMarkdown(t *testing.T) {
	tbl := &Table{ID: "X", Title: "demo", Header: []string{"a", "b"}}
	tbl.AddRow("one", 0.5)
	tbl.AddRow(2, "two")
	tbl.Notes = append(tbl.Notes, "a note")
	out := tbl.Format()
	for _, want := range []string{"== X: demo ==", "one", "0.500", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
	md := tbl.Markdown()
	for _, want := range []string{"### X: demo", "| a | b |", "| --- | --- |", "| one | 0.500 |"} {
		if !strings.Contains(md, want) {
			t.Errorf("Markdown missing %q:\n%s", want, md)
		}
	}
}

func TestFigure1Artifact(t *testing.T) {
	tbl, err := NewSuite().Figure1()
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.Format()
	for _, want := range []string{"fact LastMinuteSales", "Price", "Departure→Airport", "Airport → City → Country"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 1 missing %q", want)
		}
	}
}

// parseCell reads a float cell from a table row keyed by first column.
func cellValue(t *testing.T, tbl *Table, rowKey string, col int) float64 {
	t.Helper()
	for _, row := range tbl.Rows {
		if strings.Contains(row[0], rowKey) {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				t.Fatalf("cell %q not a number: %v", row[col], err)
			}
			return v
		}
	}
	t.Fatalf("row %q not found in %s", rowKey, tbl.ID)
	return 0
}

// TestExperimentShapes verifies the qualitative shapes the paper claims;
// `benchreport` prints the exact numbers.
func TestExperimentShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	s := NewSuite()

	f4, err := s.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if p := cellValue(t, f4, "TOTAL", 2); p < 0.95 {
		t.Errorf("F4 prose precision = %v, want near 1", p)
	}

	f5, err := s.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	naive := cellValue(t, f5, "naive", 1)
	aware := cellValue(t, f5, "table-aware", 1)
	if naive >= 0.95 {
		t.Errorf("F5 naive precision = %v, should be clearly lower than prose", naive)
	}
	if aware <= naive {
		t.Errorf("F5 table-aware precision %v should beat naive %v", aware, naive)
	}
	naiveF1 := cellValue(t, f5, "naive", 3)
	awareF1 := cellValue(t, f5, "table-aware", 3)
	if awareF1 <= naiveF1 {
		t.Errorf("F5 table-aware F1 %v should beat naive %v", awareF1, naiveF1)
	}

	qair, err := s.QAvsIR()
	if err != nil {
		t.Fatal(err)
	}
	qaP := cellValue(t, qair, "QA", 2)
	irP := cellValue(t, qair, "IR", 2)
	if qaP <= irP {
		t.Errorf("QA precision %v should beat IR %v", qaP, irP)
	}
	qaBytes := cellValue(t, qair, "QA", 3)
	irBytes := cellValue(t, qair, "IR", 3)
	if qaBytes*10 > irBytes {
		t.Errorf("QA output (%v bytes) should be far smaller than IR documents (%v bytes)", qaBytes, irBytes)
	}

	onto, err := s.OntologyAblation()
	if err != nil {
		t.Fatal(err)
	}
	withAcc := cellValue(t, onto, "with ontology", 3)
	withoutAcc := cellValue(t, onto, "without ontology", 3)
	if withAcc <= withoutAcc {
		t.Errorf("ontology accuracy %v should beat ablated %v", withAcc, withoutAcc)
	}
	if withAcc < 0.9 {
		t.Errorf("tuned accuracy = %v, want >= 0.9", withAcc)
	}
}

func TestFeedShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	tbl, err := NewSuite().Feed()
	if err != nil {
		t.Fatal(err)
	}
	loaded := cellValue(t, tbl, "records loaded", 1)
	if loaded < 200 {
		t.Errorf("loaded = %v, want a substantial feed", loaded)
	}
	r := cellValue(t, tbl, "Pearson", 1)
	if r < 0.3 {
		t.Errorf("correlation = %v, want clearly positive", r)
	}
}
