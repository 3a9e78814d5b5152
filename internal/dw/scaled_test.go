package dw_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dwqa/internal/core"
	"dwqa/internal/dw"
)

// Compiled-vs-reference at warehouse scale: the generated Figure 1
// warehouse of core.BuildScaledWarehouse, queried with
// core.ScaledOLAPQuery. The benchmarks check the compiled engine against
// the row-at-a-time ExecuteReference before anything is timed, so
//
//	go test -run '^$' -bench OLAPExecute -benchtime 1x ./internal/dw
//
// doubles as a scale oracle check.

// resultsAlmostEqual compares two OLAP results: groups and per-row fact
// counts must match exactly, aggregate values within a small relative
// tolerance. The slack absorbs float association differences between the
// compiled engine's chunk-merged sums and the reference engine's
// sequential sums over non-integer measures (the equivalence tests use
// integer measures and assert byte identity; at benchmark scale the prices
// have cents). Returns nil when equivalent.
func resultsAlmostEqual(a, b *dw.Result) error {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if len(ra.Groups) != len(rb.Groups) {
			return fmt.Errorf("row %d: group arity differs", i)
		}
		for g := range ra.Groups {
			if ra.Groups[g] != rb.Groups[g] {
				return fmt.Errorf("row %d: groups differ: %v vs %v", i, ra.Groups, rb.Groups)
			}
		}
		if ra.Count != rb.Count {
			return fmt.Errorf("row %d %v: counts differ: %d vs %d", i, ra.Groups, ra.Count, rb.Count)
		}
		tol := 1e-9 * math.Max(1, math.Max(math.Abs(ra.Value), math.Abs(rb.Value)))
		if math.Abs(ra.Value-rb.Value) > tol {
			return fmt.Errorf("row %d %v: values differ: %v vs %v", i, ra.Groups, ra.Value, rb.Value)
		}
	}
	return nil
}

// TestResultsAlmostEqual pins the benchmark comparator: exact matches
// and within-tolerance float drift pass; every structural or numeric
// mismatch is reported with the offending row.
func TestResultsAlmostEqual(t *testing.T) {
	base := func() *dw.Result {
		return &dw.Result{Rows: []dw.Row{
			{Groups: []string{"Spain", "January"}, Value: 1234.56, Count: 7},
			{Groups: []string{"USA", "January"}, Value: 99.5, Count: 2},
		}}
	}

	if err := resultsAlmostEqual(base(), base()); err != nil {
		t.Fatalf("identical results reported unequal: %v", err)
	}
	drift := base()
	drift.Rows[0].Value += 1e-10 // inside the relative tolerance
	if err := resultsAlmostEqual(base(), drift); err != nil {
		t.Fatalf("within-tolerance drift reported unequal: %v", err)
	}

	for name, mutate := range map[string]func(*dw.Result){
		"row count":   func(r *dw.Result) { r.Rows = r.Rows[:1] },
		"group arity": func(r *dw.Result) { r.Rows[1].Groups = r.Rows[1].Groups[:1] },
		"group name":  func(r *dw.Result) { r.Rows[1].Groups[0] = "Italy" },
		"count":       func(r *dw.Result) { r.Rows[0].Count++ },
		"value":       func(r *dw.Result) { r.Rows[0].Value += 0.01 },
	} {
		t.Run(strings.ReplaceAll(name, " ", "-"), func(t *testing.T) {
			mutated := base()
			mutate(mutated)
			if err := resultsAlmostEqual(base(), mutated); err == nil {
				t.Fatalf("%s mismatch went undetected", name)
			}
		})
	}
}

// benchOLAPExecute times the compiled columnar engine against the
// row-at-a-time ExecuteReference over one generated warehouse.
func benchOLAPExecute(b *testing.B, targetRows int) {
	wh, err := core.BuildScaledWarehouse(targetRows, 42)
	if err != nil {
		b.Fatal(err)
	}
	q := core.ScaledOLAPQuery()
	got, err := wh.Execute(q)
	if err != nil {
		b.Fatal(err)
	}
	want, err := wh.ExecuteReference(q)
	if err != nil {
		b.Fatal(err)
	}
	if err := resultsAlmostEqual(got, want); err != nil {
		b.Fatalf("engines diverge over %d rows: %v", wh.FactCount("LastMinuteSales"), err)
	}
	b.Logf("fact rows: %d", wh.FactCount("LastMinuteSales"))
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := wh.Execute(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := wh.ExecuteReference(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkOLAPExecute1k(b *testing.B)   { benchOLAPExecute(b, 1_000) }
func BenchmarkOLAPExecute10k(b *testing.B)  { benchOLAPExecute(b, 10_000) }
func BenchmarkOLAPExecute100k(b *testing.B) { benchOLAPExecute(b, 100_000) }
