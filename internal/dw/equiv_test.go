package dw

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dwqa/internal/mdm"
)

// equivWarehouse builds a warehouse with enough rows to exercise the
// chunked parallel scan (several planChunkSize chunks), members with broken
// parent chains (the "(unknown)" path), and integer measure values so
// sums are exact in float64 regardless of association order.
func equivWarehouse(t testing.TB, rows int) *Warehouse {
	t.Helper()
	w, err := New(testSchema())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	populate(t, w)
	// An airport with no parent city: rolls up to "(unknown)".
	orphan := []MemberSpec{{Dim: "Airport", Level: "Airport", Name: "Area 51"}}
	rng := rand.New(rand.NewSource(99))
	days := []string{"2004-01-30", "2004-01-31", "2004-02-01"}
	airports := []string{"El Prat", "Barajas", "JFK", "La Guardia", "Area 51"}
	facts := make([]FactRow, 0, rows)
	for i := 0; i < rows; i++ {
		facts = append(facts, FactRow{Coords: map[string]string{
			"Departure":   airports[rng.Intn(len(airports))],
			"Destination": airports[rng.Intn(len(airports))],
			"Date":        days[rng.Intn(len(days))],
		}, Measures: map[string]float64{
			"Price": float64(rng.Intn(900) + 50),
			"Miles": float64(rng.Intn(6000)),
		}})
	}
	if err := w.AddBatch(orphan, "LastMinuteSales", facts); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	return w
}

// equivQueries covers roll-up, drill-down, slice, dice, multi-role
// group-bys and every aggregation function.
func equivQueries() []Query {
	base := Query{Fact: "LastMinuteSales", Measure: "Price", Agg: Sum}
	var qs []Query
	for _, agg := range []Agg{Sum, Count, Avg, Min, Max} {
		for _, level := range []string{"Airport", "City", "Country"} {
			q := base
			q.Agg = agg
			q.GroupBy = []LevelSel{{Role: "Destination", Level: level}}
			qs = append(qs, q)
		}
	}
	// Grand total, no group-by.
	qs = append(qs, base)
	// Count without a measure.
	qs = append(qs, Query{Fact: "LastMinuteSales", Agg: Count,
		GroupBy: []LevelSel{{Role: "Destination", Level: "Country"}}})
	// One role grouped at two different levels (a drill presentation).
	qs = append(qs, Query{Fact: "LastMinuteSales", Measure: "Price", Agg: Sum,
		GroupBy: []LevelSel{
			{Role: "Destination", Level: "Country"},
			{Role: "Destination", Level: "City"},
		}})
	// Multi-role group-by at mixed levels.
	qs = append(qs, Query{Fact: "LastMinuteSales", Measure: "Miles", Agg: Avg,
		GroupBy: []LevelSel{
			{Role: "Departure", Level: "Country"},
			{Role: "Destination", Level: "City"},
			{Role: "Date", Level: "Month"},
		}})
	// Slice (single value) and dice (several values) at several levels.
	qs = append(qs, Query{Fact: "LastMinuteSales", Measure: "Price", Agg: Sum,
		GroupBy: []LevelSel{{Role: "Date", Level: "Month"}},
		Filters: []Filter{{Role: "Destination", Level: "City", Values: []string{"Barcelona"}}}})
	qs = append(qs, Query{Fact: "LastMinuteSales", Measure: "Price", Agg: Sum,
		GroupBy: []LevelSel{{Role: "Destination", Level: "Country"}, {Role: "Date", Level: "Year"}},
		Filters: []Filter{
			{Role: "Destination", Level: "Airport", Values: []string{"JFK", "La Guardia", "El Prat"}},
			{Role: "Departure", Level: "Country", Values: []string{"Spain", "USA"}},
		}})
	// Filter values that match no member: matches no rows, not an error.
	qs = append(qs, Query{Fact: "LastMinuteSales", Measure: "Price", Agg: Sum,
		GroupBy: []LevelSel{{Role: "Destination", Level: "City"}},
		Filters: []Filter{{Role: "Destination", Level: "City", Values: []string{"Oz"}}}})
	return qs
}

// TestCompiledMatchesReference asserts the compiled columnar engine and the
// retained row-at-a-time engine render byte-identical results for every
// query shape, on both a small (single-chunk) and a large (parallel
// multi-chunk) fact table.
func TestCompiledMatchesReference(t *testing.T) {
	for _, rows := range []int{0, 300, 3*planChunkSize + 17} {
		w := equivWarehouse(t, rows)
		for i, q := range equivQueries() {
			got, err := w.Execute(q)
			if err != nil {
				t.Fatalf("rows=%d query %d: Execute: %v", rows, i, err)
			}
			want, err := w.ExecuteReference(q)
			if err != nil {
				t.Fatalf("rows=%d query %d: ExecuteReference: %v", rows, i, err)
			}
			if got.Format() != want.Format() {
				t.Errorf("rows=%d query %d (%+v): engines diverge\ncompiled:\n%s\nreference:\n%s",
					rows, i, q, got.Format(), want.Format())
			}
		}
	}
}

// TestCompiledMatchesReferenceOLAPOps checks the RollUp/DrillDown/Slice/
// Dice helpers end to end against the reference engine.
func TestCompiledMatchesReferenceOLAPOps(t *testing.T) {
	w := equivWarehouse(t, 500)
	base := Query{Fact: "LastMinuteSales", Measure: "Price", Agg: Sum,
		GroupBy: []LevelSel{{Role: "Destination", Level: "City"}}}
	check := func(name string, got *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := w.ExecuteReference(got.Query)
		if err != nil {
			t.Fatalf("%s reference: %v", name, err)
		}
		if got.Format() != want.Format() {
			t.Errorf("%s diverges\ncompiled:\n%s\nreference:\n%s", name, got.Format(), want.Format())
		}
	}
	r, err := w.RollUp(base, "Destination", "Country")
	check("RollUp", r, err)
	// Rolling up a role grouped at two levels collapses the duplicate
	// instead of tripping the duplicate-column validation.
	drill := base
	drill.GroupBy = []LevelSel{
		{Role: "Destination", Level: "Country"},
		{Role: "Destination", Level: "City"},
	}
	r, err = w.RollUp(drill, "Destination", "Country")
	check("RollUp(two-level drill)", r, err)
	if len(r.Query.GroupBy) != 1 {
		t.Errorf("RollUp left %d group-by columns, want 1 after dedup", len(r.Query.GroupBy))
	}
	r, err = w.DrillDown(base, "Destination", "Airport")
	check("DrillDown", r, err)
	r, err = w.Slice(base, "Date", "Month", "2004-01")
	check("Slice", r, err)
	r, err = w.Dice(base, "Departure", "City", []string{"Madrid", "New York"})
	check("Dice", r, err)
}

// TestRollupMemoInvalidation ensures a member write after a query (which
// memoises the roll-up lookup arrays) is visible to the next query.
func TestRollupMemoInvalidation(t *testing.T) {
	w := equivWarehouse(t, 200)
	q := Query{Fact: "LastMinuteSales", Measure: "Price", Agg: Sum,
		GroupBy: []LevelSel{{Role: "Destination", Level: "City"}}}
	if _, err := w.Execute(q); err != nil {
		t.Fatal(err)
	}
	// Re-parent the orphan airport: "(unknown)" rows must move to Roswell.
	if err := w.AddBatch([]MemberSpec{
		{Dim: "Airport", Level: "City", Name: "Roswell", Parent: "USA"},
		{Dim: "Airport", Level: "Airport", Name: "Area 51", Parent: "Roswell"},
	}, "", nil); err != nil {
		t.Fatal(err)
	}
	got, err := w.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.ExecuteReference(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Format() != want.Format() {
		t.Errorf("post-invalidation divergence\ncompiled:\n%s\nreference:\n%s", got.Format(), want.Format())
	}
	var sawRoswell bool
	for _, r := range got.Rows {
		if r.Groups[0] == "(unknown)" {
			t.Errorf("stale roll-up: still grouping under (unknown) after re-parenting")
		}
		if r.Groups[0] == "Roswell" {
			sawRoswell = true
		}
	}
	if !sawRoswell {
		t.Error("re-parented member did not appear in the result")
	}
}

// TestUnknownNameCollision pits the broken-chain sentinel against a member
// literally named "(unknown)": the reference engine (keyed by name
// strings) merges the two groups, and the compiled engine must coalesce to
// match.
func TestUnknownNameCollision(t *testing.T) {
	w := equivWarehouse(t, 300) // contains orphan "Area 51" → sentinel rows
	if err := w.AddBatch([]MemberSpec{
		{Dim: "Airport", Level: "City", Name: "(unknown)", Parent: "Spain"},
		{Dim: "Airport", Level: "Airport", Name: "Nowhere Field", Parent: "(unknown)"},
	}, "LastMinuteSales", []FactRow{{
		Coords:   map[string]string{"Departure": "El Prat", "Destination": "Nowhere Field", "Date": "2004-01-30"},
		Measures: map[string]float64{"Price": 200},
	}}); err != nil {
		t.Fatal(err)
	}
	for _, agg := range []Agg{Sum, Count, Avg, Min, Max} {
		q := Query{Fact: "LastMinuteSales", Measure: "Price", Agg: agg,
			GroupBy: []LevelSel{{Role: "Destination", Level: "City"}}}
		got, err := w.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := w.ExecuteReference(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Format() != want.Format() {
			t.Errorf("%s: sentinel/literal \"(unknown)\" diverge\ncompiled:\n%s\nreference:\n%s",
				agg, got.Format(), want.Format())
		}
	}
}

// TestGroupKeyOverflowRejected builds a schema whose grouped cardinality
// product exceeds uint64 (four dimensions × 65536 members → 65537^4 keys)
// and checks Validate and Execute both reject the query instead of
// letting composite keys wrap and merge distinct groups; three of the
// four columns still fit.
func TestGroupKeyOverflowRejected(t *testing.T) {
	var dims []*mdm.DimensionClass
	var refs []mdm.DimensionRef
	for d := 0; d < 4; d++ {
		name := fmt.Sprintf("D%d", d)
		dims = append(dims, &mdm.DimensionClass{
			Name:   name,
			Levels: []*mdm.Level{{Name: "Base", Descriptor: "Name"}},
		})
		refs = append(refs, mdm.DimensionRef{Role: "R" + name, Dimension: name})
	}
	schema := mdm.NewSchema("wide").
		AddFactClass(&mdm.FactClass{Name: "F", Measures: []mdm.Measure{{Name: "V", Type: mdm.TypeFloat}}, Dimensions: refs})
	for _, d := range dims {
		schema.AddDimension(d)
	}
	w, err := New(schema)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 4; d++ {
		specs := make([]MemberSpec, 0, 1<<16)
		for m := 0; m < 1<<16; m++ {
			specs = append(specs, MemberSpec{Dim: fmt.Sprintf("D%d", d), Level: "Base", Name: fmt.Sprintf("m%05x", m)})
		}
		if err := w.AddBatch(specs, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := addRow(w, "F", map[string]string{
		"RD0": "m00001", "RD1": "m00002", "RD2": "m00003", "RD3": "m00004",
	}, map[string]float64{"V": 7}, ""); err != nil {
		t.Fatal(err)
	}
	q := Query{Fact: "F", Measure: "V", Agg: Sum, GroupBy: []LevelSel{
		{Role: "RD0", Level: "Base"}, {Role: "RD1", Level: "Base"},
		{Role: "RD2", Level: "Base"}, {Role: "RD3", Level: "Base"},
	}}
	if err := w.Validate(q); err == nil {
		t.Error("Validate accepted a group-key space beyond uint64")
	}
	if _, err := w.Execute(q); err == nil {
		t.Error("Execute accepted a group-key space beyond uint64")
	}
	q.GroupBy = q.GroupBy[:3]
	got, err := w.Execute(q)
	if err != nil {
		t.Fatalf("Execute rejected a three-column key space: %v", err)
	}
	if len(got.Rows) != 1 || got.Rows[0].Value != 7 {
		t.Errorf("unexpected result: %+v", got.Rows)
	}
}

func TestValidationRejectsDuplicateGroupBy(t *testing.T) {
	w := newPopulated(t)
	q := Query{Fact: "LastMinuteSales", Measure: "Price", Agg: Sum,
		GroupBy: []LevelSel{
			{Role: "Destination", Level: "City"},
			{Role: "Destination", Level: "City"},
		}}
	if _, err := w.Execute(q); err == nil {
		t.Error("Execute accepted a duplicate group-by column")
	}
	if _, err := w.ExecuteReference(q); err == nil {
		t.Error("ExecuteReference accepted a duplicate group-by column")
	}
	// The same role at two different levels is a valid drill presentation.
	q.GroupBy[1].Level = "Country"
	if _, err := w.Execute(q); err != nil {
		t.Errorf("Execute rejected grouping one role at two levels: %v", err)
	}
}

func TestValidationRejectsCountOnGhostMeasure(t *testing.T) {
	w := newPopulated(t)
	q := Query{Fact: "LastMinuteSales", Measure: "Ghost", Agg: Count}
	if _, err := w.Execute(q); err == nil {
		t.Error("Execute accepted count over a nonexistent measure")
	}
	if _, err := w.ExecuteReference(q); err == nil {
		t.Error("ExecuteReference accepted count over a nonexistent measure")
	}
	// Count with no measure named stays legal.
	if _, err := w.Execute(Query{Fact: "LastMinuteSales", Agg: Count}); err != nil {
		t.Errorf("Execute rejected a bare count: %v", err)
	}
}

// TestConcurrentExecuteAddFactAddMember hammers queries against concurrent
// row-only and member-only AddBatch writes (the latter invalidate the
// roll-up memo). Run under -race this covers the engine's locking.
func TestConcurrentExecuteAddFactAddMember(t *testing.T) {
	w := equivWarehouse(t, 2*planChunkSize)
	q := Query{Fact: "LastMinuteSales", Measure: "Price", Agg: Sum,
		GroupBy: []LevelSel{{Role: "Destination", Level: "Country"}}}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := w.Execute(q); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			err := addRow(w, "LastMinuteSales",
				map[string]string{"Departure": "El Prat", "Destination": "JFK", "Date": "2004-01-31"},
				map[string]float64{"Price": 100}, "")
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			strip := MemberSpec{Dim: "Airport", Level: "Airport", Name: fmt.Sprintf("Strip-%d", i), Parent: "Madrid"}
			if err := w.AddBatch([]MemberSpec{strip}, "", nil); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent op failed: %v", err)
	}
}

func TestFactProvenanceAccessor(t *testing.T) {
	w := newPopulated(t)
	err := addRow(w, "LastMinuteSales",
		map[string]string{"Departure": "El Prat", "Destination": "JFK", "Date": "2004-01-30"},
		map[string]float64{"Price": 99}, "http://example.com/source")
	if err != nil {
		t.Fatal(err)
	}
	last := w.FactCount("LastMinuteSales") - 1
	prov, err := w.FactProvenance("LastMinuteSales", last)
	if err != nil || prov != "http://example.com/source" {
		t.Errorf("FactProvenance = %q, %v", prov, err)
	}
	if prov, _ := w.FactProvenance("LastMinuteSales", 0); prov != "" {
		t.Errorf("row without provenance returned %q", prov)
	}
	if _, err := w.FactProvenance("Ghost", 0); err == nil {
		t.Error("unknown fact accepted")
	}
	if _, err := w.FactProvenance("LastMinuteSales", last+1); err == nil {
		t.Error("out-of-range row accepted")
	}
}
