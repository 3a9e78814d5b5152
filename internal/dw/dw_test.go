package dw

import (
	"math/rand"
	"strings"
	"testing"

	"dwqa/internal/mdm"
)

// testSchema builds a miniature Last Minute Sales star schema: a fact with
// Price/Miles, an Airport dimension with an Airport→City→Country hierarchy
// (used twice, as Departure and Destination) and a Date dimension
// Day→Month→Year.
func testSchema() *mdm.Schema {
	airport := &mdm.DimensionClass{
		Name: "Airport",
		Levels: []*mdm.Level{
			{Name: "Airport", Descriptor: "Name", RollsUpTo: "City"},
			{Name: "City", Descriptor: "Name", RollsUpTo: "Country"},
			{Name: "Country", Descriptor: "Name"},
		},
	}
	date := &mdm.DimensionClass{
		Name: "Date",
		Levels: []*mdm.Level{
			{Name: "Day", Descriptor: "Date", RollsUpTo: "Month"},
			{Name: "Month", Descriptor: "Name", RollsUpTo: "Year"},
			{Name: "Year", Descriptor: "Name"},
		},
	}
	fact := &mdm.FactClass{
		Name:     "LastMinuteSales",
		Measures: []mdm.Measure{{Name: "Price", Type: mdm.TypeFloat}, {Name: "Miles", Type: mdm.TypeFloat}},
		Dimensions: []mdm.DimensionRef{
			{Role: "Departure", Dimension: "Airport"},
			{Role: "Destination", Dimension: "Airport"},
			{Role: "Date", Dimension: "Date"},
		},
	}
	return mdm.NewSchema("test").AddDimension(airport).AddDimension(date).AddFactClass(fact)
}

// populate fills the warehouse with a small deterministic dataset.
func populate(t testing.TB, w *Warehouse) {
	t.Helper()
	var specs []MemberSpec
	add := func(dim, level, name, parent string) {
		specs = append(specs, MemberSpec{Dim: dim, Level: level, Name: name, Parent: parent})
	}
	add("Airport", "Country", "Spain", "")
	add("Airport", "Country", "USA", "")
	add("Airport", "City", "Barcelona", "Spain")
	add("Airport", "City", "Madrid", "Spain")
	add("Airport", "City", "New York", "USA")
	add("Airport", "Airport", "El Prat", "Barcelona")
	add("Airport", "Airport", "Barajas", "Madrid")
	add("Airport", "Airport", "JFK", "New York")
	add("Airport", "Airport", "La Guardia", "New York")

	add("Date", "Year", "2004", "")
	add("Date", "Month", "2004-01", "2004")
	add("Date", "Month", "2004-02", "2004")
	add("Date", "Day", "2004-01-30", "2004-01")
	add("Date", "Day", "2004-01-31", "2004-01")
	add("Date", "Day", "2004-02-01", "2004-02")

	rows := []struct {
		dep, dst, day string
		price, miles  float64
	}{
		{"Barajas", "El Prat", "2004-01-30", 120, 300},
		{"Barajas", "El Prat", "2004-01-31", 150, 300},
		{"JFK", "El Prat", "2004-01-31", 480, 3800},
		{"El Prat", "JFK", "2004-02-01", 520, 3800},
		{"El Prat", "La Guardia", "2004-02-01", 410, 3750},
		{"Barajas", "JFK", "2004-01-30", 450, 3600},
	}
	var facts []FactRow
	for _, r := range rows {
		facts = append(facts, FactRow{
			Coords:   map[string]string{"Departure": r.dep, "Destination": r.dst, "Date": r.day},
			Measures: map[string]float64{"Price": r.price, "Miles": r.miles},
		})
	}
	if err := w.AddBatch(specs, "LastMinuteSales", facts); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
}

// addRow commits one fact row as its own AddBatch.
func addRow(w *Warehouse, fact string, coords map[string]string, measures map[string]float64, provenance string) error {
	return w.AddBatch(nil, fact, []FactRow{{Coords: coords, Measures: measures, Provenance: provenance}})
}

func newPopulated(t *testing.T) *Warehouse {
	t.Helper()
	w, err := New(testSchema())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	populate(t, w)
	return w
}

func TestNewRejectsInvalidSchema(t *testing.T) {
	s := mdm.NewSchema("bad").AddFactClass(&mdm.FactClass{Name: "F"})
	if _, err := New(s); err == nil {
		t.Error("invalid schema accepted")
	}
}

// TestAddMemberErrors covers AddBatch's member-spec validation: each bad
// spec rejects its batch and leaves the dimension untouched.
func TestAddMemberErrors(t *testing.T) {
	w, _ := New(testSchema())
	for what, spec := range map[string]MemberSpec{
		"unknown dimension":   {Dim: "Ghost", Level: "X", Name: "a"},
		"unknown level":       {Dim: "Airport", Level: "Ghost", Name: "a"},
		"empty member name":   {Dim: "Airport", Level: "Airport", Name: ""},
		"missing parent":      {Dim: "Airport", Level: "Airport", Name: "El Prat", Parent: "Barcelona"},
		"parent on top level": {Dim: "Airport", Level: "Country", Name: "Spain", Parent: "Europe"},
	} {
		if err := w.AddBatch([]MemberSpec{spec}, "", nil); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
	if n := w.MemberCount("Airport", "Country") + w.MemberCount("Airport", "Airport"); n != 0 {
		t.Errorf("rejected specs left %d members", n)
	}
}

func TestAddMemberIdempotentAndUpdating(t *testing.T) {
	w, _ := New(testSchema())
	if err := w.AddBatch([]MemberSpec{
		{Dim: "Airport", Level: "Country", Name: "Spain"},
		{Dim: "Airport", Level: "City", Name: "Barcelona", Parent: "Spain", Attrs: map[string]string{"pop": "1.6M"}},
	}, "", nil); err != nil {
		t.Fatal(err)
	}
	k1, _ := w.MemberKey("Airport", "City", "Barcelona")
	err := w.AddBatch([]MemberSpec{{Dim: "Airport", Level: "City", Name: "Barcelona", Attrs: map[string]string{"area": "101km2"}}}, "", nil)
	k2, _ := w.MemberKey("Airport", "City", "Barcelona")
	if err != nil || k1 != k2 {
		t.Fatalf("re-add changed key: %d → %d (%v)", k1, k2, err)
	}
	m, _ := w.Member("Airport", "City", k1)
	if m.Attrs["pop"] != "1.6M" || m.Attrs["area"] != "101km2" {
		t.Errorf("attrs not merged: %v", m.Attrs)
	}
	if m.Parent == NoParent {
		t.Error("re-add without parent cleared the parent link")
	}
}

// TestAddFactErrors covers AddBatch's row validation.
func TestAddFactErrors(t *testing.T) {
	w := newPopulated(t)
	base := map[string]string{"Departure": "El Prat", "Destination": "JFK", "Date": "2004-01-30"}
	if err := addRow(w, "Ghost", base, nil, ""); err == nil {
		t.Error("unknown fact accepted")
	}
	if err := addRow(w, "LastMinuteSales", map[string]string{"Departure": "El Prat"}, nil, ""); err == nil {
		t.Error("missing role accepted")
	}
	bad := map[string]string{"Departure": "El Prat", "Destination": "Narnia", "Date": "2004-01-30"}
	if err := addRow(w, "LastMinuteSales", bad, nil, ""); err == nil {
		t.Error("unknown member accepted")
	}
	if err := addRow(w, "LastMinuteSales", base, map[string]float64{"Ghost": 1}, ""); err == nil {
		t.Error("unknown measure accepted")
	}
	if n := w.FactCount("LastMinuteSales"); n != 6 {
		t.Errorf("rejected rows changed FactCount to %d, want 6", n)
	}
}

func TestExecuteGroupByCity(t *testing.T) {
	w := newPopulated(t)
	res, err := w.Execute(Query{
		Fact: "LastMinuteSales", Measure: "Price", Agg: Sum,
		GroupBy: []LevelSel{{Role: "Destination", Level: "City"}},
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	got := map[string]float64{}
	for _, r := range res.Rows {
		got[r.Groups[0]] = r.Value
	}
	want := map[string]float64{"Barcelona": 750, "New York": 1380}
	for city, v := range want {
		if got[city] != v {
			t.Errorf("sum(Price) dest=%s = %v, want %v", city, got[city], v)
		}
	}
}

func TestExecuteRollUpToCountry(t *testing.T) {
	w := newPopulated(t)
	q := Query{
		Fact: "LastMinuteSales", Measure: "Price", Agg: Sum,
		GroupBy: []LevelSel{{Role: "Destination", Level: "City"}},
	}
	res, err := w.RollUp(q, "Destination", "Country")
	if err != nil {
		t.Fatalf("RollUp: %v", err)
	}
	got := map[string]float64{}
	for _, r := range res.Rows {
		got[r.Groups[0]] = r.Value
	}
	if got["Spain"] != 750 || got["USA"] != 1380 {
		t.Errorf("country sums = %v", got)
	}
}

func TestExecuteSliceAndDice(t *testing.T) {
	w := newPopulated(t)
	q := Query{
		Fact: "LastMinuteSales", Measure: "Price", Agg: Sum,
		GroupBy: []LevelSel{{Role: "Date", Level: "Month"}},
	}
	res, err := w.Slice(q, "Destination", "City", "Barcelona")
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	got := map[string]float64{}
	for _, r := range res.Rows {
		got[r.Groups[0]] = r.Value
	}
	if got["2004-01"] != 750 || len(res.Rows) != 1 {
		t.Errorf("slice rows = %v", res.Rows)
	}

	res, err = w.Dice(q, "Destination", "Airport", []string{"JFK", "La Guardia"})
	if err != nil {
		t.Fatalf("Dice: %v", err)
	}
	var total float64
	for _, r := range res.Rows {
		total += r.Value
	}
	if total != 1380 {
		t.Errorf("dice total = %v, want 1380", total)
	}
}

func TestExecuteAggregations(t *testing.T) {
	w := newPopulated(t)
	for _, c := range []struct {
		agg  Agg
		want float64
	}{
		{Sum, 2130}, {Count, 6}, {Avg, 355}, {Min, 120}, {Max, 520},
	} {
		res, err := w.Execute(Query{Fact: "LastMinuteSales", Measure: "Price", Agg: c.agg})
		if err != nil {
			t.Fatalf("Execute(%s): %v", c.agg, err)
		}
		if len(res.Rows) != 1 || res.Rows[0].Value != c.want {
			t.Errorf("%s(Price) = %v, want %v", c.agg, res.Rows, c.want)
		}
	}
}

func TestExecuteErrors(t *testing.T) {
	w := newPopulated(t)
	if _, err := w.Execute(Query{Fact: "Ghost", Measure: "Price", Agg: Sum}); err == nil {
		t.Error("unknown fact accepted")
	}
	if _, err := w.Execute(Query{Fact: "LastMinuteSales", Measure: "Ghost", Agg: Sum}); err == nil {
		t.Error("unknown measure accepted")
	}
	if _, err := w.Execute(Query{Fact: "LastMinuteSales", Measure: "Price", Agg: "median"}); err == nil {
		t.Error("unknown agg accepted")
	}
	q := Query{Fact: "LastMinuteSales", Measure: "Price", Agg: Sum,
		GroupBy: []LevelSel{{Role: "Ghost", Level: "City"}}}
	if _, err := w.Execute(q); err == nil {
		t.Error("unknown role accepted")
	}
	q = Query{Fact: "LastMinuteSales", Measure: "Price", Agg: Sum,
		GroupBy: []LevelSel{{Role: "Destination", Level: "Ghost"}}}
	if _, err := w.Execute(q); err == nil {
		t.Error("unknown level accepted")
	}
}

func TestFilterUnknownValueMatchesNothing(t *testing.T) {
	w := newPopulated(t)
	res, err := w.Slice(Query{Fact: "LastMinuteSales", Measure: "Price", Agg: Sum},
		"Destination", "City", "Oz")
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("slicing on unknown member returned rows: %v", res.Rows)
	}
}

// Property: the grand total is invariant under the grouping level — a sum
// rolled up from Airport to City to Country never changes.
func TestRollUpSumInvariant(t *testing.T) {
	w, _ := New(testSchema())
	populate(t, w)
	rng := rand.New(rand.NewSource(7))
	days := []string{"2004-01-30", "2004-01-31", "2004-02-01"}
	airports := []string{"El Prat", "Barajas", "JFK", "La Guardia"}
	var rows []FactRow
	for i := 0; i < 300; i++ {
		rows = append(rows, FactRow{Coords: map[string]string{
			"Departure":   airports[rng.Intn(len(airports))],
			"Destination": airports[rng.Intn(len(airports))],
			"Date":        days[rng.Intn(len(days))],
		}, Measures: map[string]float64{"Price": float64(rng.Intn(500) + 50)}})
	}
	if err := w.AddBatch(nil, "LastMinuteSales", rows); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	var totals []float64
	for _, level := range []string{"Airport", "City", "Country"} {
		res, err := w.Execute(Query{
			Fact: "LastMinuteSales", Measure: "Price", Agg: Sum,
			GroupBy: []LevelSel{{Role: "Destination", Level: level}},
		})
		if err != nil {
			t.Fatalf("Execute(%s): %v", level, err)
		}
		var total float64
		for _, r := range res.Rows {
			total += r.Value
		}
		totals = append(totals, total)
	}
	if totals[0] != totals[1] || totals[1] != totals[2] {
		t.Errorf("roll-up changed the grand total: %v", totals)
	}
}

func TestProvenance(t *testing.T) {
	w := newPopulated(t)
	err := addRow(w, "LastMinuteSales",
		map[string]string{"Departure": "El Prat", "Destination": "JFK", "Date": "2004-01-30"},
		map[string]float64{"Price": 99},
		"http://example.com/page")
	if err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	if w.FactCount("LastMinuteSales") != 7 {
		t.Errorf("FactCount = %d, want 7", w.FactCount("LastMinuteSales"))
	}
}

func TestMembersListing(t *testing.T) {
	w := newPopulated(t)
	cities := w.Members("Airport", "City")
	if strings.Join(cities, ",") != "Barcelona,Madrid,New York" {
		t.Errorf("Members = %v", cities)
	}
	if w.MemberCount("Airport", "Airport") != 4 {
		t.Errorf("MemberCount = %d", w.MemberCount("Airport", "Airport"))
	}
	if w.Members("Ghost", "X") != nil {
		t.Error("unknown dimension should list nil")
	}
}

func TestResultFormat(t *testing.T) {
	w := newPopulated(t)
	res, _ := w.Execute(Query{
		Fact: "LastMinuteSales", Measure: "Price", Agg: Sum,
		GroupBy: []LevelSel{{Role: "Destination", Level: "City"}},
	})
	out := res.Format()
	if !strings.Contains(out, "Destination/City") || !strings.Contains(out, "Barcelona") {
		t.Errorf("Format output missing fields:\n%s", out)
	}
}

func TestConcurrentLoadAndQuery(t *testing.T) {
	w := newPopulated(t)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 100; i++ {
			_, err := w.Execute(Query{Fact: "LastMinuteSales", Measure: "Price", Agg: Sum})
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 100; i++ {
		err := addRow(w, "LastMinuteSales",
			map[string]string{"Departure": "El Prat", "Destination": "JFK", "Date": "2004-01-31"},
			map[string]float64{"Price": 100}, "")
		if err != nil {
			t.Fatalf("AddBatch: %v", err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("concurrent Execute: %v", err)
	}
}

func BenchmarkExecuteGroupBy(b *testing.B) {
	w, _ := New(testSchema())
	populate(b, w)
	rng := rand.New(rand.NewSource(7))
	days := []string{"2004-01-30", "2004-01-31", "2004-02-01"}
	airports := []string{"El Prat", "Barajas", "JFK", "La Guardia"}
	var rows []FactRow
	for i := 0; i < 10000; i++ {
		rows = append(rows, FactRow{Coords: map[string]string{
			"Departure":   airports[rng.Intn(len(airports))],
			"Destination": airports[rng.Intn(len(airports))],
			"Date":        days[rng.Intn(len(days))],
		}, Measures: map[string]float64{"Price": float64(rng.Intn(500))}})
	}
	if err := w.AddBatch(nil, "LastMinuteSales", rows); err != nil {
		b.Fatal(err)
	}
	q := Query{Fact: "LastMinuteSales", Measure: "Price", Agg: Sum,
		GroupBy: []LevelSel{{Role: "Destination", Level: "Country"}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

// TestValidateWithoutExecute covers the exported validation entry point
// the NL→OLAP translator uses to guarantee it never emits a rejectable
// plan.
func TestValidateWithoutExecute(t *testing.T) {
	w := newPopulated(t)
	good := Query{Fact: "LastMinuteSales", Measure: "Price", Agg: Sum,
		GroupBy: []LevelSel{{Role: "Destination", Level: "City"}}}
	if err := w.Validate(good); err != nil {
		t.Errorf("Validate(good) = %v", err)
	}
	for name, bad := range map[string]Query{
		"unknown fact":    {Fact: "Nope", Measure: "Price", Agg: Sum},
		"unknown measure": {Fact: "LastMinuteSales", Measure: "Nope", Agg: Sum},
		"unknown agg":     {Fact: "LastMinuteSales", Measure: "Price", Agg: "median"},
		"unknown role": {Fact: "LastMinuteSales", Measure: "Price", Agg: Sum,
			GroupBy: []LevelSel{{Role: "Nope", Level: "City"}}},
		"duplicate group-by": {Fact: "LastMinuteSales", Measure: "Price", Agg: Sum,
			GroupBy: []LevelSel{{Role: "Destination", Level: "City"}, {Role: "Destination", Level: "City"}}},
	} {
		if err := w.Validate(bad); err == nil {
			t.Errorf("Validate(%s) accepted an invalid query", name)
		}
	}
}

// TestBatchAPIs covers AddBatch as the Step 5 feed uses it — members
// that parent each other and rows that reference them in one atomic
// commit — and the Schema/ParentName accessors the metadata layers read.
func TestBatchAPIs(t *testing.T) {
	w, err := New(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if w.Schema() == nil {
		t.Fatal("Schema() returned nil")
	}
	specs := []MemberSpec{
		{Dim: "Airport", Level: "Country", Name: "Spain"},
		{Dim: "Airport", Level: "City", Name: "Barcelona", Parent: "Spain"},
		{Dim: "Airport", Level: "Airport", Name: "El Prat", Parent: "Barcelona"},
		{Dim: "Date", Level: "Month", Name: "2004-01"},
		{Dim: "Date", Level: "Day", Name: "2004-01-01", Parent: "2004-01"},
	}
	rows := []FactRow{
		{Coords: map[string]string{"Departure": "El Prat", "Destination": "El Prat", "Date": "2004-01-01"},
			Measures: map[string]float64{"Price": 100}},
		{Coords: map[string]string{"Departure": "El Prat", "Destination": "El Prat", "Date": "2004-01-01"},
			Measures: map[string]float64{"Price": 50}, Provenance: "test"},
	}
	if err := w.AddBatch(specs, "LastMinuteSales", rows); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	if n := w.FactCount("LastMinuteSales"); n != 2 {
		t.Errorf("FactCount = %d, want 2", n)
	}
	if parent, err := w.ParentName("Airport", "Airport", "El Prat"); err != nil || parent != "Barcelona" {
		t.Errorf("ParentName = %q, %v", parent, err)
	}
	if _, err := w.ParentName("Airport", "Airport", "Ghost"); err == nil {
		t.Error("ParentName of a missing member should fail")
	}

	// The batch is atomic: a bad spec or a bad row loads nothing — not
	// even the valid specs before it.
	badSpecs := []MemberSpec{
		{Dim: "Airport", Level: "City", Name: "Madrid", Parent: "Spain"},
		{Dim: "Airport", Level: "City", Name: "Oops", Parent: "Atlantis"},
	}
	if err := w.AddBatch(badSpecs, "", nil); err == nil {
		t.Error("bad parent in a member batch should fail")
	}
	if _, err := w.MemberKey("Airport", "City", "Madrid"); err == nil {
		t.Error("a failed batch committed its valid prefix")
	}
	bad := append([]FactRow(nil), rows...)
	bad = append(bad, FactRow{Coords: map[string]string{"Departure": "Ghost", "Destination": "El Prat", "Date": "2004-01-01"}})
	if err := w.AddBatch(badSpecs[:1], "LastMinuteSales", bad); err == nil {
		t.Fatal("bad row in a fact batch should fail")
	}
	if n := w.FactCount("LastMinuteSales"); n != 2 {
		t.Errorf("FactCount after failed batch = %d, want 2 (atomic)", n)
	}
	if _, err := w.MemberKey("Airport", "City", "Madrid"); err == nil {
		t.Error("a batch with a bad row committed its members")
	}
	if err := w.AddBatch(nil, "Ghost", rows); err == nil {
		t.Error("unknown fact in a batch should fail")
	}
	if err := w.AddBatch(nil, "LastMinuteSales", nil); err != nil {
		t.Errorf("empty batch should be a no-op: %v", err)
	}
}
