package dw

import (
	"fmt"
	"reflect"
	"testing"

	"dwqa/internal/mdm"
)

// snapTestSchema is a small two-dimension star for the snapshot tests.
func snapTestSchema() *mdm.Schema {
	city := &mdm.DimensionClass{
		Name: "City",
		Levels: []*mdm.Level{
			{Name: "City", Descriptor: "Name", RollsUpTo: "Country"},
			{Name: "Country", Descriptor: "Name"},
		},
	}
	date := &mdm.DimensionClass{
		Name: "Date",
		Levels: []*mdm.Level{
			{Name: "Day", Descriptor: "Date", RollsUpTo: "Month"},
			{Name: "Month", Descriptor: "Name"},
		},
	}
	weather := &mdm.FactClass{
		Name:     "Weather",
		Measures: []mdm.Measure{{Name: "TempC", Type: mdm.TypeFloat}},
		Dimensions: []mdm.DimensionRef{
			{Role: "City", Dimension: "City"},
			{Role: "Date", Dimension: "Date"},
		},
	}
	return mdm.NewSchema("snap").AddDimension(city).AddDimension(date).AddFactClass(weather)
}

// populateSnapTest loads a deterministic little warehouse.
func populateSnapTest(t *testing.T, w *Warehouse) {
	t.Helper()
	specs := []MemberSpec{
		{Dim: "City", Level: "Country", Name: "Spain"},
		{Dim: "City", Level: "City", Name: "Barcelona", Parent: "Spain", Attrs: map[string]string{"IATA": "BCN"}},
		{Dim: "City", Level: "City", Name: "Madrid", Parent: "Spain"},
		{Dim: "Date", Level: "Month", Name: "2004-01"},
		{Dim: "Date", Level: "Day", Name: "2004-01-01", Parent: "2004-01"},
		{Dim: "Date", Level: "Day", Name: "2004-01-02", Parent: "2004-01"},
	}
	rows := []FactRow{
		{Coords: map[string]string{"City": "Barcelona", "Date": "2004-01-01"}, Measures: map[string]float64{"TempC": 10.5}, Provenance: "http://a"},
		{Coords: map[string]string{"City": "Barcelona", "Date": "2004-01-02"}, Measures: map[string]float64{"TempC": 11}, Provenance: "http://a"},
		{Coords: map[string]string{"City": "Madrid", "Date": "2004-01-01"}, Measures: map[string]float64{"TempC": 4}},
	}
	if err := w.AddBatch(specs, "Weather", rows); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	src, err := New(snapTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	populateSnapTest(t, src)

	snap := src.Export()
	dst, err := New(snapTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Import(snap); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(dst.Export(), snap) {
		t.Fatal("re-export after import diverges from the original snapshot")
	}
	srcMembers, srcRows := src.Counts()
	dstMembers, dstRows := dst.Counts()
	if srcMembers != dstMembers || srcRows != dstRows {
		t.Fatalf("counts diverge: src %d/%d, dst %d/%d", srcMembers, srcRows, dstMembers, dstRows)
	}
	// Surrogate keys, parents and attributes survive.
	key, err := dst.MemberKey("City", "City", "Barcelona")
	if err != nil {
		t.Fatal(err)
	}
	m, err := dst.Member("City", "City", key)
	if err != nil {
		t.Fatal(err)
	}
	if m.Attrs["IATA"] != "BCN" {
		t.Fatalf("attrs lost: %v", m.Attrs)
	}
	if parent, _ := dst.ParentName("City", "City", "Barcelona"); parent != "Spain" {
		t.Fatalf("parent lost: %q", parent)
	}
	// Provenance sidecar survives, including rows without provenance.
	for row, want := range map[int]string{0: "http://a", 1: "http://a", 2: ""} {
		got, err := dst.FactProvenance("Weather", row)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("row %d provenance = %q, want %q", row, got, want)
		}
	}
	// Queries over the imported warehouse keep working (byName and
	// roll-up state restored).
	res, err := dst.Execute(Query{
		Fact:    "Weather",
		Measure: "TempC",
		Agg:     Avg,
		GroupBy: []LevelSel{{Role: "City", Level: "City"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("query over imported warehouse: %d groups, want 2", len(res.Rows))
	}
}

func TestImportRejectsShapeMismatches(t *testing.T) {
	src, err := New(snapTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	populateSnapTest(t, src)
	base := src.Export()

	cases := []struct {
		name   string
		mutate func(s *Snapshot)
	}{
		{"unknown dimension", func(s *Snapshot) { s.Dims[0].Dim = "Nope" }},
		{"unknown level", func(s *Snapshot) { s.Dims[0].Levels[0].Level = "Nope" }},
		{"unknown fact", func(s *Snapshot) { s.Facts[0].Fact = "Nope" }},
		{"sparse keys", func(s *Snapshot) { s.Dims[0].Levels[0].Members[0].Key = 7 }},
		{"empty member name", func(s *Snapshot) { s.Dims[0].Levels[0].Members[0].Name = "" }},
		{"parent key out of range", func(s *Snapshot) { s.Dims[0].Levels[0].Members[0].Parent = 42 }},
		{"parent on hierarchy top", func(s *Snapshot) { s.Dims[0].Levels[1].Members[0].Parent = 0 }},
		{"fact coordinate out of range", func(s *Snapshot) { s.Facts[0].Coords[0][0] = 99 }},
		{"missing coordinate column", func(s *Snapshot) { s.Facts[0].Coords = s.Facts[0].Coords[:1] }},
		{"ragged coordinate column", func(s *Snapshot) { s.Facts[0].Coords[0] = s.Facts[0].Coords[0][:1] }},
		{"ragged measure column", func(s *Snapshot) { s.Facts[0].Measures[0] = s.Facts[0].Measures[0][:1] }},
		{"provenance out of range", func(s *Snapshot) { s.Facts[0].ProvRows[0] = 99 }},
		{"provenance rows/vals mismatch", func(s *Snapshot) { s.Facts[0].ProvVals = s.Facts[0].ProvVals[:1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap := src.Export() // fresh deep copy to mutate
			tc.mutate(snap)
			dst, err := New(snapTestSchema())
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.Import(snap); err == nil {
				t.Fatal("corrupt snapshot imported without error")
			}
			// Never half-load: the target must still be empty.
			if members, rows := dst.Counts(); members != 0 || rows != 0 {
				t.Fatalf("failed import left state behind: %d members, %d rows", members, rows)
			}
		})
	}
	// The unmutated snapshot still imports (the cases above did not
	// corrupt the source).
	dst, err := New(snapTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Import(base); err != nil {
		t.Fatal(err)
	}
}

// TestAddMembersIdempotent pins the warehouse-level idempotency WAL
// replay relies on: re-applying a member-only AddBatch with duplicate
// names leaves counts and keys unchanged.
func TestAddMembersIdempotent(t *testing.T) {
	w, err := New(snapTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	specs := []MemberSpec{
		{Dim: "City", Level: "Country", Name: "Spain"},
		{Dim: "City", Level: "City", Name: "Barcelona", Parent: "Spain"},
		{Dim: "City", Level: "City", Name: "Barcelona", Parent: "Spain"}, // dup inside the batch
	}
	if err := w.AddBatch(specs, "", nil); err != nil {
		t.Fatal(err)
	}
	key1, _ := w.MemberKey("City", "City", "Barcelona")
	if err := w.AddBatch(specs, "", nil); err != nil { // whole batch re-applied
		t.Fatal(err)
	}
	key2, _ := w.MemberKey("City", "City", "Barcelona")
	if key1 != key2 {
		t.Fatalf("re-applied batch moved surrogate key %d → %d", key1, key2)
	}
	if n := w.MemberCount("City", "City"); n != 1 {
		t.Fatalf("re-applied batch duplicated members: %d", n)
	}
}

// TestScanFact checks the recovery accessor resolves coordinates back to
// member names with provenance.
func TestScanFact(t *testing.T) {
	w, err := New(snapTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	populateSnapTest(t, w)
	var got []string
	err = w.ScanFact("Weather", []string{"City", "Date"}, func(row int, names []string, prov string) error {
		got = append(got, fmt.Sprintf("%d:%s|%s|%s", row, names[0], names[1], prov))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"0:Barcelona|2004-01-01|http://a",
		"1:Barcelona|2004-01-02|http://a",
		"2:Madrid|2004-01-01|",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ScanFact rows:\n got %v\nwant %v", got, want)
	}
	if err := w.ScanFact("Weather", []string{"Nope"}, nil); err == nil {
		t.Fatal("unknown role accepted")
	}
	if err := w.ScanFact("Nope", nil, nil); err == nil {
		t.Fatal("unknown fact accepted")
	}
}

// journalRecorder captures journal calls for the hook tests.
type journalRecorder struct {
	batches [][2]int // (specs, rows) sizes of each LogBatch call
	fail    bool
}

func (j *journalRecorder) LogBatch(specs []MemberSpec, fact string, rows []FactRow) error {
	if j.fail {
		return fmt.Errorf("journal down")
	}
	j.batches = append(j.batches, [2]int{len(specs), len(rows)})
	return nil
}

func TestJournalHooks(t *testing.T) {
	w, err := New(snapTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	rec := &journalRecorder{}
	w.SetJournal(rec)
	populateSnapTest(t, w)
	if len(rec.batches) != 1 || rec.batches[0] != [2]int{6, 3} {
		t.Fatalf("batches logged: %v", rec.batches)
	}

	// A failing batch logs nothing: a bad spec or a bad row aborts
	// before the journal call.
	bad := []MemberSpec{
		{Dim: "City", Level: "City", Name: "Valencia", Parent: "Nowhere"},
	}
	if err := w.AddBatch(bad, "", nil); err == nil {
		t.Fatal("bad batch accepted")
	}
	badRows := []FactRow{{Coords: map[string]string{"City": "Nowhere", "Date": "2004-01-01"}}}
	if err := w.AddBatch(nil, "Weather", badRows); err == nil {
		t.Fatal("bad fact batch accepted")
	}
	if len(rec.batches) != 1 {
		t.Fatalf("failed batch reached the journal: %v", rec.batches)
	}

	// Journal failure surfaces to the caller, and the batch is not
	// applied: the log is written ahead of the tables.
	rec.fail = true
	if err := w.AddBatch(nil, "Weather", []FactRow{
		{Coords: map[string]string{"City": "Barcelona", "Date": "2004-01-01"}, Measures: map[string]float64{"TempC": 1}},
	}); err == nil {
		t.Fatal("journal failure swallowed")
	}
	if n := w.FactCount("Weather"); n != 3 {
		t.Fatalf("batch applied despite its journal failure: FactCount = %d, want 3", n)
	}
}
