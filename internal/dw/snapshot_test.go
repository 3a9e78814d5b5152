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
	// The provenance column survives, including rows without provenance:
	// one dictionary entry for the two rows of one page.
	if got := snap.Facts[0]; !reflect.DeepEqual(got.Sources, []string{"http://a"}) || !reflect.DeepEqual(got.SourceCodes, []int32{0, 0, -1}) {
		t.Fatalf("provenance column = %q %v, want [http://a] [0 0 -1]", got.Sources, got.SourceCodes)
	}
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
		{"provenance out of range", func(s *Snapshot) { s.Facts[0].SourceCodes[0] = 1 }},
		{"source code below none", func(s *Snapshot) { s.Facts[0].SourceCodes[0] = -2 }},
		{"ragged source code column", func(s *Snapshot) { s.Facts[0].SourceCodes = s.Facts[0].SourceCodes[:1] }},
		{"repeated source", func(s *Snapshot) { s.Facts[0].Sources = append(s.Facts[0].Sources, "http://a") }},
		{"empty source", func(s *Snapshot) { s.Facts[0].Sources = append(s.Facts[0].Sources, "") }},
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

// TestHasSources pins the dedup probe: a row is held when a fact row at
// the same coordinates carries the same source, whatever its measures,
// and the answers are the same from the live set appendRow keeps and
// from the one Import rebuilds. A fact stores no code column until its
// first row with a source arrives; the rows before it then read as
// carrying none.
func TestHasSources(t *testing.T) {
	w, err := New(snapTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	specs := []MemberSpec{
		{Dim: "City", Level: "Country", Name: "Spain"},
		{Dim: "City", Level: "City", Name: "Barcelona", Parent: "Spain"},
		{Dim: "City", Level: "City", Name: "Madrid", Parent: "Spain"},
		{Dim: "Date", Level: "Month", Name: "2004-01"},
	}
	var rows []FactRow
	for d := 1; d <= 28; d++ {
		day := fmt.Sprintf("2004-01-%02d", d)
		specs = append(specs, MemberSpec{Dim: "Date", Level: "Day", Name: day, Parent: "2004-01"})
		rows = append(rows, FactRow{Coords: map[string]string{"City": "Madrid", "Date": day}, Measures: map[string]float64{"TempC": 3}})
	}
	if err := w.AddBatch(specs, "Weather", rows); err != nil {
		t.Fatal(err)
	}
	if fs := w.Export().Facts[0]; fs.Sources != nil || fs.SourceCodes != nil {
		t.Fatalf("a fact without provenance exports %q %v, want no column", fs.Sources, fs.SourceCodes)
	}
	// 2,000 sourced rows over 56 (city, day) cells and 40 pages, so the
	// held set grows several times.
	src := func(i int) string { return fmt.Sprintf("http://w/%d", i%40) }
	cell := func(i int) map[string]string {
		return map[string]string{"City": []string{"Barcelona", "Madrid"}[i%2], "Date": fmt.Sprintf("2004-01-%02d", i%28+1)}
	}
	rows = rows[:0]
	for i := 0; i < 2000; i++ {
		rows = append(rows, FactRow{Coords: cell(i), Measures: map[string]float64{"TempC": float64(i)}, Provenance: src(i)})
	}
	if err := w.AddBatch(nil, "Weather", rows); err != nil {
		t.Fatal(err)
	}
	fs := w.Export().Facts[0]
	if len(fs.Sources) != 40 || len(fs.SourceCodes) != 2028 || fs.SourceCodes[27] != -1 || fs.SourceCodes[28] != 0 {
		t.Fatalf("provenance column: %d sources, %d codes (%v at the first sourced row)",
			len(fs.Sources), len(fs.SourceCodes), fs.SourceCodes[26:30])
	}

	var probes []FactRow
	var want []bool
	for i := 0; i < 2000; i += 7 {
		probes = append(probes, FactRow{Coords: cell(i), Provenance: src(i)})
		want = append(want, true)
		// A page this cell never cited: i and i+1 differ in city.
		probes = append(probes, FactRow{Coords: cell(i), Provenance: src(i + 1)})
		want = append(want, false)
	}
	probes = append(probes,
		FactRow{Coords: map[string]string{"City": "Madrid", "Date": "2004-01-05"}},                         // no source: never held
		FactRow{Coords: map[string]string{"City": "Paris", "Date": "2004-01-05"}, Provenance: src(0)},      // unknown member
		FactRow{Coords: map[string]string{"City": "Madrid", "Date": "2004-01-05"}, Provenance: "http://x"}, // unknown page
	)
	want = append(want, false, false, false)

	dst, err := New(snapTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Import(w.Export()); err != nil {
		t.Fatal(err)
	}
	for name, wh := range map[string]*Warehouse{"live": w, "imported": dst} {
		got, err := wh.HasSources("Weather", probes)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s warehouse: HasSources = %v, want %v", name, got, want)
		}
	}
	// Two cells citing 3,000 pages each, none in common: every probe of
	// one cell with the other's pages walks past rows at its own
	// coordinates, which must not match on coordinates alone.
	crowd, err := New(snapTestSchema())
	if err != nil {
		t.Fatal(err)
	}
	cells := []map[string]string{{"City": "Barcelona", "Date": "2004-01-01"}, {"City": "Madrid", "Date": "2004-01-01"}}
	rows = rows[:0]
	for i := 0; i < 6000; i++ {
		rows = append(rows, FactRow{Coords: cells[i/3000], Provenance: src(i) + "/" + fmt.Sprint(i)})
	}
	if err := crowd.AddBatch(specs[:5], "Weather", rows); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		rows[i].Coords = cells[1-i/3000]
	}
	got, err := crowd.HasSources("Weather", rows)
	if err != nil {
		t.Fatal(err)
	}
	for i, held := range got {
		if held {
			t.Fatalf("cell %v holds page %q, which only the other cell cites", rows[i].Coords, rows[i].Provenance)
		}
	}

	if _, err := w.HasSources("Nope", probes); err == nil {
		t.Error("unknown fact accepted")
	}
	if _, err := w.HasSources("Weather", []FactRow{{Coords: map[string]string{"City": "Madrid"}, Provenance: src(0)}}); err == nil {
		t.Error("probe row missing a role accepted")
	}
}
