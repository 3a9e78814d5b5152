package etl

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"dwqa/internal/dw"
	"dwqa/internal/mdm"
	"dwqa/internal/ontology"
	"dwqa/internal/qa"
	"dwqa/internal/sbparser"
)

func weatherSchema() *mdm.Schema {
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
			{Name: "Month", Descriptor: "Name", RollsUpTo: "Year"},
			{Name: "Year", Descriptor: "Name"},
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
	return mdm.NewSchema("w").AddDimension(city).AddDimension(date).AddFactClass(weather)
}

func axiomOntology(t *testing.T) *ontology.Ontology {
	t.Helper()
	o := ontology.New("ax")
	for _, a := range []ontology.Axiom{
		{Concept: "Temperature", Kind: ontology.AxiomValueFormat, Units: []string{"ºC", "F"}},
		{Concept: "Temperature", Kind: ontology.AxiomValueRange, Unit: "C", Min: -90, Max: 60},
		{Concept: "Temperature", Kind: ontology.AxiomUnitConversion, FromUnit: "C", ToUnit: "F", Scale: 1.8, Offset: 32},
	} {
		if err := o.AddAxiom(a); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

func newLoader(t *testing.T) (*Loader, *dw.Warehouse) {
	t.Helper()
	wh, err := dw.New(weatherSchema())
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(axiomOntology(t), wh, "Weather", "City", "Date")
	if err != nil {
		t.Fatal(err)
	}
	return l, wh
}

func answer(val float64, unit, city string, y, m, d int) qa.Answer {
	return qa.Answer{
		Value: val, HasValue: true, Unit: unit, Location: city,
		Date: sbparser.DateRef{Year: y, Month: m, Day: d},
		URL:  "http://example.com/p", Score: 5,
	}
}

func TestNewLoaderValidation(t *testing.T) {
	wh, _ := dw.New(weatherSchema())
	if _, err := NewLoader(nil, nil, "Weather", "City", "Date"); err == nil {
		t.Error("nil warehouse accepted")
	}
	if _, err := NewLoader(nil, wh, "Ghost", "City", "Date"); err == nil {
		t.Error("unknown fact accepted")
	}
	if _, err := NewLoader(nil, wh, "Weather", "Ghost", "Date"); err == nil {
		t.Error("unknown city dim accepted")
	}
	if _, err := NewLoader(nil, wh, "Weather", "City", "Ghost"); err == nil {
		t.Error("unknown date dim accepted")
	}
	if _, err := NewLoader(nil, wh, "Weather", "City", "Date"); err != nil {
		t.Errorf("nil ontology should be allowed: %v", err)
	}
}

func TestNormalizeCelsius(t *testing.T) {
	l, _ := newLoader(t)
	rec, reason := l.Normalize(answer(8, "C", "Barcelona", 2004, 1, 31))
	if reason != "" {
		t.Fatalf("rejected: %s", reason)
	}
	if rec.TempC != 8 || rec.City != "Barcelona" || rec.DayKey() != "2004-01-31" {
		t.Errorf("record = %+v", rec)
	}
}

func TestNormalizeFahrenheitConversion(t *testing.T) {
	l, _ := newLoader(t)
	rec, reason := l.Normalize(answer(46.4, "F", "Barcelona", 2004, 1, 31))
	if reason != "" {
		t.Fatalf("rejected: %s", reason)
	}
	if rec.TempC < 7.999 || rec.TempC > 8.001 {
		t.Errorf("46.4F → %vC, want 8", rec.TempC)
	}
}

func TestNormalizeRejections(t *testing.T) {
	l, _ := newLoader(t)
	cases := []struct {
		ans    qa.Answer
		reason string
	}{
		{qa.Answer{Location: "X", Date: sbparser.DateRef{Year: 2004, Month: 1, Day: 1}}, "no numeric value"},
		{answer(8, "C", "", 2004, 1, 31), "no location"},
		{answer(8, "C", "Barcelona", 2004, 1, 0), "incomplete date"},
		{answer(8, "C", "Barcelona", 0, 1, 3), "incomplete date"},
		{answer(8, "K", "Barcelona", 2004, 1, 31), "unknown unit"},
		{answer(900, "C", "Barcelona", 2004, 1, 31), "out of range"},
		{answer(2000, "F", "Barcelona", 2004, 1, 31), "out of range"},
		{func() qa.Answer { a := answer(8, "C", "Barcelona", 2004, 1, 31); a.URL = ""; return a }(), "no source page"},
	}
	for _, c := range cases {
		_, reason := l.Normalize(c.ans)
		if !strings.Contains(reason, c.reason) {
			t.Errorf("Normalize(%+v) reason = %q, want %q", c.ans, reason, c.reason)
		}
	}
}

// TestLoadRecordsRejectsSourcelessRecords pins that every fed row
// carries its page: a record without one could never be recognised on a
// re-run, so it is rejected instead of loaded.
func TestLoadRecordsRejectsSourcelessRecords(t *testing.T) {
	l, wh := newLoader(t)
	rec := WeatherRecord{City: "Barcelona", Year: 2004, Month: 1, Day: 31, TempC: 8}
	rep, _, err := l.LoadRecords([]WeatherRecord{rec})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loaded != 0 || len(rep.Rejections) != 1 || rep.Rejections[0].Reason != "no source page" || wh.FactCount("Weather") != 0 {
		t.Fatalf("sourceless record: loaded %d, rejections %+v, %d rows", rep.Loaded, rep.Rejections, wh.FactCount("Weather"))
	}
}

func TestNormalizeUnitlessAssumedCelsius(t *testing.T) {
	// The §4.2 robustness fallback: table pages yield unitless values.
	l, _ := newLoader(t)
	rec, reason := l.Normalize(answer(8, "", "Madrid", 2004, 1, 3))
	if reason != "" || rec.TempC != 8 {
		t.Errorf("unitless normalize = %+v, %q", rec, reason)
	}
}

func TestLoadCreatesHierarchyAndFacts(t *testing.T) {
	l, wh := newLoader(t)
	answers := []qa.Answer{
		answer(8, "C", "Barcelona", 2004, 1, 31),
		answer(7, "C", "Barcelona", 2004, 1, 30),
		answer(44.6, "F", "Madrid", 2004, 1, 30),
		answer(999, "C", "Madrid", 2004, 1, 29), // rejected
	}
	rep, err := l.Load(answers)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loaded != 3 || rep.Normalized != 3 || len(rep.Rejections) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if wh.FactCount("Weather") != 3 {
		t.Errorf("weather rows = %d, want 3", wh.FactCount("Weather"))
	}
	// The date hierarchy was created with roll-up links.
	if parent, _ := wh.ParentName("Date", "Day", "2004-01-31"); parent != "2004-01" {
		t.Errorf("day parent = %q", parent)
	}
	if parent, _ := wh.ParentName("Date", "Month", "2004-01"); parent != "2004" {
		t.Errorf("month parent = %q", parent)
	}
	// The loaded values are queryable by month.
	res, err := wh.Execute(dw.Query{
		Fact: "Weather", Measure: "TempC", Agg: dw.Avg,
		GroupBy: []dw.LevelSel{{Role: "City", Level: "City"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, r := range res.Rows {
		got[r.Groups[0]] = r.Value
	}
	if got["Barcelona"] != 7.5 {
		t.Errorf("avg Barcelona = %v, want 7.5", got["Barcelona"])
	}
	if got["Madrid"] < 6.999 || got["Madrid"] > 7.001 {
		t.Errorf("avg Madrid = %v, want 7", got["Madrid"])
	}
	if !strings.Contains(rep.String(), "3 loaded") {
		t.Errorf("report string = %s", rep.String())
	}
	if len(rep.Rejections) != 1 || !strings.Contains(rep.Rejections[0].Reason, "out of range") {
		t.Errorf("rejections = %+v", rep.Rejections)
	}
}

func TestLoadIdempotentMembers(t *testing.T) {
	l, wh := newLoader(t)
	for i := 0; i < 3; i++ {
		if _, err := l.Load([]qa.Answer{answer(8, "C", "Barcelona", 2004, 1, 31)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := wh.MemberCount("Date", "Day"); n != 1 {
		t.Errorf("day members = %d, want 1", n)
	}
	if n := wh.MemberCount("City", "City"); n != 1 {
		t.Errorf("city members = %d, want 1", n)
	}
	if n := wh.FactCount("Weather"); n != 1 {
		t.Errorf("facts = %d, want 1 (duplicate loads are skipped)", n)
	}
}

func TestLoadSkipsDuplicatesInReport(t *testing.T) {
	l, wh := newLoader(t)
	rep, err := l.Load([]qa.Answer{
		answer(8, "C", "Barcelona", 2004, 1, 31),
		answer(8, "C", "Barcelona", 2004, 1, 31), // exact duplicate
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loaded != 1 || rep.Skipped != 1 {
		t.Errorf("report = %+v, want 1 loaded + 1 skipped", rep)
	}
	if wh.FactCount("Weather") != 1 {
		t.Errorf("facts = %d, want 1", wh.FactCount("Weather"))
	}
	// A different source page for the same day IS a new record (the
	// paper keeps all provenance so the user can compare sources).
	ans := answer(9, "C", "Barcelona", 2004, 1, 31)
	ans.URL = "http://other.example/page"
	rep, err = l.Load([]qa.Answer{ans})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Loaded != 1 {
		t.Errorf("different source should load: %+v", rep)
	}
	if wh.FactCount("Weather") != 2 {
		t.Errorf("facts = %d, want 2", wh.FactCount("Weather"))
	}
}

// Property: normalisation never produces an out-of-range Celsius record.
func TestNormalizeRangeProperty(t *testing.T) {
	l, _ := newLoader(t)
	f := func(val float64, useF bool) bool {
		if val != val || math_IsInf(val) {
			return true
		}
		unit := "C"
		if useF {
			unit = "F"
		}
		rec, reason := l.Normalize(answer(val, unit, "X", 2004, 1, 1))
		if reason != "" {
			return true // rejected is fine
		}
		return rec.TempC >= -90 && rec.TempC <= 60
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func math_IsInf(v float64) bool { return v > 1e300 || v < -1e300 }

func TestLoaderWithoutOntologyFallbacks(t *testing.T) {
	wh, _ := dw.New(weatherSchema())
	l, err := NewLoader(nil, wh, "Weather", "City", "Date")
	if err != nil {
		t.Fatal(err)
	}
	rec, reason := l.Normalize(answer(46.4, "F", "X", 2004, 1, 1))
	if reason != "" || rec.TempC < 7.99 || rec.TempC > 8.01 {
		t.Errorf("fallback F→C = %+v %q", rec, reason)
	}
	if _, reason := l.Normalize(answer(500, "C", "X", 2004, 1, 1)); !strings.Contains(reason, "out of range") {
		t.Errorf("fallback range check missed: %q", reason)
	}
}

// TestDateKeysMatchFmt pins the buffer-rendered date keys to the fmt
// forms they replace, on the edges of the fixed-width fields and beyond
// them (where the keys fall back to fmt).
func TestDateKeysMatchFmt(t *testing.T) {
	for _, r := range []WeatherRecord{
		{Year: 2004, Month: 1, Day: 31},
		{Year: 0, Month: 0, Day: 0},
		{Year: 9999, Month: 99, Day: 99},
		{Year: -5, Month: 7, Day: 4},
		{Year: 12345, Month: 7, Day: 4},
		{Year: 2004, Month: 100, Day: 1},
		{Year: 2004, Month: 1, Day: 100},
		{Year: 2004, Month: 0, Day: 100},
		{Year: 2004, Month: -1, Day: -1},
	} {
		if got, want := r.DayKey(), fmt.Sprintf("%04d-%02d-%02d", r.Year, r.Month, r.Day); got != want {
			t.Errorf("%+v DayKey = %q, want %q", r, got, want)
		}
		if got, want := r.MonthKey(), fmt.Sprintf("%04d-%02d", r.Year, r.Month); got != want {
			t.Errorf("%+v MonthKey = %q, want %q", r, got, want)
		}
		if got, want := r.YearKey(), fmt.Sprintf("%04d", r.Year); got != want {
			t.Errorf("%+v YearKey = %q, want %q", r, got, want)
		}
	}
}
