package bi

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dwqa/internal/dw"
	"dwqa/internal/mdm"
)

// testWarehouse builds a minimal sales+weather warehouse with a controlled
// relationship: tickets per day = round(temp), so correlation must be ~1.
func testWarehouse(t *testing.T) *dw.Warehouse {
	t.Helper()
	airport := &mdm.DimensionClass{
		Name: "Airport",
		Levels: []*mdm.Level{
			{Name: "Airport", Descriptor: "Name", RollsUpTo: "City"},
			{Name: "City", Descriptor: "Name"},
		},
	}
	city := &mdm.DimensionClass{
		Name:   "City",
		Levels: []*mdm.Level{{Name: "City", Descriptor: "Name"}},
	}
	date := &mdm.DimensionClass{
		Name:   "Date",
		Levels: []*mdm.Level{{Name: "Day", Descriptor: "Date"}},
	}
	sales := &mdm.FactClass{
		Name:     "LastMinuteSales",
		Measures: []mdm.Measure{{Name: "Price", Type: mdm.TypeFloat}},
		Dimensions: []mdm.DimensionRef{
			{Role: "Destination", Dimension: "Airport"},
			{Role: "Date", Dimension: "Date"},
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
	schema := mdm.NewSchema("t").AddDimension(airport).AddDimension(city).
		AddDimension(date).AddFactClass(sales).AddFactClass(weather)
	wh, err := dw.New(schema)
	if err != nil {
		t.Fatal(err)
	}
	specs := []dw.MemberSpec{
		{Dim: "Airport", Level: "City", Name: "Barcelona"},
		{Dim: "Airport", Level: "Airport", Name: "El Prat", Parent: "Barcelona"},
		{Dim: "City", Level: "City", Name: "Barcelona"},
	}
	var weatherRows, salesRows []dw.FactRow
	temps := []float64{2, 5, 8, 11, 14, 17, 20}
	for i, temp := range temps {
		day := dayKey(i)
		specs = append(specs, dw.MemberSpec{Dim: "Date", Level: "Day", Name: day})
		weatherRows = append(weatherRows, dw.FactRow{
			Coords:   map[string]string{"City": "Barcelona", "Date": day},
			Measures: map[string]float64{"TempC": temp},
		})
		for k := 0; k < int(temp); k++ {
			salesRows = append(salesRows, dw.FactRow{
				Coords:   map[string]string{"Destination": "El Prat", "Date": day},
				Measures: map[string]float64{"Price": 100 + temp},
			})
		}
	}
	if err := wh.AddBatch(specs, "Weather", weatherRows); err != nil {
		t.Fatal(err)
	}
	if err := wh.AddBatch(nil, "LastMinuteSales", salesRows); err != nil {
		t.Fatal(err)
	}
	return wh
}

func dayKey(i int) string {
	return "2004-01-" + string(rune('0'+(i+10)/10)) + string(rune('0'+(i+10)%10))
}

func dspec() JoinSpec { return DefaultJoinSpec() }

func TestJoin(t *testing.T) {
	wh := testWarehouse(t)
	points, err := Join(wh, dspec())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 7 {
		t.Fatalf("points = %d, want 7", len(points))
	}
	for _, p := range points {
		if p.City != "Barcelona" {
			t.Errorf("city = %s", p.City)
		}
		if float64(p.Tickets) != p.TempC {
			t.Errorf("day %s: tickets %d != temp %v (constructed equality)", p.Day, p.Tickets, p.TempC)
		}
	}
}

func TestJoinSkipsUnmatched(t *testing.T) {
	wh := testWarehouse(t)
	// Sales on a day without weather must not join.
	if err := wh.AddBatch([]dw.MemberSpec{{Dim: "Date", Level: "Day", Name: "2004-02-01"}}, "LastMinuteSales", []dw.FactRow{{
		Coords:   map[string]string{"Destination": "El Prat", "Date": "2004-02-01"},
		Measures: map[string]float64{"Price": 100},
	}}); err != nil {
		t.Fatal(err)
	}
	points, err := Join(wh, dspec())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 7 {
		t.Errorf("points = %d, want 7 (unmatched day excluded)", len(points))
	}
}

func TestJoinErrors(t *testing.T) {
	wh := testWarehouse(t)
	bad := dspec()
	bad.SalesFact = "Ghost"
	if _, err := Join(wh, bad); err == nil {
		t.Error("unknown sales fact accepted")
	}
	bad = dspec()
	bad.WeatherFact = "Ghost"
	if _, err := Join(wh, bad); err == nil {
		t.Error("unknown weather fact accepted")
	}
}

func TestPearson(t *testing.T) {
	if r := Pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); math.Abs(r-1) > 1e-9 {
		t.Errorf("perfect positive = %v", r)
	}
	if r := Pearson([]float64{1, 2, 3}, []float64{6, 4, 2}); math.Abs(r+1) > 1e-9 {
		t.Errorf("perfect negative = %v", r)
	}
	if r := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); r != 0 {
		t.Errorf("degenerate x = %v", r)
	}
	if r := Pearson(nil, nil); r != 0 {
		t.Errorf("empty = %v", r)
	}
	if r := Pearson([]float64{1}, []float64{1, 2}); r != 0 {
		t.Errorf("length mismatch = %v", r)
	}
}

// Property: Pearson is bounded in [-1, 1] and symmetric.
func TestPearsonProperties(t *testing.T) {
	f := func(pairs []struct{ X, Y float64 }) bool {
		if len(pairs) < 2 {
			return true
		}
		xs := make([]float64, len(pairs))
		ys := make([]float64, len(pairs))
		for i, p := range pairs {
			if p.X != p.X || p.Y != p.Y || math.Abs(p.X) > 1e150 || math.Abs(p.Y) > 1e150 {
				return true
			}
			xs[i], ys[i] = p.X, p.Y
		}
		r := Pearson(xs, ys)
		if r < -1.0000001 || r > 1.0000001 {
			return false
		}
		return math.Abs(r-Pearson(ys, xs)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBinByTemperature(t *testing.T) {
	points := []Point{
		{TempC: 2, Tickets: 2, Revenue: 200},
		{TempC: 4, Tickets: 4, Revenue: 400},
		{TempC: 11, Tickets: 11, Revenue: 1100},
		{TempC: -3, Tickets: 1, Revenue: 100},
	}
	bins := BinByTemperature(points, 5)
	if len(bins) != 3 {
		t.Fatalf("bins = %+v", bins)
	}
	if bins[0].Lo != -5 || bins[0].Hi != 0 {
		t.Errorf("first bin = [%v,%v)", bins[0].Lo, bins[0].Hi)
	}
	if bins[1].Tickets != 6 || bins[1].Days != 2 || bins[1].TicketsPerDay != 3 {
		t.Errorf("mid bin = %+v", bins[1])
	}
	if bins[1].AvgTicketPrice != 100 {
		t.Errorf("avg price = %v", bins[1].AvgTicketPrice)
	}
	if BinByTemperature(nil, 5) != nil {
		t.Error("empty points should bin to nil")
	}
	if BinByTemperature(points, 0) != nil {
		t.Error("zero width should bin to nil")
	}
}

func TestAnalyze(t *testing.T) {
	wh := testWarehouse(t)
	rep, err := Analyze(wh, dspec(), Options{BinWidth: 5, MinDays: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correlation < 0.99 {
		t.Errorf("correlation = %v, constructed to be ~1", rep.Correlation)
	}
	if rep.BestBin == nil || rep.BestBin.Lo != 20 {
		t.Errorf("best bin = %+v, want the warmest", rep.BestBin)
	}
	if len(rep.Recommendations) == 0 {
		t.Error("no recommendations")
	}
	out := rep.Format()
	for _, want := range []string{"Pearson", "tickets/day", "=>"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeEmptyJoin(t *testing.T) {
	wh := testWarehouse(t)
	spec := dspec()
	spec.WeatherCity = "City" // valid but weather fact emptied below
	// Build a fresh warehouse without weather rows.
	empty := testWarehouse(t)
	_ = empty
	// Simplest: query a warehouse whose weather fact has no rows by using
	// a different city member name on the sales side — here instead drop
	// to the error branch by filtering everything out with a bogus spec.
	spec2 := dspec()
	spec2.DestRole = "Destination"
	// Build warehouse with no weather facts at all.
	wh2, err := dw.New(wh.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(wh2, spec2, Options{}); err == nil {
		t.Error("analysis over an unfed warehouse should fail loudly")
	}
}
