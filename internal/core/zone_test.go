package core_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"dwqa/internal/core"
	"dwqa/internal/dw"
	"dwqa/internal/engine"
	"dwqa/internal/seed"
)

// dwWork reads the warehouse work counters off an engine's registry.
func dwWork(eng *engine.Engine) (rows, zones uint64) {
	reg := eng.Metrics()
	return reg.Counter("dwqa_dw_rows_scanned_total", "").Value(),
		reg.Counter("dwqa_dw_zones_pruned_total", "").Value()
}

// askWork asks one question and returns the rows the warehouse scanned
// and the zones it pruned answering it.
func askWork(t *testing.T, eng *engine.Engine, question string) (engine.AskResult, uint64, uint64) {
	t.Helper()
	rows0, zones0 := dwWork(eng)
	r := eng.Ask(context.Background(), question)
	if r.Err != nil {
		t.Fatalf("ask %q: %v", question, r.Err)
	}
	if r.OLAP == nil {
		t.Fatalf("ask %q: answered as a factoid", question)
	}
	rows, zones := dwWork(eng)
	return r, rows - rows0, zones - zones0
}

// weatherColumn reads one role of the Weather fact out of an export of
// the warehouse: the base-level member name of every row, in row order.
func weatherColumn(t *testing.T, wh *dw.Warehouse, role string) []string {
	t.Helper()
	fc := wh.Schema().Fact("Weather")
	ri := -1
	for i, ref := range fc.Dimensions {
		if ref.Role == role {
			ri = i
		}
	}
	if ri < 0 {
		t.Fatalf("Weather has no role %q", role)
	}
	dim := wh.Schema().Dimension(fc.Dimensions[ri].Dimension)
	snap := wh.Export()
	var members []dw.Member
	for _, ds := range snap.Dims {
		for _, ls := range ds.Levels {
			if ds.Dim == dim.Name && ls.Level == dim.Base().Name {
				members = ls.Members
			}
		}
	}
	for _, fs := range snap.Facts {
		if fs.Fact == "Weather" {
			out := make([]string, fs.Rows)
			for row, key := range fs.Coords[ri][:fs.Rows] {
				out[row] = members[key].Name
			}
			return out
		}
	}
	t.Fatal("export holds no Weather fact")
	return nil
}

// TestDWWorkCountersDeterministic asks the canonical analytic questions
// on two fresh engines over the fed scenario: the counter deltas must be
// byte-equal, and they are pinned so a change in what the warehouse
// reads shows.
func TestDWWorkCountersDeterministic(t *testing.T) {
	deltas := func() string {
		p, err := core.NewPipeline(core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := p.RunAll(); err != nil {
			t.Fatal(err)
		}
		eng, err := p.Engine()
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, q := range core.AnalyticQuestions() {
			_, rows, zones := askWork(t, eng, q)
			fmt.Fprintf(&b, "%d/%d ", rows, zones)
		}
		return b.String()
	}
	first, second := deltas(), deltas()
	if first != second {
		t.Fatalf("counter deltas differ between fresh engines:\n%s\n%s", first, second)
	}
	const want = "512/1 1024/3 1024/3 2214/0 2214/0 546/0 "
	if first != want {
		t.Errorf("counter deltas (rows scanned/zones pruned per question) = %q, want %q", first, want)
	}
}

// TestRestoredZonePruning serves analytic questions from a seeded,
// restored directory that holds all of 1998 and the first two cities of
// 1999, committed in (year, city, month, day) order as the benchmark
// corpus is. A narrow city-month question reads two zones; a by-city
// question reads only the zones of its year; and rows a feed appends
// after the restore land in the last zone and are answered.
func TestRestoredZonePruning(t *testing.T) {
	const pages = 2400 + 24
	p, _ := restoredPipeline(t, seed.Config{MaxPages: pages})
	eng, err := p.Engine()
	if err != nil {
		t.Fatal(err)
	}
	wh := p.Warehouse
	restored := wh.FactCount("Weather")
	zones := uint64((restored + 511) / 512)

	// The row range of 1998, read off the Date coordinates.
	first1999 := -1
	for row, day := range weatherColumn(t, wh, "Date") {
		if strings.HasPrefix(day, "1999-") {
			first1999 = row
			break
		}
	}
	if first1999 <= 0 {
		t.Fatalf("seeded directory holds no 1999 rows after %d rows", restored)
	}

	// February 1998 of the sixth city: its rows lie in one zone, and the
	// next zone, which spans into the next city's year, overlaps too.
	g := core.ScaledPage(5*12+1, 42).Gold[0]
	narrow := fmt.Sprintf("Average temperature in %s in %s of %d", g.City, time.Month(g.Month), g.Year)
	r, rows, pruned := askWork(t, eng, narrow)
	if len(r.OLAP.Result.Rows) != 1 {
		t.Fatalf("%q: %d result rows, want 1", narrow, len(r.OLAP.Result.Rows))
	}
	if rows > 1024 || pruned < zones-2 {
		t.Errorf("%q scanned %d rows and pruned %d of %d zones, want ≤ 1024 rows", narrow, rows, pruned, zones)
	}

	byCity := fmt.Sprintf("Average temperature by city in %s of %d", time.Month(g.Month), g.Year)
	r, rows, pruned = askWork(t, eng, byCity)
	if len(r.OLAP.Result.Rows) != 200 {
		t.Errorf("%q: %d result rows, want one per 1998 city (200)", byCity, len(r.OLAP.Result.Rows))
	}
	if yearZones := uint64((first1999 + 511) / 512); rows > yearZones*512 || pruned < zones-yearZones {
		t.Errorf("%q scanned %d rows and pruned %d zones; 1998 lies in the first %d of %d zones",
			byCity, rows, pruned, yearZones, zones)
	}

	harvest := p.WeatherQuestions()[0]
	res, _, err := eng.HarvestAll(context.Background(), []string{harvest})
	if err != nil || res[0].Err != nil || res[0].Loaded == 0 {
		t.Fatalf("feed %q: loaded %d rows, err %v / %v", harvest, res[0].Loaded, err, res[0].Err)
	}
	if got := wh.FactCount("Weather"); got != restored+res[0].Loaded {
		t.Fatalf("feed appended %d rows, want %d", got-restored, res[0].Loaded)
	}
	city := weatherColumn(t, wh, "City")[restored]
	day, err := time.Parse("2006-01-02", weatherColumn(t, wh, "Date")[restored])
	if err != nil {
		t.Fatal(err)
	}
	fed := fmt.Sprintf("Average temperature in %s in %s of %d", city, day.Month(), day.Year())
	r, rows, _ = askWork(t, eng, fed)
	if len(r.OLAP.Result.Rows) != 1 || r.OLAP.Result.Rows[0].Count == 0 {
		t.Fatalf("%q after the feed: %+v", fed, r.OLAP.Result.Rows)
	}
	if rows > 1024 {
		t.Errorf("%q scanned %d rows, want ≤ 1024 (the appended rows' zones)", fed, rows)
	}
}
