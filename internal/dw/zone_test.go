package dw

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"dwqa/internal/obs"
)

// Row orders zoneWarehouse can commit its fact rows in.
const (
	orderShuffled = iota // random keys in random order: nothing prunes
	orderByDate          // ascending day, like the scenario's seeded facts
	orderByDest          // grouped by destination airport
	orderRuns            // runs of repeated coordinates
	numOrders
)

// zoneWarehouse builds a warehouse on the test schema whose Date
// dimension spans 2004 and 2005 (12 months of 28 days each, keys in
// chronological order) plus 2006-01-01, which no row references. Its
// rows draw random coordinates from rng and are committed in the given
// order, across AddBatch calls whose sizes do not align with zones.
// Prices are integers, so sums are exact in any fold order; Miles are
// not, so a changed fold order shows in their bits.
func zoneWarehouse(t testing.TB, rows int, seed int64, order int) *Warehouse {
	t.Helper()
	w, err := New(testSchema())
	if err != nil {
		t.Fatal(err)
	}
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
	add("Airport", "Airport", "Area 51", "") // rolls up to "(unknown)"
	var days []string
	for y := 2004; y <= 2005; y++ {
		add("Date", "Year", fmt.Sprint(y), "")
		for m := 1; m <= 12; m++ {
			month := fmt.Sprintf("%d-%02d", y, m)
			add("Date", "Month", month, fmt.Sprint(y))
			for d := 1; d <= 28; d++ {
				day := fmt.Sprintf("%s-%02d", month, d)
				add("Date", "Day", day, month)
				days = append(days, day)
			}
		}
	}
	add("Date", "Year", "2006", "")
	add("Date", "Month", "2006-01", "2006")
	add("Date", "Day", "2006-01-01", "2006-01")
	if err := w.AddBatch(specs, "", nil); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	airports := []string{"El Prat", "Barajas", "JFK", "La Guardia", "Area 51"}
	facts := make([]FactRow, rows)
	for i := range facts {
		facts[i] = FactRow{Coords: map[string]string{
			"Departure":   airports[rng.Intn(len(airports))],
			"Destination": airports[rng.Intn(len(airports))],
			"Date":        days[rng.Intn(len(days))],
		}, Measures: map[string]float64{
			"Price": float64(rng.Intn(900) + 50),
			"Miles": rng.Float64() * 6000,
		}}
	}
	switch order {
	case orderByDate:
		sort.SliceStable(facts, func(i, j int) bool { return facts[i].Coords["Date"] < facts[j].Coords["Date"] })
	case orderByDest:
		sort.SliceStable(facts, func(i, j int) bool {
			return facts[i].Coords["Destination"] < facts[j].Coords["Destination"]
		})
	case orderRuns:
		for i := 1; i < len(facts); i++ {
			if rng.Intn(100) != 0 {
				facts[i].Coords = facts[i-1].Coords
			}
		}
	}
	for len(facts) > 0 {
		n := min(len(facts), 1+rng.Intn(3*zoneRows))
		if err := w.AddBatch(nil, "LastMinuteSales", facts[:n]); err != nil {
			t.Fatal(err)
		}
		facts = facts[n:]
	}
	return w
}

// zoneQueries are filter shapes that exercise zone pruning on the
// date-ordered zoneWarehouse: a day no zone holds, years every zone
// holds, a day straddling the boundary between zones 1 and 2, one month,
// two distant months, and a slice on two roles.
func zoneQueries(straddle string) []Query {
	q := func(agg Agg, measure string, gb []LevelSel, fs ...Filter) Query {
		return Query{Fact: "LastMinuteSales", Measure: measure, Agg: agg, GroupBy: gb, Filters: fs}
	}
	byCity := []LevelSel{{Role: "Destination", Level: "City"}}
	return []Query{
		q(Sum, "Miles", byCity, Filter{"Date", "Day", []string{"2006-01-01"}}),
		q(Avg, "Miles", byCity, Filter{"Date", "Year", []string{"2004", "2005"}}),
		q(Sum, "Miles", byCity, Filter{"Date", "Day", []string{straddle}}),
		q(Max, "Miles", []LevelSel{{Role: "Date", Level: "Day"}}, Filter{"Date", "Month", []string{"2004-03"}}),
		q(Min, "Price", byCity, Filter{"Date", "Month", []string{"2004-02", "2005-11"}}),
		q(Avg, "Miles", nil,
			Filter{"Destination", "City", []string{"Barcelona"}},
			Filter{"Date", "Month", []string{"2005-06"}}),
		q(Count, "", []LevelSel{{Role: "Departure", Level: "Country"}},
			Filter{"Date", "Day", []string{straddle}},
			Filter{"Departure", "Airport", []string{"JFK", "Area 51"}}),
	}
}

// straddlingDay returns the day whose rows cross the boundary between
// zones 1 and 2 of a date-ordered warehouse.
func straddlingDay(t *testing.T, w *Warehouse) string {
	t.Helper()
	fd := w.facts["LastMinuteSales"]
	col := fd.roleColumn("Date")
	if fd.rows <= 2*zoneRows || col[2*zoneRows-1] != col[2*zoneRows] {
		t.Fatalf("no day straddles the zone 1/2 boundary of %d rows", fd.rows)
	}
	return w.memberNameLocked("Date", "Day", int(col[2*zoneRows]))
}

// cellsBitEqual reports the first difference between two cell lists,
// comparing Sum, Min and Max by their float64 bits.
func cellsBitEqual(got, want []CellRow) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d cells, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !reflect.DeepEqual(g.Groups, w.Groups) || g.Count != w.Count ||
			math.Float64bits(g.Sum) != math.Float64bits(w.Sum) ||
			math.Float64bits(g.Min) != math.Float64bits(w.Min) ||
			math.Float64bits(g.Max) != math.Float64bits(w.Max) {
			return fmt.Errorf("cell %d = %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// TestZonePruneMatchesUnpruned runs the equivalence queries and the
// zone-pruning shapes on date-ordered warehouses (one chunk, several
// chunks): Execute must render what the reference engine renders, and
// ExecuteCells must equal the same plan run with every zone live, bit
// for bit.
func TestZonePruneMatchesUnpruned(t *testing.T) {
	for _, rows := range []int{300, 3*planChunkSize + 17} {
		w := zoneWarehouse(t, rows, 99, orderByDate)
		straddle := "2004-01-01"
		if rows > 2*zoneRows {
			straddle = straddlingDay(t, w)
		}
		for i, q := range append(equivQueries(), zoneQueries(straddle)...) {
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
			pruned, err := w.ExecuteCells(q)
			if err != nil {
				t.Fatal(err)
			}
			full, err := w.executeCellsUnpruned(q)
			if err != nil {
				t.Fatal(err)
			}
			if err := cellsBitEqual(pruned, full); err != nil {
				t.Errorf("rows=%d query %d (%+v): pruned vs unpruned: %v", rows, i, q, err)
			}
		}
	}
}

// TestZonePruneCounters pins the work counters on the date-ordered
// warehouse: a day no zone holds prunes every zone, years every zone
// holds prune none, a day straddling a zone boundary reads exactly the
// two zones it spans, and an unmetered warehouse counts nothing.
func TestZonePruneCounters(t *testing.T) {
	const rows = 3*planChunkSize + 17
	w := zoneWarehouse(t, rows, 99, orderByDate)
	if _, err := w.Execute(zoneQueries("2004-01-01")[0]); err != nil {
		t.Fatal(err) // unmetered: must not touch nil counters
	}
	reg := obs.NewRegistry()
	met := Metrics{RowsScanned: reg.Counter("rows", ""), ZonesPruned: reg.Counter("zones", "")}
	w.SetMetrics(met)
	zones := uint64((rows + zoneRows - 1) / zoneRows)
	qs := zoneQueries(straddlingDay(t, w))
	for _, tc := range []struct {
		q               Query
		scanned, pruned uint64
	}{
		{qs[0], 0, zones},
		{qs[1], rows, 0},
		{qs[2], 2 * zoneRows, zones - 2},
	} {
		rows0, zones0 := met.RowsScanned.Value(), met.ZonesPruned.Value()
		if _, err := w.Execute(tc.q); err != nil {
			t.Fatal(err)
		}
		scanned, pruned := met.RowsScanned.Value()-rows0, met.ZonesPruned.Value()-zones0
		if scanned != tc.scanned || pruned != tc.pruned {
			t.Errorf("%+v: scanned %d rows and pruned %d zones, want %d and %d",
				tc.q.Filters, scanned, pruned, tc.scanned, tc.pruned)
		}
	}
}

// TestZoneMapsSurviveSnapshot checks that the zone maps AddBatch keeps
// current equal the ones Import rebuilds from a snapshot, and both the
// ones computed from scratch over the columns.
func TestZoneMapsSurviveSnapshot(t *testing.T) {
	for order := 0; order < numOrders; order++ {
		src := zoneWarehouse(t, 2*zoneRows+100, int64(order), order)
		dst, err := New(testSchema())
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Import(src.Export()); err != nil {
			t.Fatal(err)
		}
		a, b := src.facts["LastMinuteSales"], dst.facts["LastMinuteSales"]
		if len(a.zoneMin[0]) != 3 {
			t.Fatalf("order %d: %d zones over %d rows, want 3", order, len(a.zoneMin[0]), a.rows)
		}
		if !reflect.DeepEqual(a.zoneMin, b.zoneMin) || !reflect.DeepEqual(a.zoneMax, b.zoneMax) {
			t.Errorf("order %d: AddBatch zone maps\nmin %v\nmax %v\nImport zone maps\nmin %v\nmax %v",
				order, a.zoneMin, a.zoneMax, b.zoneMin, b.zoneMax)
		}
		for ri, col := range a.coords {
			for z := range a.zoneMin[ri] {
				keys := col[z*zoneRows : min((z+1)*zoneRows, a.rows)]
				lo, hi := keys[0], keys[0]
				for _, k := range keys {
					lo, hi = min(lo, k), max(hi, k)
				}
				if a.zoneMin[ri][z] != lo || a.zoneMax[ri][z] != hi {
					t.Errorf("order %d role %d zone %d: [%d, %d], want [%d, %d]",
						order, ri, z, a.zoneMin[ri][z], a.zoneMax[ri][z], lo, hi)
				}
			}
		}
	}
}

// FuzzZonePrune draws keys, a row order and queries with random filters
// and group-bys: the pruned scan must equal the unpruned one bit for bit.
func FuzzZonePrune(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(orderByDate), int64(1))
	f.Add(int64(2), uint16(3*planChunkSize/2), uint8(orderByDest), int64(2))
	f.Add(int64(3), uint16(2*planChunkSize+5), uint8(orderRuns), int64(3))
	f.Add(int64(4), uint16(5000), uint8(orderShuffled), int64(4))
	levels := map[string][]string{
		"Departure":   {"Airport", "City", "Country"},
		"Destination": {"Airport", "City", "Country"},
		"Date":        {"Day", "Month", "Year"},
	}
	dims := map[string]string{"Departure": "Airport", "Destination": "Airport", "Date": "Date"}
	roles := []string{"Departure", "Destination", "Date"}
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, order uint8, qseed int64) {
		w := zoneWarehouse(t, int(rows)%(3*planChunkSize), seed, int(order)%numOrders)
		rng := rand.New(rand.NewSource(qseed))
		pick := func() (string, string) {
			role := roles[rng.Intn(len(roles))]
			return role, levels[role][rng.Intn(3)]
		}
		for n := 0; n < 8; n++ {
			q := Query{Fact: "LastMinuteSales", Measure: "Miles", Agg: []Agg{Sum, Count, Avg, Min, Max}[rng.Intn(5)]}
			for g := rng.Intn(3); g > 0; g-- {
				role, level := pick()
				if !slices.Contains(q.GroupBy, LevelSel{role, level}) {
					q.GroupBy = append(q.GroupBy, LevelSel{role, level})
				}
			}
			for i := rng.Intn(4); i > 0; i-- {
				role, level := pick()
				names := w.Members(dims[role], level)
				var values []string
				for v := 1 + rng.Intn(3); v > 0; v-- {
					values = append(values, names[rng.Intn(len(names))])
				}
				if rng.Intn(8) == 0 {
					values = append(values, "Oz")
				}
				q.Filters = append(q.Filters, Filter{role, level, values})
			}
			pruned, err := w.ExecuteCells(q)
			if err != nil {
				t.Fatal(err)
			}
			full, err := w.executeCellsUnpruned(q)
			if err != nil {
				t.Fatal(err)
			}
			if err := cellsBitEqual(pruned, full); err != nil {
				t.Fatalf("%+v: pruned vs unpruned: %v", q, err)
			}
		}
	})
}
