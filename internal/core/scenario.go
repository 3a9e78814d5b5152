// Package core implements the paper's primary contribution: the five-step
// semi-automatic model integrating a data warehouse with a question
// answering system through a shared ontology. It also ships the Last
// Minute Sales scenario (the paper's Figures 1 and 2) as the runnable
// evaluation environment.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dwqa/internal/dw"
	"dwqa/internal/mdm"
	"dwqa/internal/webcorpus"
)

// sortedKeys returns a map's keys in sorted order. Member creation
// must iterate deterministically: member ids follow insertion order and
// the durable snapshots encode them, so map-order iteration would make
// byte-level state convergence across processes impossible.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Airport describes one airport of the scenario.
type Airport struct {
	Name    string
	IATA    string
	Alias   string // alternative name known to the outside world
	City    string
	Country string
}

// ScenarioAirports is the airport roster of the Last Minute Sales
// scenario, carrying the paper's ambiguous entities.
var ScenarioAirports = []Airport{
	{Name: "El Prat", IATA: "BCN", Alias: "Barcelona-El Prat", City: "Barcelona", Country: "Spain"},
	{Name: "Barajas", IATA: "MAD", Alias: "Madrid-Barajas", City: "Madrid", Country: "Spain"},
	{Name: "JFK", IATA: "JFK", Alias: "Kennedy International Airport", City: "New York", Country: "USA"},
	{Name: "La Guardia", IATA: "LGA", Alias: "LaGuardia Airport", City: "New York", Country: "USA"},
	{Name: "John Wayne", IATA: "SNA", Alias: "Orange County Airport", City: "Costa Mesa", Country: "USA"},
	{Name: "San Pablo", IATA: "SVQ", Alias: "Seville Airport", City: "Seville", Country: "Spain"},
	{Name: "Sondica", IATA: "BIO", Alias: "Bilbao Airport", City: "Bilbao", Country: "Spain"},
}

// Figure1Schema builds the multidimensional model of the paper's Figure 1:
// the Last Minute Sales fact (measures Price and Miles) analysed by the
// Airport dimension (in the Departure and Destination roles), Customer and
// Date; plus the Weather fact the integration feeds in Step 5.
func Figure1Schema() *mdm.Schema {
	airport := &mdm.DimensionClass{
		Name: "Airport",
		Levels: []*mdm.Level{
			{Name: "Airport", Descriptor: "Name", RollsUpTo: "City",
				Attributes: []mdm.Attribute{{Name: "IATA", Type: mdm.TypeString}, {Name: "Alias", Type: mdm.TypeString}}},
			{Name: "City", Descriptor: "Name", RollsUpTo: "Country"},
			{Name: "Country", Descriptor: "Name"},
		},
	}
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
	customer := &mdm.DimensionClass{
		Name: "Customer",
		Levels: []*mdm.Level{
			{Name: "Customer", Descriptor: "Name", RollsUpTo: "Segment",
				Attributes: []mdm.Attribute{{Name: "Rate", Type: mdm.TypeFloat}}},
			{Name: "Segment", Descriptor: "Name"},
		},
	}
	sales := &mdm.FactClass{
		Name: "LastMinuteSales",
		Measures: []mdm.Measure{
			{Name: "Price", Type: mdm.TypeFloat},
			{Name: "Miles", Type: mdm.TypeFloat},
		},
		Dimensions: []mdm.DimensionRef{
			{Role: "Departure", Dimension: "Airport"},
			{Role: "Destination", Dimension: "Airport"},
			{Role: "Date", Dimension: "Date"},
			{Role: "Customer", Dimension: "Customer"},
		},
	}
	// The Weather fact is the landing zone of Step 5: it stays empty until
	// the QA system feeds it.
	weather := &mdm.FactClass{
		Name:     "Weather",
		Measures: []mdm.Measure{{Name: "TempC", Type: mdm.TypeFloat}},
		Dimensions: []mdm.DimensionRef{
			{Role: "City", Dimension: "City"},
			{Role: "Date", Dimension: "Date"},
		},
	}
	return mdm.NewSchema("LastMinuteSales").
		AddDimension(airport).AddDimension(city).AddDimension(date).AddDimension(customer).
		AddFact(sales).AddFact(weather)
}

// routeMiles approximates flight distances between scenario cities.
var routeMiles = map[[2]string]float64{
	{"Barcelona", "Madrid"}: 314, {"Barcelona", "New York"}: 3833,
	{"Barcelona", "Costa Mesa"}: 6073, {"Barcelona", "Seville"}: 514,
	{"Barcelona", "Bilbao"}: 291, {"Madrid", "New York"}: 3589,
	{"Madrid", "Costa Mesa"}: 5828, {"Madrid", "Seville"}: 244,
	{"Madrid", "Bilbao"}: 190, {"New York", "Costa Mesa"}: 2448,
	{"New York", "Seville"}: 3571, {"New York", "Bilbao"}: 3444,
	{"Costa Mesa", "Seville"}: 5810, {"Costa Mesa", "Bilbao"}: 5656,
	{"Seville", "Bilbao"}: 432,
}

func milesBetween(a, b string) float64 {
	if a == b {
		return 0
	}
	if m, ok := routeMiles[[2]string{a, b}]; ok {
		return m
	}
	if m, ok := routeMiles[[2]string{b, a}]; ok {
		return m
	}
	return 1000
}

// PopulateScenario fills the warehouse with the scenario dimensions and a
// deterministic synthetic sales history whose latent driver is the same
// weather series the web corpus publishes: the number of last-minute
// tickets sold to a destination grows with the destination's daily high.
// That latent relationship is what the enriched warehouse must make
// discoverable (the paper's motivating analysis: "the range of
// temperatures that lead to increase the last minute sales to that
// city").
func PopulateScenario(wh ScenarioTarget, year int, months []int, seed int64) error {
	return PopulateScenarioScaled(wh, year, months, seed, 1)
}

// ScenarioTarget is the write surface the scenario population drives —
// a single *dw.Warehouse or a shard.Cluster, which replicates members
// to every shard and routes fact rows by city hash. Both apply the same
// calls in the same order, so member keys (and therefore exported
// dimension state) are identical across topologies.
type ScenarioTarget interface {
	AddMember(dim, level, name string, attrs map[string]string, parentName string) (int, error)
	AddFact(fact string, coords map[string]string, measures map[string]float64) error
}

// PopulateScenarioScaled is PopulateScenario with a demand multiplier: the
// expected number of tickets per (day, destination) grows linearly with
// scale while the noise grows with sqrt(scale), keeping the latent
// weather→sales relationship intact. scale 1 reproduces PopulateScenario
// bit for bit; large scales emit 100k+ fact rows for the scaling
// benchmarks.
func PopulateScenarioScaled(wh ScenarioTarget, year int, months []int, seed int64, scale int) error {
	if scale < 1 {
		scale = 1
	}
	// Dimension members. Insertion order must be deterministic — member
	// ids follow it, and the durable snapshots encode those ids, so two
	// pipelines built from the same config must create members in the
	// same order to export byte-identical state (the seeder's
	// kill-and-resume convergence check compares exactly that).
	cities := map[string]string{} // city → country
	for _, a := range ScenarioAirports {
		cities[a.City] = a.Country
	}
	countryNames := map[string]bool{}
	for _, country := range cities {
		countryNames[country] = true
	}
	for _, c := range sortedKeys(countryNames) {
		if _, err := wh.AddMember("Airport", "Country", c, nil, ""); err != nil {
			return err
		}
		if _, err := wh.AddMember("City", "Country", c, nil, ""); err != nil {
			return err
		}
	}
	for _, city := range sortedKeys(cities) {
		country := cities[city]
		if _, err := wh.AddMember("Airport", "City", city, nil, country); err != nil {
			return err
		}
		if _, err := wh.AddMember("City", "City", city, nil, country); err != nil {
			return err
		}
	}
	for _, a := range ScenarioAirports {
		attrs := map[string]string{"IATA": a.IATA, "Alias": a.Alias}
		if _, err := wh.AddMember("Airport", "Airport", a.Name, attrs, a.City); err != nil {
			return err
		}
	}
	for _, seg := range []string{"Business", "Leisure"} {
		if _, err := wh.AddMember("Customer", "Segment", seg, nil, ""); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	customers := make([]string, 24)
	for i := range customers {
		customers[i] = fmt.Sprintf("Customer-%02d", i+1)
		seg := "Leisure"
		if i%3 == 0 {
			seg = "Business"
		}
		rate := 1 + rng.Float64()*4
		attrs := map[string]string{"Rate": fmt.Sprintf("%.2f", rate)}
		if _, err := wh.AddMember("Customer", "Customer", customers[i], attrs, seg); err != nil {
			return err
		}
	}

	// Date members and fact rows.
	for _, month := range months {
		series := map[string][]webcorpus.WeatherDay{}
		for city := range cities {
			series[city] = webcorpus.WeatherSeries(city, year, month, seed)
		}
		monthKey := fmt.Sprintf("%04d-%02d", year, month)
		yearKey := fmt.Sprintf("%04d", year)
		if _, err := wh.AddMember("Date", "Year", yearKey, nil, ""); err != nil {
			return err
		}
		if _, err := wh.AddMember("Date", "Month", monthKey, nil, yearKey); err != nil {
			return err
		}
		nDays := len(series[ScenarioAirports[0].City])
		for day := 1; day <= nDays; day++ {
			dayKey := fmt.Sprintf("%s-%02d", monthKey, day)
			if _, err := wh.AddMember("Date", "Day", dayKey, nil, monthKey); err != nil {
				return err
			}
			for _, dst := range ScenarioAirports {
				temp := float64(series[dst.City][day-1].HighC)
				// Demand model: warmer destinations attract more
				// last-minute travellers; noise keeps it realistic.
				expected := float64(scale)*(1.5+0.35*temp) + rng.NormFloat64()*1.2*math.Sqrt(float64(scale))
				n := int(math.Round(expected))
				if n < 0 {
					n = 0
				}
				for k := 0; k < n; k++ {
					dep := ScenarioAirports[rng.Intn(len(ScenarioAirports))]
					if dep.Name == dst.Name {
						continue
					}
					miles := milesBetween(dep.City, dst.City)
					price := 60 + rng.Float64()*240 + miles*0.05
					err := wh.AddFact("LastMinuteSales",
						map[string]string{
							"Departure":   dep.Name,
							"Destination": dst.Name,
							"Date":        dayKey,
							"Customer":    customers[rng.Intn(len(customers))],
						},
						map[string]float64{"Price": math.Round(price*100) / 100, "Miles": miles})
					if err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// ScaledOLAPQuery is the canonical workload of the OLAP scaling
// benchmarks: a grouped roll-up (destination country × month) with a dice
// filter on the destination city — the hot path of the BI analysis at
// warehouse scale. BenchmarkOLAPExecute times it and the sharded
// equivalence tests replay it.
func ScaledOLAPQuery() dw.Query {
	return dw.Query{
		Fact: "LastMinuteSales", Measure: "Price", Agg: dw.Sum,
		GroupBy: []dw.LevelSel{
			{Role: "Destination", Level: "Country"},
			{Role: "Date", Level: "Month"},
		},
		Filters: []dw.Filter{{
			Role: "Destination", Level: "City",
			Values: []string{"Barcelona", "Madrid", "New York", "Seville"},
		}},
	}
}

// ResultsAlmostEqual compares two OLAP results: groups and per-row fact
// counts must match exactly, aggregate values within a small relative
// tolerance. The slack absorbs float association differences between the
// compiled engine's chunk-merged sums and the reference engine's
// sequential sums over non-integer measures (the dw equivalence tests use
// integer measures and assert byte identity; at benchmark scale the prices
// have cents). Returns nil when equivalent.
func ResultsAlmostEqual(a, b *dw.Result) error {
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

// BuildScaledWarehouse returns a Figure 1 warehouse whose LastMinuteSales
// fact holds at least targetRows rows, by probing the unscaled generator
// once and then re-running it with the demand multiplier that reaches the
// target. Deterministic given the seed; used by BenchmarkOLAPExecute.
func BuildScaledWarehouse(targetRows int, seed int64) (*dw.Warehouse, error) {
	year, months := 2004, []int{1, 2, 3}
	probe, err := dw.New(Figure1Schema())
	if err != nil {
		return nil, err
	}
	if err := PopulateScenario(probe, year, months, seed); err != nil {
		return nil, err
	}
	base := probe.FactCount("LastMinuteSales")
	scale := 1
	if base > 0 && targetRows > base {
		scale = (targetRows + base - 1) / base
	}
	if scale == 1 {
		return probe, nil
	}
	// Demand is expected-linear in scale but noisy, so ceil(target/base)
	// can land just under the floor; bump the scale until the target is
	// actually met.
	for attempt := 0; attempt < 8; attempt++ {
		wh, err := dw.New(Figure1Schema())
		if err != nil {
			return nil, err
		}
		if err := PopulateScenarioScaled(wh, year, months, seed, scale); err != nil {
			return nil, err
		}
		if wh.FactCount("LastMinuteSales") >= targetRows {
			return wh, nil
		}
		scale += 1 + scale/10
	}
	return nil, fmt.Errorf("core: could not reach %d fact rows (base %d)", targetRows, base)
}
