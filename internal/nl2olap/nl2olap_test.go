package nl2olap_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"dwqa/internal/core"
	"dwqa/internal/dw"
	"dwqa/internal/nl2olap"
	"dwqa/internal/ontology"
)

// The fixture is the scenario warehouse with the Step 1-2 ontology (the
// state member grounding needs); built once, read by every test — the
// translator is concurrency-safe once configured.
var (
	fixOnce  sync.Once
	fixTrans *nl2olap.Translator
	fixWh    *dw.Warehouse
	fixOnto  *ontology.Ontology
)

func fixture(t testing.TB) (*nl2olap.Translator, *dw.Warehouse) {
	t.Helper()
	fixOnce.Do(func() {
		p, err := core.NewPipeline(core.DefaultConfig())
		if err != nil {
			panic(err)
		}
		if err := p.Step1DeriveOntology(); err != nil {
			panic(err)
		}
		if err := p.Step2FeedOntology(); err != nil {
			panic(err)
		}
		tr, err := core.NewScenarioTranslator(p.Warehouse, p.Ontology)
		if err != nil {
			panic(err)
		}
		fixTrans, fixWh, fixOnto = tr, p.Warehouse, p.Ontology
	})
	return fixTrans, fixWh
}

// fixtureOntology returns the fixture's Step 1-2 ontology.
func fixtureOntology(t testing.TB) *ontology.Ontology {
	fixture(t)
	return fixOnto
}

// TestTranslatePlans pins the compiled plan for the workload shapes the
// ISSUE motivates: measure selection, ontology grounding, role
// preferences, date granularity and group-by parsing.
func TestTranslatePlans(t *testing.T) {
	tr, _ := fixture(t)
	cases := []struct{ question, plan string }{
		{
			"What is the average temperature in Barcelona by month?",
			"Weather avg(TempC) by Date/Month where City/City in {Barcelona}",
		},
		{
			"Total last-minute revenue per destination city in January",
			"LastMinuteSales sum(Price) by Destination/City where Date/Month in {2004-01}",
		},
		{
			"How many tickets were sold to Barcelona in January of 2004?",
			"LastMinuteSales count() where Date/Month in {2004-01} and Destination/City in {Barcelona}",
		},
		{
			// "El Prat" has no level on the Weather fact; the ontology
			// lexicon resolves it through locatedIn to the city member.
			"What is the maximum temperature in El Prat in February of 2004?",
			"Weather max(TempC) where City/City in {Barcelona} and Date/Month in {2004-02}",
		},
		{
			"Average price by destination country and month",
			"LastMinuteSales avg(Price) by Destination/Country, Date/Month",
		},
		{
			// Prepositions re-target roles: from = Departure, to = Destination.
			"How many sales from Madrid to New York in 2004?",
			"LastMinuteSales count() where Date/Year in {2004} and Departure/City in {Madrid} and Destination/City in {New York}",
		},
		{
			"Number of flights per departure airport",
			"LastMinuteSales count() by Departure/Airport",
		},
		{
			"Total miles flown from Barajas by month",
			"LastMinuteSales sum(Miles) by Date/Month where Departure/Airport in {Barajas}",
		},
		{
			"Average fare for each customer segment",
			"LastMinuteSales avg(Price) by Customer/Segment",
		},
		{
			"count of weather observations by city",
			"Weather count() by City/City",
		},
		{
			"How much revenue per city in February of 2004?",
			"LastMinuteSales sum(Price) by Destination/City where Date/Month in {2004-02}",
		},
		{
			// A full date compiles at Day granularity.
			"Average temperature in Bilbao on January 15 of 2004",
			"Weather avg(TempC) where City/City in {Bilbao} and Date/Day in {2004-01-15}",
		},
		{
			// A bare role groups at its dimension's base level.
			"Total revenue per destination",
			"LastMinuteSales sum(Price) by Destination/Airport",
		},
		{
			// Aliases ground through the ontology lexicon.
			"Average price to BCN by month",
			"LastMinuteSales avg(Price) by Date/Month where Destination/Airport in {El Prat}",
		},
	}
	for _, c := range cases {
		got, err := tr.Translate(c.question)
		if err != nil {
			t.Errorf("Translate(%q): %v", c.question, err)
			continue
		}
		if got.PlanString() != c.plan {
			t.Errorf("Translate(%q)\n  plan = %s\n  want = %s", c.question, got.PlanString(), c.plan)
		}
	}
}

// TestClassifyFactoid: questions without aggregation intent (or whose
// aggregation word is conversational) must fall to the factoid path.
func TestClassifyFactoid(t *testing.T) {
	tr, _ := fixture(t)
	for _, q := range []string{
		"What is the weather like in January of 2004 in El Prat?",
		"Who is the mayor of New York?",
		"What is Sirius?",
		"Where is El Prat?",
		"How many terms did La Guardia serve?", // count word, no warehouse anchor
		"How hot is it in Barcelona?",
		"",
		"   ",
		"?",
	} {
		_, err := tr.Translate(q)
		if !errors.Is(err, nl2olap.ErrFactoid) {
			t.Errorf("Translate(%q) = %v, want ErrFactoid", q, err)
		}
	}
}

// TestUngroundableEntityErrors: an analytic question naming an entity the
// metadata cannot absorb must error, not silently widen to the full fact.
func TestUngroundableEntityErrors(t *testing.T) {
	tr, _ := fixture(t)
	for _, q := range []string{
		"average temperature in Gotham by month",
		"Total revenue to Atlantis in January",
		// Lowercase entities tag as common nouns, but a preposition
		// complement that grounds nowhere is still an uncompiled
		// constraint — keyword-style questions must not silently widen.
		"average temperature in gotham by month",
		"total revenue to atlantis in January",
		"average temperature in the morning by month",
	} {
		_, err := tr.Translate(q)
		if err == nil || errors.Is(err, nl2olap.ErrFactoid) {
			t.Errorf("Translate(%q) = %v, want a grounding error", q, err)
		}
	}
}

// TestAmbiguousMeasureErrors: Avg/Min/Max over a multi-measure fact needs
// an explicit measure.
func TestAmbiguousMeasureErrors(t *testing.T) {
	tr, _ := fixture(t)
	_, err := tr.Translate("average sales by month")
	if err == nil || errors.Is(err, nl2olap.ErrFactoid) {
		t.Fatalf("Translate = %v, want an explicit-measure error", err)
	}
	if !strings.Contains(err.Error(), "measure") {
		t.Errorf("error %q should name the missing measure", err)
	}
}

// TestTranslationsValidate: every successful translation must pass the
// warehouse's own query validation (the fuzz target's core property,
// asserted here on the curated corpus too).
func TestTranslationsValidate(t *testing.T) {
	tr, wh := fixture(t)
	for _, q := range []string{
		"What is the average temperature in Barcelona by month?",
		"Total last-minute revenue per destination city in January",
		"Number of flights per departure airport",
		"Total revenue", // no grouping, no filters: the grand total
	} {
		res, err := tr.Translate(q)
		if err != nil {
			t.Fatalf("Translate(%q): %v", q, err)
		}
		if err := wh.Validate(res.Query); err != nil {
			t.Errorf("Translate(%q) produced an invalid plan: %v", q, err)
		}
		if _, err := wh.Execute(res.Query); err != nil {
			t.Errorf("Execute(%q): %v", q, err)
		}
	}
}

// TestAnswerMatchesHandWrittenQuery: the translated plan's result table is
// byte-identical to a hand-written dw.Query for the same intent.
func TestAnswerMatchesHandWrittenQuery(t *testing.T) {
	tr, wh := fixture(t)
	ans, err := tr.Answer("Average price by destination country and month")
	if err != nil {
		t.Fatal(err)
	}
	want, err := wh.Execute(dw.Query{
		Fact: "LastMinuteSales", Measure: "Price", Agg: dw.Avg,
		GroupBy: []dw.LevelSel{
			{Role: "Destination", Level: "Country"},
			{Role: "Date", Level: "Month"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ans.Result.Format(); got != want.Format() {
		t.Errorf("translated result diverges from the hand-written query:\n--- got ---\n%s--- want ---\n%s", got, want.Format())
	}
	if len(ans.Result.Rows) == 0 {
		t.Error("no result rows")
	}
}

// TestMetamorphicParaphrases: surface variants of one analytic intent —
// whitespace, punctuation, case of function words, marker synonyms,
// constituent order — compile to identical plans.
func TestMetamorphicParaphrases(t *testing.T) {
	tr, _ := fixture(t)
	groups := [][]string{
		{
			"What is the average temperature in Barcelona by month?",
			"average temperature in Barcelona by month",
			"Average  temperature   in Barcelona by month!!!",
			"What is the average temperature, in Barcelona, by month?",
			"average temperature in Barcelona per month",
			"average temperature in Barcelona for each month",
			"average temperature in Barcelona grouped by month",
		},
		{
			"Total last-minute revenue per destination city in January",
			"total last-minute revenue per destination city in January",
			"In January, total last-minute revenue per destination city",
			"Total last-minute revenue in January per destination city",
			"Total   last-minute   revenue per destination city in January...",
		},
		{
			"How many tickets were sold to Barcelona in January of 2004?",
			"How many tickets were sold in January of 2004 to Barcelona?",
			"how many tickets were sold to Barcelona in January of 2004",
		},
		{
			"Average price by destination country and month",
			"Average price by destination country, month",
			"Average price by destination country and by month",
			"Average price grouped by destination country and month",
		},
	}
	for gi, group := range groups {
		base, err := tr.Translate(group[0])
		if err != nil {
			t.Fatalf("group %d: Translate(%q): %v", gi, group[0], err)
		}
		for _, variant := range group[1:] {
			got, err := tr.Translate(variant)
			if err != nil {
				t.Errorf("group %d: Translate(%q): %v", gi, variant, err)
				continue
			}
			if got.PlanString() != base.PlanString() {
				t.Errorf("group %d: paraphrase %q diverges:\n  got  = %s\n  base = %s",
					gi, variant, got.PlanString(), base.PlanString())
			}
		}
	}
}

// TestTranslateDeterministic: the same question always compiles to the
// same plan (no map-iteration order leaks into group-bys or filters).
func TestTranslateDeterministic(t *testing.T) {
	tr, _ := fixture(t)
	const q = "How many sales from Madrid to New York in 2004 by month and destination city?"
	base, err := tr.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		got, err := tr.Translate(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.PlanString() != base.PlanString() {
			t.Fatalf("iteration %d: plan %q != %q", i, got.PlanString(), base.PlanString())
		}
	}
}

// TestNoOntologyDegradation: without the Step 2/3 lexicon, plain member
// names still ground through the dimension tables but airport aliases
// stop resolving on facts that lack the airport level.
func TestNoOntologyDegradation(t *testing.T) {
	_, wh := fixture(t)
	tr, err := core.NewScenarioTranslator(wh, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Translate("Average temperature in Barcelona by month"); err != nil {
		t.Errorf("plain member name should still ground: %v", err)
	}
	// El Prat is an Airport member, so the sales fact grounds it directly…
	if _, err := tr.Translate("Average price to El Prat by month"); err != nil {
		t.Errorf("airport member on the sales fact should ground: %v", err)
	}
	// …but the Weather fact has no Airport level and no lexicon to pivot
	// through, so the question must fail loudly.
	if _, err := tr.Translate("Average temperature in El Prat by month"); err == nil {
		t.Error("ontology-free El Prat on Weather should not ground")
	}
}

// TestMonthWithoutYearEnumeratesMembers: "in January" selects every
// January month member the warehouse holds.
func TestMonthWithoutYearEnumeratesMembers(t *testing.T) {
	tr, _ := fixture(t)
	res, err := tr.Translate("Total revenue in January by destination city")
	if err != nil {
		t.Fatal(err)
	}
	var dateFilter *dw.Filter
	for i := range res.Query.Filters {
		if res.Query.Filters[i].Role == "Date" {
			dateFilter = &res.Query.Filters[i]
		}
	}
	if dateFilter == nil {
		t.Fatal("no Date filter compiled")
	}
	if len(dateFilter.Values) != 1 || dateFilter.Values[0] != "2004-01" {
		t.Errorf("Date filter values = %v, want [2004-01]", dateFilter.Values)
	}
}

// TestDetectTime covers the schema introspection helper.
func TestDetectTime(t *testing.T) {
	ts := nl2olap.DetectTime(core.Figure1Schema())
	want := nl2olap.TimeSpec{Dimension: "Date", Day: "Day", Month: "Month", Year: "Year"}
	if ts != want {
		t.Errorf("DetectTime = %+v, want %+v", ts, want)
	}
}

// TestVocabularyValidation: synonym registration rejects metadata that
// does not exist.
func TestVocabularyValidation(t *testing.T) {
	_, wh := fixture(t)
	tr, err := nl2olap.New(wh, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.AddMeasureSynonym("revenue", "NoSuchFact", "Price"); err == nil {
		t.Error("unknown fact should be rejected")
	}
	if err := tr.AddMeasureSynonym("revenue", "LastMinuteSales", "NoSuchMeasure"); err == nil {
		t.Error("unknown measure should be rejected")
	}
	if err := tr.AddCountSynonym("things", "NoSuchFact"); err == nil {
		t.Error("unknown count fact should be rejected")
	}
	if err := tr.AddMeasureSynonym("  ", "LastMinuteSales", "Price"); err == nil {
		t.Error("empty synonym should be rejected")
	}
}

func TestNewRequiresWarehouse(t *testing.T) {
	if _, err := nl2olap.New(nil, nil); err == nil {
		t.Error("nil warehouse should be rejected")
	}
}
