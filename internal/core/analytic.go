package core

import (
	"context"

	"dwqa/internal/nl2olap"
	"dwqa/internal/ontology"
)

// This file wires the analytic question path (DESIGN.md §6) into the Last
// Minute Sales scenario: the NL→OLAP translator over the Figure 1 schema
// with the business vocabulary decision makers actually use ("revenue",
// "tickets", "temperature"), and the pipeline facade that serves it.

// NewScenarioTranslator builds the analytic-question translator for a
// Figure 1 warehouse: the schema-derived vocabulary plus the scenario's
// business synonyms, the Destination-first role preference and the
// from/to preposition bindings. The ontology may be nil (the E-ONTO
// ablation); airport aliases then stop resolving, but plain member names
// still ground through the dimension tables. wh is any warehouse-shaped
// query surface — a single *dw.Warehouse or a shard.Cluster.
func NewScenarioTranslator(wh nl2olap.Warehouse, onto *ontology.Ontology) (*nl2olap.Translator, error) {
	t, err := nl2olap.New(wh, onto)
	if err != nil {
		return nil, err
	}
	for phrase, ref := range map[string][2]string{
		"revenue":      {"LastMinuteSales", "Price"},
		"price":        {"LastMinuteSales", "Price"},
		"prices":       {"LastMinuteSales", "Price"},
		"fare":         {"LastMinuteSales", "Price"},
		"fares":        {"LastMinuteSales", "Price"},
		"cost":         {"LastMinuteSales", "Price"},
		"miles":        {"LastMinuteSales", "Miles"},
		"mileage":      {"LastMinuteSales", "Miles"},
		"distance":     {"LastMinuteSales", "Miles"},
		"temperature":  {"Weather", "TempC"},
		"temperatures": {"Weather", "TempC"},
		"temp":         {"Weather", "TempC"},
	} {
		if err := t.AddMeasureSynonym(phrase, ref[0], ref[1]); err != nil {
			return nil, err
		}
	}
	for phrase, fact := range map[string]string{
		"ticket": "LastMinuteSales", "tickets": "LastMinuteSales",
		"sale": "LastMinuteSales", "sales": "LastMinuteSales",
		"booking": "LastMinuteSales", "bookings": "LastMinuteSales",
		"flight": "LastMinuteSales", "flights": "LastMinuteSales",
		"trip": "LastMinuteSales", "trips": "LastMinuteSales",
		"weather":      "Weather",
		"observation":  "Weather",
		"observations": "Weather",
		"reading":      "Weather",
		"readings":     "Weather",
	} {
		if err := t.AddCountSynonym(phrase, fact); err != nil {
			return nil, err
		}
	}
	// An unqualified "by city" means the destination for the sales fact
	// (the BI analyses all slice by destination); "from X" re-targets the
	// departure role.
	t.SetRolePreference("Destination", "City", "Date", "Customer")
	t.SetPrepositionRole("from", "Departure")
	t.SetPrepositionRole("to", "Destination")
	t.SetPrepositionRole("into", "Destination")
	return t, nil
}

// AnalyticQuestions is the canonical analytic workload of the scenario:
// the question shapes the translator compiles, replayed by the engine,
// sharding and recovery tests.
func AnalyticQuestions() []string {
	return []string{
		"What is the average temperature in Barcelona by month?",
		"Total last-minute revenue per destination city in January",
		"How many tickets were sold to Barcelona in January of 2004?",
		"Average price by destination country and month",
		"Number of flights per departure airport",
		"count of weather observations by city",
	}
}

// Translator returns the pipeline's NL→OLAP translator, building it on
// first use. Grounding quality follows the pipeline state: after Step 2
// the ontology lexicon resolves airport aliases; before it, only plain
// member names ground. A translator built before Step 1 is rebuilt once
// the ontology exists, so an early call never freezes alias grounding
// off. The serving engine obtains it through Engine(), which wires it
// into the Ask path.
func (p *Pipeline) Translator() (*nl2olap.Translator, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.translatorLocked()
}

func (p *Pipeline) translatorLocked() (*nl2olap.Translator, error) {
	onto := p.qaOntology()
	if p.trans != nil && p.transOnto == onto {
		return p.trans, nil
	}
	t, err := NewScenarioTranslator(p.Warehouse, onto)
	if err != nil {
		return nil, err
	}
	p.trans, p.transOnto = t, onto
	return t, nil
}

// AskOLAP answers one analytic question through the serving engine
// (requires Step 4): classification, translation, execution and the
// shared answer cache. Factoid questions return nl2olap.ErrFactoid — use
// Ask (or AskAll, which dispatches per question) for those.
func (p *Pipeline) AskOLAP(question string) (*nl2olap.Answer, error) {
	eng, err := p.Engine()
	if err != nil {
		return nil, err
	}
	return eng.AskOLAP(context.Background(), question)
}
