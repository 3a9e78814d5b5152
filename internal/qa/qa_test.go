package qa

import (
	"reflect"
	"strings"
	"testing"

	"dwqa/internal/ir"
	"dwqa/internal/merge"
	"dwqa/internal/ontology"
	"dwqa/internal/webcorpus"
	"dwqa/internal/wordnet"
)

// scenarioOntology builds the enriched domain ontology of the Last Minute
// Sales scenario (Steps 1-2 applied, with the Step 4 axioms).
func scenarioOntology(t *testing.T) *ontology.Ontology {
	t.Helper()
	o := ontology.New("LastMinuteSales")
	for _, c := range []string{"Airport", "City", "State", "Customer", "Last Minute Sales", "Temperature"} {
		o.AddConcept(c)
	}
	o.AddRelation("Airport", ontology.Relation{Name: "locatedIn", Target: "City"})
	air := func(name, city string, aliases ...string) {
		o.AddInstance("Airport", ontology.Instance{
			Name: name, Aliases: aliases,
			Properties: map[string]string{"locatedIn": city},
		})
	}
	air("El Prat", "Barcelona", "Barcelona-El Prat")
	air("JFK", "New York", "Kennedy International Airport")
	air("John Wayne", "Costa Mesa")
	air("La Guardia", "New York")
	air("Barajas", "Madrid")
	for _, c := range []string{"Barcelona", "Madrid", "New York", "Costa Mesa", "Seville", "Bilbao"} {
		o.AddInstance("City", ontology.Instance{Name: c})
	}
	for _, a := range []ontology.Axiom{
		{Concept: "Temperature", Kind: ontology.AxiomValueFormat, Units: []string{"ºC", "F"}},
		{Concept: "Temperature", Kind: ontology.AxiomValueRange, Unit: "C", Min: -90, Max: 60},
		{Concept: "Temperature", Kind: ontology.AxiomUnitConversion, FromUnit: "C", ToUnit: "F", Scale: 1.8, Offset: 32},
	} {
		if err := o.AddAxiom(a); err != nil {
			t.Fatalf("AddAxiom: %v", err)
		}
	}
	return o
}

// buildSystem assembles a full QA system over the default corpus.
// tuned applies Step 3 (merge) and Step 4 (weather patterns).
func buildSystem(t *testing.T, cfg Config, tuned bool) (*System, *webcorpus.Corpus) {
	t.Helper()
	wn := wordnet.Seed()
	dom := scenarioOntology(t)
	if tuned {
		if _, err := merge.Merge(dom, wn); err != nil {
			t.Fatalf("merge: %v", err)
		}
	}
	corpus := webcorpus.Build(webcorpus.DefaultConfig())
	index := ir.NewIndex()
	if err := index.AddBatch(corpus.Documents(false)); err != nil {
		t.Fatalf("index: %v", err)
	}
	sys, err := NewSystem(wn, dom, index, cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if tuned {
		sys.TunePatterns(WeatherPatterns()...)
	}
	return sys, corpus
}

func TestTaxonomyComplete(t *testing.T) {
	if len(AllCategories) != 20 {
		t.Fatalf("taxonomy has %d categories, want the paper's 20", len(AllCategories))
	}
	seen := map[Category]bool{}
	for _, c := range AllCategories {
		if seen[c] {
			t.Errorf("duplicate category %s", c)
		}
		seen[c] = true
	}
}

func TestClassifyFocus(t *testing.T) {
	wn := wordnet.Seed()
	cases := []struct {
		lemma string
		want  Category
	}{
		{"country", CatPlaceCountry},
		{"city", CatPlaceCity},
		{"capital", CatPlaceCapital},
		{"person", CatPerson},
		{"actor", CatPerson},  // hyponym of person
		{"airline", CatGroup}, // hyponym of group (company)
		{"temperature", CatNumMeasure},
		{"price", CatNumEconomic},
		{"year", CatTempYear},
		{"month", CatTempMonth},
		{"date", CatTempDate},
		{"percentage", CatNumPercent},
		{"star", CatObject},
		{"", CatObject},
		{"zzzz", CatObject},
	}
	for _, c := range cases {
		if got := ClassifyFocus(wn, c.lemma); got != c.want {
			t.Errorf("ClassifyFocus(%q) = %s, want %s", c.lemma, got, c.want)
		}
	}
}

func TestAnalysisPaperQuery(t *testing.T) {
	sys, _ := buildSystem(t, DefaultConfig(), true)
	a, err := sys.analyze("What is the weather like in January of 2004 in El Prat?")
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if !strings.Contains(a.Pattern.Name, "weather | temperature") {
		t.Errorf("pattern = %s, want the Step 4 weather pattern", a.Pattern.Name)
	}
	if a.Category != CatNumMeasure {
		t.Errorf("category = %s, want numerical measure", a.Category)
	}
	// Table 1: "Expected answer type: Number + [ºC | F]".
	if got := a.ExpectedAnswerType(); got != "Number + [ºC | F]" {
		t.Errorf("expected answer type = %q", got)
	}
	// Main SBs must include the date and location but not the focus.
	joined := strings.Join(a.MainSBStrings(), " ")
	for _, want := range []string{"January", "2004", "El Prat", "Barcelona"} {
		if !strings.Contains(joined, want) {
			t.Errorf("main SBs %q missing %q", joined, want)
		}
	}
	if strings.Contains(joined, "weather") {
		t.Errorf("focus SB leaked into main SBs: %q", joined)
	}
	// Entity resolution: El Prat → Barcelona.
	if len(a.Locations) == 0 || a.Locations[0] != "Barcelona" {
		t.Errorf("locations = %v, want [Barcelona]", a.Locations)
	}
	if len(a.Dates) != 1 || a.Dates[0].Year != 2004 || a.Dates[0].Month != 1 {
		t.Errorf("dates = %v, want 2004-01", a.Dates)
	}
}

func TestAnalysisWithoutOntology(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseOntology = false
	sys, _ := buildSystem(t, cfg, false)
	sys.TunePatterns(WeatherPatterns()...) // patterns tuned, ontology off
	a, err := sys.analyze("What is the temperature in January of 2004 in El Prat?")
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	for _, loc := range a.Locations {
		if loc == "Barcelona" {
			t.Error("without the ontology El Prat must not resolve to Barcelona")
		}
	}
	if len(a.Expansions) != 0 {
		t.Errorf("expansions without ontology: %v", a.Expansions)
	}
}

func TestAnswerPaperQuery(t *testing.T) {
	sys, corpus := buildSystem(t, DefaultConfig(), true)
	res, err := sys.Answer("What is the weather like in January of 2004 in El Prat?")
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	if res.Best == nil {
		t.Fatal("no answer accepted")
	}
	b := res.Best
	if !b.HasValue || b.Unit != "C" {
		t.Errorf("best answer = %+v, want a Celsius value", b)
	}
	if b.Location != "Barcelona" {
		t.Errorf("location = %q, want Barcelona", b.Location)
	}
	if b.Date.Year != 2004 || b.Date.Month != 1 {
		t.Errorf("date = %+v, want January 2004", b.Date)
	}
	gold, ok := corpus.GoldHigh("Barcelona", b.Date.Year, b.Date.Month, b.Date.Day)
	if !ok {
		t.Fatalf("no gold for extracted date %+v", b.Date)
	}
	if b.Value != gold {
		t.Errorf("value = %v, gold = %v", b.Value, gold)
	}
	if !strings.Contains(b.URL, "barcelona") {
		t.Errorf("answer URL = %s, want the Barcelona weather page", b.URL)
	}
}

func TestAnswerSpecificDay(t *testing.T) {
	sys, corpus := buildSystem(t, DefaultConfig(), true)
	res, err := sys.Answer("What is the temperature on the 14th of January, 2004 in Barcelona?")
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	if res.Best == nil {
		t.Fatal("no answer")
	}
	b := res.Best
	if b.Date.Day != 14 || b.Date.Month != 1 || b.Date.Year != 2004 {
		t.Fatalf("date = %+v, want 2004-01-14", b.Date)
	}
	gold, _ := corpus.GoldHigh("Barcelona", 2004, 1, 14)
	if b.Value != gold {
		t.Errorf("value = %v, gold = %v", b.Value, gold)
	}
}

func TestAnswerViaJFKSynonym(t *testing.T) {
	// "JFK" resolves through the ontology to New York: the paper's
	// synonym-enrichment payoff. February 2004 is covered by a prose page
	// (the January page for New York is a table page — that harder case
	// is what experiment F5 measures).
	sys, corpus := buildSystem(t, DefaultConfig(), true)
	res, err := sys.Answer("What is the temperature in February of 2004 in JFK?")
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	if res.Best == nil {
		t.Fatal("no answer")
	}
	if res.Best.Location != "New York" {
		t.Errorf("location = %q, want New York", res.Best.Location)
	}
	if res.Best.Date.Month != 2 {
		t.Fatalf("answer from month %d, want February", res.Best.Date.Month)
	}
	gold, ok := corpus.GoldHigh("New York", 2004, 2, res.Best.Date.Day)
	if !ok || res.Best.Value != gold {
		t.Errorf("value = %v, gold = %v (ok=%v)", res.Best.Value, gold, ok)
	}
}

func TestAnswerCLEFCountry(t *testing.T) {
	// The paper's CLEF example: "Which country did Iraq invade in 1990?"
	sys, _ := buildSystem(t, DefaultConfig(), true)
	res, err := sys.Answer("Which country did Iraq invade in 1990?")
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	if res.Analysis.Category != CatPlaceCountry {
		t.Errorf("category = %s, want place country", res.Analysis.Category)
	}
	if res.Best == nil {
		t.Fatal("no answer")
	}
	if res.Best.Text != "Kuwait" {
		t.Errorf("answer = %q, want Kuwait", res.Best.Text)
	}
}

func TestAnswerSiriusObject(t *testing.T) {
	// The paper's Module 3 example: "What is the brightest star visible in
	// the universe?" → "Sirius".
	sys, _ := buildSystem(t, DefaultConfig(), true)
	res, err := sys.Answer("What is the brightest star visible in the universe?")
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	if res.Best == nil {
		t.Fatal("no answer")
	}
	if !strings.EqualFold(res.Best.Text, "Sirius") {
		t.Errorf("answer = %q, want Sirius", res.Best.Text)
	}
}

func TestOntologyAblationDegrades(t *testing.T) {
	// With the ontology, the El Prat question lands on Barcelona; without
	// it, the system cannot resolve the airport and must not produce a
	// confident Barcelona answer.
	on, corpus := buildSystem(t, DefaultConfig(), true)
	cfgOff := DefaultConfig()
	cfgOff.UseOntology = false
	off, _ := buildSystem(t, cfgOff, false)
	off.TunePatterns(WeatherPatterns()...)

	q := "What is the temperature in January of 2004 in El Prat?"
	resOn, err := on.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	resOff, err := off.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if resOn.Best == nil {
		t.Fatal("tuned system found no answer")
	}
	gold, _ := corpus.GoldHigh("Barcelona", 2004, 1, resOn.Best.Date.Day)
	if resOn.Best.Location != "Barcelona" || resOn.Best.Value != gold {
		t.Errorf("tuned system wrong: %+v", resOn.Best)
	}
	if resOff.Best != nil && resOff.Best.Location == "Barcelona" {
		gold, ok := corpus.GoldHigh("Barcelona", 2004, 1, resOff.Best.Date.Day)
		if ok && resOff.Best.Value == gold {
			t.Error("ablated system should not match the tuned system on the El Prat question")
		}
	}
}

func TestHarvestMonth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TopPassages = 30
	sys, corpus := buildSystem(t, cfg, true)
	answers, _, err := sys.Harvest("What is the weather like in January of 2004 in El Prat?")
	if err != nil {
		t.Fatalf("Harvest: %v", err)
	}
	// The harvest is the Step 5 database: one record per day of January.
	days := map[int]bool{}
	correct, withDay := 0, 0
	for _, ans := range answers {
		if ans.Location != "Barcelona" || ans.Date.Day == 0 {
			continue
		}
		withDay++
		days[ans.Date.Day] = true
		gold, ok := corpus.GoldHigh("Barcelona", 2004, 1, ans.Date.Day)
		v := ans.Value
		if ans.Unit == "F" {
			v = (v - 32) / 1.8
		}
		if ok && v > gold-0.05 && v < gold+0.05 {
			correct++
		}
	}
	if len(days) < 25 {
		t.Errorf("harvest covered %d days of January, want >= 25", len(days))
	}
	if withDay == 0 || float64(correct)/float64(withDay) < 0.9 {
		t.Errorf("harvest precision %d/%d below 0.9", correct, withDay)
	}
}

func TestTraceTable1Fields(t *testing.T) {
	sys, _ := buildSystem(t, DefaultConfig(), true)
	res, err := sys.Answer("What is the weather like in January of 2004 in El Prat?")
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace()
	if tr.Query == "" || tr.QueryAnalysis == "" || tr.PassageText == "" ||
		tr.PassageAnalysis == "" || tr.ExtractedAnswer == "" {
		t.Fatalf("incomplete trace: %+v", tr)
	}
	// Golden fragments of the paper's Table 1.
	for field, want := range map[string]string{
		"query analysis":  "weather NN weather",
		"pattern":         "[WHAT] [to be] [synonym of weather | temperature]",
		"expected type":   "Number + [ºC | F]",
		"answer location": "Barcelona",
	} {
		var hay string
		switch field {
		case "query analysis":
			hay = tr.QueryAnalysis
		case "pattern":
			hay = tr.QuestionPattern
		case "expected type":
			hay = tr.ExpectedAnswerType
		case "answer location":
			hay = tr.ExtractedAnswer
		}
		if !strings.Contains(hay, want) {
			t.Errorf("trace %s = %q, missing %q", field, hay, want)
		}
	}
	out := tr.Format()
	if !strings.Contains(out, "Query") || !strings.Contains(out, "Extracted answer") {
		t.Errorf("trace format incomplete:\n%s", out)
	}
}

func TestAnswerErrors(t *testing.T) {
	sys, _ := buildSystem(t, DefaultConfig(), true)
	if _, err := sys.Answer(""); err == nil {
		t.Error("empty question accepted")
	}
	if _, err := sys.Answer("   "); err == nil {
		t.Error("blank question accepted")
	}
}

func TestNewSystemValidation(t *testing.T) {
	wn := wordnet.Seed()
	ix := ir.NewIndex()
	if _, err := NewSystem(nil, nil, ix, DefaultConfig()); err == nil {
		t.Error("nil lexicon accepted")
	}
	if _, err := NewSystem(wn, nil, nil, DefaultConfig()); err == nil {
		t.Error("nil index accepted")
	}
	sys, err := NewSystem(wn, nil, ix, Config{})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if sys.Config().TopPassages <= 0 {
		t.Error("TopPassages default not applied")
	}
}

func TestAnswerRender(t *testing.T) {
	a := Answer{Text: "8ºC", Date: dateRef(2004, 1, 31), Location: "Barcelona"}
	want := "(8ºC – Saturday, January 31, 2004 – Barcelona)"
	if got := a.Render(); got != want {
		t.Errorf("Render = %q, want %q", got, want)
	}
	plain := Answer{Text: "Kuwait"}
	if got := plain.Render(); got != "(Kuwait)" {
		t.Errorf("Render = %q", got)
	}
}

func dateRef(y, m, d int) (out struct {
	Year  int
	Month int
	Day   int
}) {
	out.Year, out.Month, out.Day = y, m, d
	return
}

func BenchmarkAnswerPaperQuery(b *testing.B) {
	sys, _ := buildSystem(&testing.T{}, DefaultConfig(), true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Answer("What is the weather like in January of 2004 in El Prat?"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAnalysisTermSet pins the hoisted question-term set: analyze
// publishes it in lockstep with Terms, and hand-built analyses fall back
// to deriving one.
func TestAnalysisTermSet(t *testing.T) {
	s, _ := buildSystem(t, DefaultConfig(), true)
	a, err := s.analyze("What is the weather like in January of 2004 in Barcelona?")
	if err != nil {
		t.Fatal(err)
	}
	if a.TermSet == nil {
		t.Fatal("analyze left TermSet nil")
	}
	if len(a.TermSet) != len(a.Terms) {
		t.Fatalf("TermSet has %d entries, Terms has %d", len(a.TermSet), len(a.Terms))
	}
	for _, term := range a.Terms {
		if !a.TermSet[term] {
			t.Errorf("TermSet missing term %q", term)
		}
	}

	// Fallback for analyses built by hand (no precomputed set).
	hand := &Analysis{Terms: []string{"alpha", "beta"}}
	set := hand.termSet()
	if !set["alpha"] || !set["beta"] || len(set) != 2 {
		t.Errorf("fallback termSet = %v", set)
	}
	// A precomputed set is returned as-is.
	hand.TermSet = map[string]bool{"gamma": true}
	if !hand.termSet()["gamma"] {
		t.Error("precomputed TermSet not returned")
	}
}

// TestAnswersCarryNoStateAcrossQuestions pins that the query path keeps
// nothing per question: a question list answered twice on one System,
// and once on a fresh System, yields deeply equal Results — every
// extractor (measure, typed, temporal, numeric, definition) and the
// harvest included. Only corpus-bound caches survive a question, and
// they must not change what any later question sees.
func TestAnswersCarryNoStateAcrossQuestions(t *testing.T) {
	questions := []string{
		"What is the weather like in January of 2004 in El Prat?",
		"What is the temperature on the 14th of January, 2004 in Barcelona?",
		"What is the temperature in February of 2004 in JFK?",
		"Which country did Iraq invade in 1990?",
		"When did Iraq invade Kuwait?",
		"Who was the mayor of New York?",
		"How many terms did La Guardia serve?",
		"What percentage did inflation reach in January of 1998?",
		"What is Sirius?",
		"Which band played concerts in Barcelona?",
		"Tell me about the financial crisis.",
	}
	run := func(sys *System) []any {
		var out []any
		for _, q := range questions {
			res, err := sys.Answer(q)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			out = append(out, res)
		}
		answers, res, err := sys.Harvest(questions[0])
		if err != nil {
			t.Fatalf("harvest: %v", err)
		}
		return append(out, answers, res)
	}
	sys, _ := buildSystem(t, DefaultConfig(), true)
	first := run(sys)
	fresh, _ := buildSystem(t, DefaultConfig(), true)
	for name, got := range map[string][]any{"same system, second pass": run(sys), "fresh system": run(fresh)} {
		for i := range first {
			if !reflect.DeepEqual(got[i], first[i]) {
				t.Errorf("%s: result %d differs from the first pass", name, i)
			}
		}
	}
}

// TestAnalysisMayTerms pins both readings of "may" in question analysis:
// the month is a retrieval term, the modal is not.
func TestAnalysisMayTerms(t *testing.T) {
	s, _ := buildSystem(t, DefaultConfig(), true)
	for q, want := range map[string]bool{
		"What is the temperature in Barcelona on May 3, 2004?":       true,
		"What was the weather like in May of 2004 in El Prat?":       true,
		"What temperature may Barcelona reach in January of 2004?":   false,
		"May I ask the temperature in Barcelona in January of 2004?": false,
	} {
		a, err := s.analyze(q)
		if err != nil {
			t.Fatal(err)
		}
		if a.TermSet["may"] != want {
			t.Errorf("%q: terms %v, want \"may\" among them: %v", q, a.Terms, want)
		}
	}
}
