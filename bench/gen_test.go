package main

import (
	"bytes"
	"testing"

	"dwqa/internal/webcorpus"
)

// testModel is a small page grid: 32 cities' worth of 1998.
func testModel() *corpusModel { return newCorpusModel(384) }

func bodies(reqs []request) []byte {
	var buf bytes.Buffer
	for _, r := range reqs {
		buf.Write(askBody(r))
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestSequencesAreSeeded(t *testing.T) {
	m := testModel()
	gens := map[string]func(seed int64) []request{
		"factoid_cold":  func(seed int64) []request { return m.factoidCold(seed, 2000) },
		"analytic_cold": func(seed int64) []request { return m.analyticCold(seed, 2000) },
		"hot_mixed_feed": func(seed int64) []request {
			set := m.hotSet(hotSetSeed)
			var out []request
			for _, j := range hotDraws(seed, len(set), 2000) {
				out = append(out, set[j])
			}
			return out
		},
	}
	for name, gen := range gens {
		a, b, c := bodies(gen(1)), bodies(gen(1)), bodies(gen(2))
		if len(a) == 0 {
			t.Errorf("%s: empty sequence", name)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different request sequences", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same request sequence", name)
		}
	}
}

func TestColdQuestionsAreUnique(t *testing.T) {
	m := testModel()
	seen := map[string]bool{}
	for _, r := range m.factoidCold(7, 1<<20) {
		if seen[r.Question] {
			t.Fatalf("factoid_cold repeats %q", r.Question)
		}
		seen[r.Question] = true
	}
	// Every day and every month of the corpus is in the universe exactly once.
	want := 0
	for _, cm := range m.Months {
		want += 1 + len(cm.Highs)
	}
	if len(seen) != want {
		t.Errorf("factoid_cold universe has %d questions, want %d", len(seen), want)
	}

	seen = map[string]bool{}
	narrow, wide := 0, 0
	for _, r := range m.analyticCold(7, 4000) {
		switch r.Kind {
		case kindScalar, kindByDay:
			narrow++
			if seen[r.Question] {
				t.Fatalf("analytic_cold repeats the narrow question %q", r.Question)
			}
			seen[r.Question] = true
		case kindByCity, kindByMonth:
			wide++
		default:
			t.Fatalf("analytic_cold generated kind %d", r.Kind)
		}
	}
	if share := float64(wide) / float64(narrow+wide); share < 0.12 || share > 0.18 {
		t.Errorf("wide group-bys are %.3f of analytic_cold, want about 0.15", share)
	}
}

func TestHotSetMix(t *testing.T) {
	m := testModel()
	set := m.hotSet(hotSetSeed)
	if len(set) != hotSetSize || hotSetSize != 512 {
		t.Fatalf("hot set has %d questions, want 512", len(set))
	}
	seen := map[string]bool{}
	var factoid, weather, sales int
	for _, r := range set {
		if seen[r.Question] {
			t.Errorf("hot set repeats %q", r.Question)
		}
		seen[r.Question] = true
		switch {
		case r.Kind.factoid():
			factoid++
		case r.Kind == kindSales:
			sales++
		default:
			weather++
		}
	}
	if factoid != 384 || weather != 96 || sales != 32 {
		t.Errorf("hot set mix is %d factoid, %d weather analytic, %d sales analytic; want 384, 96, 32", factoid, weather, sales)
	}
	if !bytes.Equal(bodies(set), bodies(m.hotSet(hotSetSeed))) {
		t.Error("the hot set is not fixed")
	}
	for _, j := range hotDraws(3, len(set), 10_000) {
		if int(j) >= len(set) {
			t.Fatalf("Zipf drew rank %d from a set of %d", j, len(set))
		}
	}
	if n := len(harvestQuestions()); n != 21 {
		t.Errorf("%d harvest questions, want 21", n)
	}
}

func TestModelIsTheWeatherSeries(t *testing.T) {
	m := testModel()
	for _, cm := range m.Months {
		days := webcorpus.WeatherSeries(cm.City, cm.Year, cm.Month, corpusSeed)
		if len(days) != len(cm.Highs) {
			t.Fatalf("%s %d-%02d: %d gold days, the series has %d", cm.City, cm.Year, cm.Month, len(cm.Highs), len(days))
		}
		for i, d := range days {
			if float64(d.HighC) != cm.Highs[i] {
				t.Fatalf("%s %d-%02d-%02d: gold %v, the series says %d", cm.City, cm.Year, cm.Month, i+1, cm.Highs[i], d.HighC)
			}
		}
	}
	if got := m.citiesIn[yearMonth{1998, 3}]; got != 32 {
		t.Errorf("%d cities have a page for 1998-03, want 32", got)
	}
	if got := m.monthsOfCity[m.Months[0].City]; got != 12 {
		t.Errorf("%s has %d months, want 12", m.Months[0].City, got)
	}
}
